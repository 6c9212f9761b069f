// perfbench: one workload of the end-to-end benchmark per invocation.
//
//   perfbench --workload fabric_omega|serve_mix --seed N
//             --seconds S --trace 0|1 [--tiny]
//   perfbench --selftest-gate
//
// --trace 0 measures with tracing off and prints the end-to-end metrics;
// --trace 1 repeats the workload untraced and traced and prints the
// per-layer metrics.  The last line of standard output is the result
// object; the line before it records the host and build.  Exit status: 0
// when every operation passed the correctness gate, 1 when one failed, 2
// on bad usage or a refused environment.
#include <cpuid.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "obs/trace.hpp"
#include "plan/plan_executor.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

void emit_end_to_end(Result& res, const EndToEnd& e) {
  res.add("msgs_per_s", e.msgs_per_s, "msg/s");
  res.add("cpu_s_per_mmsg", e.cpu_s_per_mmsg, "s");
  res.add("reply_ms_p50", e.reply_ms_p50, "ms");
  res.add("reply_ms_p99", e.reply_ms_p99, "ms");
  res.add("setup_s", e.setup_s, "s");
  res.add("peak_rss_mb", e.peak_rss_mb, "MB");
}

void emit_per_layer(Result& res, const PerLayer& p) {
  const bool spans = pcs::obs::kCompiledIn;
  const auto from_spans = [&](const std::string& name, double value,
                              const std::string& unit) {
    if (spans) {
      res.add(name, value, unit);
    } else {
      res.not_taken.push_back(name);
    }
  };
  const LayerBudget& b = p.budget;
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    from_spans(layer_share_metric(static_cast<Layer>(l)),
               b.share(static_cast<Layer>(l)), "ratio");
  }
  res.add("traffic.calls", p.traffic_calls, "count");
  res.add("traffic.dest_calls", p.traffic_dest_calls, "count");
  from_spans("plan.route_batch_share", b.epoch_us > 0.0 ? b.route_us / b.epoch_us : 0.0,
             "ratio");
  from_spans("plan.chunks_per_dispatch",
             b.dispatches > 0 ? static_cast<double>(b.kernel_chunks) /
                                    static_cast<double>(b.dispatches)
                              : 0.0,
             "count");
  from_spans("plan.patterns_per_call",
             b.dispatches > 0 ? static_cast<double>(b.kernel_patterns) /
                                    static_cast<double>(b.dispatches)
                              : 0.0,
             "count");
  res.add("plan.compile_ms", p.compile_ms, "ms");
  if (p.epoch_from_spans) {
    from_spans("engine.epoch_us_p50", p.epoch_us_p50, "us");
    from_spans("engine.epoch_us_p99", p.epoch_us_p99, "us");
  } else {
    res.add("engine.epoch_us_p50", p.epoch_us_p50, "us");
    res.add("engine.epoch_us_p99", p.epoch_us_p99, "us");
  }
  res.add("engine.campaign_ms_mean", p.campaign_ms_mean, "ms");
  res.add("serve.cache_hit_ratio", p.cache_hit_ratio, "ratio");
  res.add("serve.outside_campaign_share", p.outside_campaign_share, "ratio");
  res.add("serve.rejected", p.rejected, "count");
  res.add("metrics.scrape_ms_p50", p.scrape_ms_p50, "ms");
  res.add("proc.cpu_per_wall", p.cpu_per_wall, "ratio");
  res.add("proc.minflt_per_kmsg", p.minflt_per_kmsg, "count");
  from_spans("obs.trace_overhead", p.trace_overhead, "ratio");
  res.add("loadgen.lag_ms_max", p.lag_ms_max, "ms");
  res.add("sim.delivered", p.sim_delivered, "msg");
  res.add("sim.dropped", p.sim_dropped, "msg");
  res.add("sim.retries", p.sim_retries, "count");
  res.add("sim.credit_stalls", p.sim_credit_stalls, "count");
  res.add("sim.latency_epochs_mean", p.sim_latency_epochs_mean, "epoch");
  res.add("sim.dispatches", p.sim_dispatches, "count");
}

namespace {

std::string cpu_model() {
  unsigned int eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(0x80000000u, &eax, &ebx, &ecx, &edx) == 0 || eax < 0x80000004u) {
    return "unknown";
  }
  char brand[49] = {};
  for (unsigned int leaf = 0; leaf < 3; ++leaf) {
    unsigned int regs[4] = {};
    __get_cpuid(0x80000002u + leaf, &regs[0], &regs[1], &regs[2], &regs[3]);
    std::memcpy(brand + 16 * leaf, regs, sizeof(regs));
  }
  std::string s(brand);
  s.erase(0, s.find_first_not_of(' '));
  return s;
}

std::string num(double v) { return pcs::rt::format_json_double(v); }

void print_env(const Args& args, const Result& res) {
  std::string line = "{\"env\": {\"nproc\": " +
                     std::to_string(std::thread::hardware_concurrency()) +
                     ", \"pool_threads\": " +
                     std::to_string(pcs::default_thread_count()) +
                     ", \"cpu_model\": " + pcs::rt::json_escape(cpu_model()) +
                     ", \"avx512f\": " +
                     (pcs::plan::cpu_has_avx512f() ? "true" : "false") +
                     ", \"build_type\": " + pcs::rt::json_escape(PERFBENCH_BUILD_TYPE) +
                     ", \"tracing_compiled_in\": " +
                     (pcs::obs::kCompiledIn ? "true" : "false") + "}";
  line += ", \"workload\": " + pcs::rt::json_escape(args.workload) +
          ", \"seed\": " + std::to_string(args.seed) + ", \"info\": {";
  for (std::size_t i = 0; i < res.info.size(); ++i) {
    line += (i ? ", " : "") + pcs::rt::json_escape(res.info[i].first) + ": " +
            num(res.info[i].second);
  }
  line += "}, \"not_taken\": [";
  for (std::size_t i = 0; i < res.not_taken.size(); ++i) {
    line += (i ? ", " : "") + pcs::rt::json_escape(res.not_taken[i]);
  }
  std::printf("%s]}\n", line.c_str());
}

void print_result(const Result& res) {
  std::string line = std::string("{\"correct\": ") +
                     (res.correct() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(res.attempted) +
                     ", \"failed\": " + std::to_string(res.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    const Metric& m = res.metrics[i];
    line += (i ? ", " : "") + pcs::rt::json_escape(m.name) + ": {\"value\": " +
            num(m.value) + ", \"unit\": " + pcs::rt::json_escape(m.unit) + "}";
  }
  std::printf("%s}}\n", line.c_str());
  std::fflush(stdout);
}

/// The gate must reject a hand-built unbalanced reply after it crossed the
/// wire encoding, and accept the balanced one.
int selftest_gate() {
  const auto through_wire = [](const pcs::serve::CampaignReply& rep) {
    pcs::serve::FrameReader reader;
    const std::vector<std::uint8_t> bytes = pcs::serve::encode_campaign_reply(rep);
    reader.feed(bytes.data(), bytes.size());
    return *reader.next()->campaign_reply;
  };
  pcs::serve::CampaignReply rep;
  rep.offered = 100;
  rep.delivered = 90;
  rep.dropped = 5;
  rep.residual = 4;  // one message unaccounted for
  const std::string unbalanced = reply_error(through_wire(rep));
  rep.residual = 5;
  const std::string balanced = reply_error(through_wire(rep));
  rep.status = pcs::serve::Status::kRejected;
  rep.reason = "tenant_quota";
  const std::string rejected = reply_error(through_wire(rep));

  pcs::rt::MetricsRegistry reg;
  reg.counter("total.offered").add(10);
  reg.counter("total.delivered").add(9);
  const std::string short_registry = registry_error(reg);

  const bool ok = !unbalanced.empty() && balanced.empty() && !rejected.empty() &&
                  !short_registry.empty();
  std::printf("gate rejects unbalanced reply: %s\n", unbalanced.c_str());
  std::printf("gate rejects refused reply: %s\n", rejected.c_str());
  std::printf("gate rejects unbalanced campaign: %s\n", short_registry.c_str());
  std::printf("gate accepts balanced reply: %s\n", balanced.empty() ? "yes" : "no");
  std::printf("%s\n", ok ? "selftest-gate: ok" : "selftest-gate: FAILED");
  return ok ? 0 : 1;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "fabric_omega|serve_mix --seed N --seconds S "
               "--trace 0|1 [--tiny]\n       perfbench --selftest-gate\n",
               why);
  std::exit(2);
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  bool gate = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    try {
      if (a == "--workload") args.workload = value();
      else if (a == "--seed") args.seed = std::stoull(value());
      else if (a == "--seconds") args.seconds = std::stod(value());
      else if (a == "--trace") args.trace = std::stoi(value()) != 0;
      else if (a == "--tiny") args.tiny = true;
      else if (a == "--selftest-gate") gate = true;
      else usage(("unknown argument " + a).c_str());
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  // Measure what users run: these variables switch the plan executor and
  // the fabric pipeline away from the library defaults.
  for (const char* var : {"PCS_PLAN_EXEC", "PCS_FABRIC_EPOCHS_IN_FLIGHT"}) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr,
                   "perfbench: refusing to run with %s set; the benchmark "
                   "measures library defaults\n",
                   var);
      return 2;
    }
  }
  if (gate) return selftest_gate();
  if (!(args.seconds > 0.0 && args.seconds <= 600.0)) usage("--seconds out of range");

  Result res;
  try {
    if (args.workload == "fabric_omega") res = run_fabric_omega(args);
    else if (args.workload == "serve_mix") res = run_serve_mix(args);
    else usage("unknown workload");
  } catch (const std::exception& e) {
    res.fail(std::string("workload threw: ") + e.what());
  }
  for (const Metric& m : res.metrics) {
    if (!std::isfinite(m.value)) res.fail("metric " + m.name + " is not finite");
  }
  print_env(args, res);
  print_result(res);
  return res.correct() ? 0 : 1;
}
