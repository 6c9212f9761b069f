// pcs_serve: operate a partial concentrator switch as a service.
//
// Reads a key=value config (see examples/serve_smoke.cfg), builds one fabric
// per family in the config's `family` list, and runs a warmup ->
// measurement -> drain campaign at every offered load in `loads` (or the
// single `arrival_p` point).  Each campaign wraps the switch in the fabric
// runtime: bounded per-input injection queues, the configured congestion
// policy for routing losers, and one route_batch() thread-pool dispatch per
// epoch across all lanes.
//
// Results go to stdout as a summary table and to the `out` file (default
// runtime_metrics.json) as a deterministic JSON document -- identical seeds
// produce byte-identical files, so CI diffs them.
//
//   $ ./pcs_serve --config serve.cfg [key=value ...]
//   $ ./pcs_serve n=256 m=128 family=revsort,columnsort loads=0.1,0.3,0.5
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fabric/fabric_config.hpp"
#include "obs/trace.hpp"
#include "traffic/trace.hpp"
#include "util/assert.hpp"
#include "runtime/config.hpp"
#include "runtime/fabric_runtime.hpp"
#include "runtime/metrics.hpp"
#include "runtime/trace_bridge.hpp"
#include "util/parallel.hpp"

namespace {

using pcs::rt::FabricRuntime;
using pcs::rt::MetricsRegistry;
using pcs::rt::RuntimeConfig;
using pcs::rt::RuntimeReport;

struct Campaign {
  std::string family;
  std::string switch_name;
  double load = 0.0;
  RuntimeReport report;
  std::string metrics_json;
  double delivery_rate = 0.0;
  double mean_latency = 0.0;
  bool traced = false;
  pcs::obs::TraceSnapshot trace;
};

void start_tracing(const RuntimeConfig& cfg) {
  pcs::obs::Tracer::instance().enable(cfg.trace_clock == "logical"
                                          ? pcs::obs::ClockMode::kLogical
                                          : pcs::obs::ClockMode::kTsc);
}

void finish_tracing(Campaign& c, MetricsRegistry& metrics) {
  pcs::obs::Tracer::instance().disable();
  c.trace = pcs::obs::Tracer::instance().drain();
  c.traced = true;
  pcs::rt::merge_profile(c.trace, metrics);
}

/// topology= campaigns: the same warmup -> measure -> drain loop, but over
/// a multi-hop fabric of plan-compiled switches (src/fabric) instead of one
/// switch behind injection queues.  The JSON campaign shape is identical;
/// per-hop series appear as fabric.hop<k>.* metrics.
Campaign run_fabric_campaign(const std::string& family,
                             const RuntimeConfig& base, double load,
                             bool tracing) {
  auto sim = pcs::fabric::make_fabric_sim(base, family, load);
  MetricsRegistry metrics;

  Campaign c;
  c.family = family;
  c.switch_name = sim->name();
  c.load = load;
  if (tracing) start_tracing(base);
  c.report = sim->run(metrics);
  if (tracing) finish_tracing(c, metrics);
  c.metrics_json = metrics.to_json(6);
  c.delivery_rate = metrics.gauge("delivery_rate").value();
  c.mean_latency = metrics.gauge("mean_latency_epochs").value();
  return c;
}

Campaign run_campaign(const std::string& family, const RuntimeConfig& base,
                      double load, bool tracing) {
  if (!base.topology.empty()) {
    return run_fabric_campaign(family, base, load, tracing);
  }
  RuntimeConfig cfg = base;
  cfg.arrival_p = load;
  auto sw = pcs::rt::make_switch(family, cfg);

  // Traffic plumbing: replay= substitutes a recorded offered stream (one
  // trace stream per lane), record= wraps the per-lane sources so this
  // campaign's stream gets captured, and the default path builds from the
  // config's pattern/injection keys (the switch pointer feeds worstcase).
  std::shared_ptr<const pcs::traffic::TraceLog> replay_log;
  if (!cfg.replay.empty()) {
    replay_log = std::make_shared<const pcs::traffic::TraceLog>(
        pcs::traffic::TraceLog::read_file(cfg.replay));
  }
  pcs::traffic::TraceRecorder recorder(cfg.n, cfg.lanes);
  const bool recording = !cfg.record.empty();
  const pcs::sw::ConcentratorSwitch* sw_ptr = sw.get();
  FabricRuntime::TrafficFactory factory = [&, sw_ptr](std::size_t lane) {
    if (replay_log) {
      PCS_REQUIRE(replay_log->width == cfg.n,
                  "replay trace width " << replay_log->width
                                        << " does not match n=" << cfg.n);
      PCS_REQUIRE(lane < replay_log->streams.size(),
                  "replay trace has " << replay_log->streams.size()
                                      << " streams, campaign wants lane "
                                      << lane);
      return pcs::traffic::make_replay(replay_log, lane);
    }
    auto src = pcs::rt::make_traffic(cfg, cfg.n, sw_ptr);
    return recording ? recorder.wrap(std::move(src), lane) : std::move(src);
  };

  FabricRuntime runtime(*sw, pcs::rt::runtime_options_from(cfg),
                        std::move(factory));
  MetricsRegistry metrics;
  metrics.gauge("epsilon_bound").set(static_cast<double>(sw->epsilon_bound()));
  metrics.gauge("guaranteed_capacity")
      .set(static_cast<double>(sw->guaranteed_capacity()));
  metrics.gauge("load_ratio_bound").set(sw->load_ratio_bound());

  Campaign c;
  c.family = family;
  c.switch_name = sw->name();
  c.load = load;
  if (tracing) start_tracing(cfg);
  c.report = runtime.run(metrics);
  if (tracing) finish_tracing(c, metrics);
  c.metrics_json = metrics.to_json(6);
  c.delivery_rate = metrics.gauge("delivery_rate").value();
  c.mean_latency = metrics.gauge("mean_latency_epochs").value();
  if (recording) {
    recorder.log().write_file(cfg.record);
    std::printf("recorded offered stream to %s (%zu lanes)\n",
                cfg.record.c_str(), cfg.lanes);
  }
  return c;
}

std::string profile_json(const RuntimeConfig& cfg, const Campaign& c) {
  if (!c.traced) return "{\"enabled\": false}";
  std::ostringstream os;
  os << "{\"enabled\": true, \"clock\": " << pcs::rt::json_escape(cfg.trace_clock)
     << ", \"spans\": " << c.trace.spans.size()
     << ", \"counters\": " << c.trace.counters.size() << "}";
  return os.str();
}

std::string document_json(const RuntimeConfig& cfg,
                          const std::vector<Campaign>& campaigns) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": \"pcs.runtime.v2\",\n";
  os << "  \"config\":\n" << pcs::rt::config_to_json(cfg, 2) << ",\n";
  os << "  \"campaigns\": [";
  for (std::size_t i = 0; i < campaigns.size(); ++i) {
    const Campaign& c = campaigns[i];
    os << (i ? ",\n" : "\n");
    os << "    {\n";
    os << "      \"family\": " << pcs::rt::json_escape(c.family) << ",\n";
    os << "      \"switch\": " << pcs::rt::json_escape(c.switch_name) << ",\n";
    os << "      \"load\": " << pcs::rt::format_json_double(c.load) << ",\n";
    os << "      \"drained\": " << (c.report.drained ? "true" : "false") << ",\n";
    os << "      \"saturated\": " << (c.report.saturated ? "true" : "false") << ",\n";
    os << "      \"drain_epochs\": " << c.report.drain_epochs_used << ",\n";
    os << "      \"residual_backlog\": " << c.report.residual_backlog << ",\n";
    os << "      \"profile\": " << profile_json(cfg, c) << ",\n";
    os << "      \"metrics\":\n" << c.metrics_json << "\n";
    os << "    }";
  }
  os << "\n  ]\n}\n";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  RuntimeConfig cfg;
  try {
    std::vector<std::string> overrides;
    for (int a = 1; a < argc; ++a) {
      const std::string arg = argv[a];
      if (arg == "--config") {
        if (a + 1 >= argc) {
          std::fprintf(stderr, "--config needs a file argument\n");
          return 2;
        }
        cfg = pcs::rt::load_config_file(argv[++a]);
      } else if (arg == "--help" || arg == "-h") {
        std::printf("usage: pcs_serve [--config FILE] [key=value ...]\n");
        return 0;
      } else {
        overrides.push_back(arg);
      }
    }
    pcs::rt::apply_overrides(cfg, overrides);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "config error: %s\n", e.what());
    return 2;
  }

  const std::vector<double> loads =
      cfg.loads.empty() ? std::vector<double>{cfg.arrival_p} : cfg.loads;

  if (!cfg.record.empty()) {
    // A recording captures exactly one offered stream; a sweep would
    // silently overwrite it per campaign.
    const std::size_t n_campaigns =
        pcs::rt::split_csv(cfg.family).size() * loads.size();
    if (n_campaigns != 1 || !cfg.topology.empty()) {
      std::fprintf(stderr,
                   "record= needs a single single-switch campaign (one "
                   "family, one load, no topology)\n");
      return 2;
    }
  }

  if (cfg.threads != 0) pcs::set_max_parallelism(cfg.threads);
  bool tracing = !cfg.trace.empty();
  if (tracing && !pcs::obs::kCompiledIn) {
    std::fprintf(stderr,
                 "warning: trace=%s requested but tracing is compiled out "
                 "(-DPCS_TRACING=OFF); running untraced\n",
                 cfg.trace.c_str());
    tracing = false;
  }

  std::vector<Campaign> campaigns;
  try {
    for (const std::string& family : pcs::rt::split_csv(cfg.family)) {
      for (double load : loads) {
        Campaign c = run_campaign(family, cfg, load, tracing);
        std::printf(
            "%-11s load=%.3f  delivery=%.4f  mean-latency=%.2f epochs  %s"
            " (drain %zu epochs, residual %zu)\n",
            c.family.c_str(), c.load, c.delivery_rate, c.mean_latency,
            c.report.saturated ? "SATURATED" : "drained", c.report.drain_epochs_used,
            c.report.residual_backlog);
        campaigns.push_back(std::move(c));
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign failed: %s\n", e.what());
    return 1;
  }

  std::ofstream out(cfg.out);
  if (!out.good()) {
    std::fprintf(stderr, "cannot write %s\n", cfg.out.c_str());
    return 1;
  }
  out << document_json(cfg, campaigns);
  out.close();
  std::printf("wrote %s (%zu campaigns)\n", cfg.out.c_str(), campaigns.size());

  if (tracing) {
    std::vector<pcs::obs::TraceSnapshot> snapshots;
    snapshots.reserve(campaigns.size());
    for (const Campaign& c : campaigns) snapshots.push_back(c.trace);
    std::ofstream tf(cfg.trace);
    if (!tf.good()) {
      std::fprintf(stderr, "cannot write %s\n", cfg.trace.c_str());
      return 1;
    }
    tf << pcs::obs::chrome_trace_json(snapshots);
    tf.close();
    std::printf("wrote %s (%zu trace groups)\n", cfg.trace.c_str(),
                snapshots.size());
  }
  return 0;
}
