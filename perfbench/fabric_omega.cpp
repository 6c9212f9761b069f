// fabric_omega: FabricSim campaigns built through the public make_fabric
// and run through fabric::FabricSim::run at library defaults (no thread,
// executor or pipeline override): a 3-hop radix-4 omega of Revsort(256 ->
// 192) nodes (64 sources, 48 nodes), iSLIP, 8 credits, uniform Bernoulli
// load 0.6.
//
// The simulator sees the benchmark only through the TrafficSource wrapper
// its traffic factory hands out, which spans every draw and stamps the time
// between successive epochs.
#include <memory>

#include "fabric/make_fabric.hpp"
#include "obs/trace.hpp"
#include "switch/make_switch.hpp"
#include "traffic/factory.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using pcs::rt::MetricsRegistry;

/// Measured epochs per campaign: long campaigns, so a run's per-campaign
/// medians rest on few campaign boundaries.
constexpr std::size_t kMeasureEpochs = 1024;

struct Probes {
  std::uint64_t traffic_calls = 0;
  std::uint64_t dest_calls = 0;
  /// Wall time between successive traffic draws, one per epoch of the
  /// running campaign.
  std::vector<double> epoch_gap_us;
  Clock::time_point last{};
  bool have_last = false;

  /// Forget the previous campaign's draws, so no gap spans two campaigns.
  void new_campaign() {
    have_last = false;
    epoch_gap_us.clear();
  }
};

class ProbedSource final : public pcs::traffic::TrafficSource {
 public:
  ProbedSource(std::unique_ptr<pcs::traffic::TrafficSource> inner, Probes& probes)
      : TrafficSource(inner->width()), inner_(std::move(inner)), probes_(probes) {}

  pcs::BitVec next_valid(pcs::Rng& rng) override {
    const Clock::time_point now = Clock::now();
    if (probes_.have_last) {
      probes_.epoch_gap_us.push_back(
          std::chrono::duration<double, std::micro>(now - probes_.last).count());
    }
    probes_.last = now;
    probes_.have_last = true;
    pcs::obs::SpanGuard span(kTrafficSpan, "bench");
    ++probes_.traffic_calls;
    return inner_->next_valid(rng);
  }

  std::uint32_t dest_for(pcs::Rng& rng, std::size_t src, std::size_t sinks) override {
    pcs::obs::SpanGuard span(kTrafficSpan, "bench");
    ++probes_.dest_calls;
    return inner_->dest_for(rng, src, sinks);
  }

  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<pcs::traffic::TrafficSource> inner_;
  Probes& probes_;
};

class OmegaEngine {
 public:
  OmegaEngine(const Args& args, Probes& probes) : probes_(probes) {
    spec_.topology = pcs::fabric::Topology::kOmega;
    spec_.hops = args.tiny ? 2 : 3;
    spec_.radix = args.tiny ? 2 : 4;
    spec_.node.family = "revsort";
    spec_.node.n = args.tiny ? 64 : 256;
    spec_.node.m = spec_.node.n / 4 * 3;
    spec_.credits = 8;
    spec_.alloc = "islip";
    opts_.queue_depth = 4;
    opts_.seed = args.seed;
    opts_.warmup_epochs = args.tiny ? 8 : 32;
    opts_.measure_epochs = args.tiny ? 32 : kMeasureEpochs;
  }

  /// Drop the current simulator, then build it afresh through make_fabric
  /// (which compiles the node plans).  Returns the build's wall seconds.
  double rebuild() {
    sim_.reset();
    Probes& probes = probes_;
    const Clock::time_point t0 = Clock::now();
    sim_ = pcs::make_fabric(spec_, opts_, [&probes](std::size_t width) {
      pcs::traffic::TrafficSpec t;
      t.width = width;
      t.pattern = "uniform";
      t.injection = "bernoulli";
      t.intensity = 0.6;
      return std::make_unique<ProbedSource>(pcs::traffic::make_source(t), probes);
    });
    return seconds_between(t0, Clock::now());
  }

  void run(MetricsRegistry& metrics) { sim_->run(metrics); }
  const pcs::SwitchSpec& node_spec() const { return spec_.node; }

 private:
  Probes& probes_;
  pcs::FabricSpec spec_;
  pcs::fabric::FabricOptions opts_;
  std::unique_ptr<pcs::fabric::FabricSim> sim_;
};

/// One campaign with the correctness gate applied: the registry must
/// balance and its simulated counters must hash to `expected` (set by the
/// first campaign of the run).  Returns the run() wall seconds, or a
/// negative value when the campaign failed.
double timed_campaign(OmegaEngine& engine, Result& res, std::uint64_t& expected,
                      MetricsRegistry& metrics) {
  ++res.attempted;
  const Clock::time_point t0 = Clock::now();
  try {
    engine.run(metrics);
  } catch (const std::exception& e) {
    res.fail(std::string("campaign threw: ") + e.what());
    return -1.0;
  }
  const double wall = seconds_between(t0, Clock::now());
  const std::string err = registry_error(metrics);
  if (!err.empty()) {
    res.fail(err);
    return -1.0;
  }
  const std::uint64_t digest = simulated_digest(metrics);
  if (expected == 0) expected = digest;
  if (digest != expected) {
    res.fail("simulated counters differ between repetitions of one seed");
    return -1.0;
  }
  return wall;
}

struct Loop {
  std::size_t campaigns = 0;
  std::uint64_t delivered = 0;
  std::vector<double> run_ms;
  /// Per campaign: delivered messages per run() wall-second, and process
  /// CPU seconds per million delivered.  Runs report their medians, so a
  /// few campaigns slowed by a busy host move them little.
  std::vector<double> msgs_per_s;
  std::vector<double> cpu_s_per_mmsg;
  /// Every epoch time of every campaign.
  std::vector<double> epoch_us;
  std::vector<double> scrape_ms;  ///< registry to_json per campaign
  double lag_ms_max = 0.0;        ///< worst gap between campaigns
  ProcSample before, after;
  std::unique_ptr<MetricsRegistry> last;  ///< the last campaign's registry
};

/// Run campaigns until `seconds` have passed (at least `min_campaigns`).
/// With a `budget`, every campaign runs under the tracer and its snapshot
/// feeds the budget.  With `setup_s`, the simulator is rebuilt a few times
/// before every campaign and each build timed: a host's fast and slow
/// spells last about a second, so builds spread over the whole run give a
/// median that one spell does not decide.
void campaign_loop(OmegaEngine& engine, Probes& probes, Result& res,
                   std::uint64_t& expected, double seconds,
                   std::size_t min_campaigns, Loop& loop, LayerBudget* budget,
                   std::vector<double>* setup_s = nullptr) {
  loop.before = proc_now();
  const Clock::time_point start = loop.before.wall;
  Clock::time_point prev_end = start;
  while (loop.campaigns < min_campaigns ||
         seconds_between(start, Clock::now()) < seconds) {
    if (setup_s != nullptr) {
      for (int k = 0; k < 3; ++k) setup_s->push_back(engine.rebuild());
    }
    probes.new_campaign();
    auto metrics = std::make_unique<MetricsRegistry>();
    const Clock::time_point begin = Clock::now();
    if (loop.campaigns > 0) {
      loop.lag_ms_max = std::max(loop.lag_ms_max,
                                 1e3 * seconds_between(prev_end, begin));
    }
    if (budget != nullptr) pcs::obs::Tracer::instance().enable();
    const ProcSample c0 = proc_now();
    const double wall = timed_campaign(engine, res, expected, *metrics);
    const ProcSample c1 = proc_now();
    if (budget != nullptr) {
      pcs::obs::Tracer::instance().disable();
      budget->add_exact(pcs::obs::Tracer::instance().drain());
    }
    ++loop.campaigns;
    if (wall < 0.0) break;
    const std::uint64_t delivered = counter_or_zero(*metrics, "total.delivered");
    loop.delivered += delivered;
    loop.run_ms.push_back(1e3 * wall);
    loop.msgs_per_s.push_back(static_cast<double>(delivered) / wall);
    loop.cpu_s_per_mmsg.push_back((c1.cpu_s - c0.cpu_s) /
                                  (static_cast<double>(delivered) * 1e-6));
    loop.epoch_us.insert(loop.epoch_us.end(), probes.epoch_gap_us.begin(),
                         probes.epoch_gap_us.end());
    if (budget == nullptr) {
      const Clock::time_point s0 = Clock::now();
      const std::string json = metrics->to_json();
      loop.scrape_ms.push_back(1e3 * seconds_between(s0, Clock::now()));
    }
    prev_end = Clock::now();
    loop.last = std::move(metrics);
  }
  loop.after = proc_now();
}

}  // namespace

Result run_fabric_omega(const Args& args) {
  Result res;
  Probes probes;
  OmegaEngine engine(args, probes);
  std::vector<double> setup_s{engine.rebuild()};

  // One untimed campaign first: the thread pool starts lazily and pages
  // fault in on first touch, which users pay once per process.
  std::uint64_t expected = 0;
  {
    MetricsRegistry metrics;
    timed_campaign(engine, res, expected, metrics);
  }

  if (!args.trace) {
    Loop loop;
    campaign_loop(engine, probes, res, expected, args.seconds, 2, loop, nullptr,
                  &setup_s);
    EndToEnd e;
    e.msgs_per_s = median(loop.msgs_per_s);
    e.cpu_s_per_mmsg = median(loop.cpu_s_per_mmsg);
    e.reply_ms_p50 = quantile(loop.epoch_us, 0.50) * 1e-3;
    e.reply_ms_p99 = windowed_p99(loop.epoch_us) * 1e-3;
    e.setup_s = median(setup_s);
    e.peak_rss_mb = peak_rss_mb();
    emit_end_to_end(res, e);
    res.info.emplace_back("campaigns", static_cast<double>(loop.campaigns));
    res.info.emplace_back("reply_samples", static_cast<double>(loop.epoch_us.size()));
    res.info.emplace_back("setup_samples", static_cast<double>(setup_s.size()));
    return res;
  }

  PerLayer p;
  {
    const std::size_t compiles = args.tiny ? 3 : 15;
    std::vector<double> compile_ms;
    for (std::size_t k = 0; k < compiles; ++k) {
      const Clock::time_point t0 = Clock::now();
      const auto sw = pcs::make_switch(engine.node_spec());
      compile_ms.push_back(1e3 * seconds_between(t0, Clock::now()));
    }
    p.compile_ms = median(compile_ms);
  }

  // Untraced reference: the wall time the traced run is compared against,
  // and the process readings (proc.*) taken with tracing off.
  Loop plain;
  campaign_loop(engine, probes, res, expected, args.seconds / 3.0, 2, plain,
                nullptr);
  probes.traffic_calls = probes.dest_calls = 0;

  Loop traced;
  campaign_loop(engine, probes, res, expected, args.seconds, 2, traced, &p.budget);
  if (!traced.last) return res;  // the failure is already counted

  const double traced_n = static_cast<double>(traced.campaigns);
  p.traffic_calls = static_cast<double>(probes.traffic_calls) / traced_n;
  p.traffic_dest_calls = static_cast<double>(probes.dest_calls) / traced_n;
  p.epoch_us_p50 = quantile(traced.epoch_us, 0.50);
  p.epoch_us_p99 = windowed_p99(traced.epoch_us);
  p.campaign_ms_mean = mean(plain.run_ms);
  p.scrape_ms_p50 = median(plain.scrape_ms);
  const double plain_wall = seconds_between(plain.before.wall, plain.after.wall);
  p.cpu_per_wall = (plain.after.cpu_s - plain.before.cpu_s) / plain_wall;
  p.minflt_per_kmsg = static_cast<double>(plain.after.minflt - plain.before.minflt) /
                      (static_cast<double>(plain.delivered) * 1e-3);
  p.trace_overhead = mean(traced.run_ms) / mean(plain.run_ms);
  p.lag_ms_max = plain.lag_ms_max;

  const MetricsRegistry& sim = *traced.last;
  p.sim_delivered = static_cast<double>(counter_or_zero(sim, "total.delivered"));
  p.sim_dropped = static_cast<double>(counter_or_zero(sim, "total.dropped"));
  p.sim_retries = static_cast<double>(counter_or_zero(sim, "retries"));
  for (const auto& [name, c] : sim.counters()) {
    if (name.rfind("fabric.hop", 0) == 0 && name.size() > 14 &&
        name.compare(name.size() - 14, 14, ".credit_stalls") == 0) {
      p.sim_credit_stalls += static_cast<double>(c.value());
    }
  }
  const auto lat = sim.histograms().find("latency_epochs");
  p.sim_latency_epochs_mean = lat == sim.histograms().end() ? 0.0 : lat->second.mean();
  p.sim_dispatches = static_cast<double>(counter_or_zero(sim, "route_batch_dispatches"));
  emit_per_layer(res, p);
  res.info.emplace_back("traced_campaigns", traced_n);
  res.info.emplace_back("untraced_campaigns", static_cast<double>(plain.campaigns));
  res.info.emplace_back("epoch_samples", static_cast<double>(traced.epoch_us.size()));
  return res;
}

}  // namespace perfbench
