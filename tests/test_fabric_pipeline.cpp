// The epoch pipeline's contract: epochs_in_flight=1 is bit-identical to the
// pre-pipeline serial loop (golden metric and trace hashes captured on the
// commit before the scheduler landed), and every epochs_in_flight > 1 run
// reproduces the serial campaign counters, gauges, and histograms exactly --
// the wavefront scheduler reorders work, never results.  Also pinned here:
// the zero-padded hop metric keys at >= 11 hops, the bounded-deflection
// accounting, and the PCS_FABRIC_EPOCHS_IN_FLIGHT resolution order.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "fabric/fabric_sim.hpp"
#include "obs/trace.hpp"
#include "runtime/metrics.hpp"
#include "traffic/traffic_source.hpp"
#include "util/assert.hpp"
#include "util/digest.hpp"
#include "util/parallel.hpp"

namespace pcs::fabric {
namespace {

using rt::MetricsRegistry;
using rt::RuntimeReport;

FabricSpec base_spec(Topology t, std::size_t hops, std::size_t radix) {
  FabricSpec spec;
  spec.topology = t;
  spec.hops = hops;
  spec.radix = radix;
  spec.node.family = "columnsort";
  spec.node.n = 64;
  spec.node.m = 32;
  spec.credits = 4;
  return spec;
}

/// epochs_in_flight is always explicit here: the fabric suite runs under
/// PCS_FABRIC_EPOCHS_IN_FLIGHT overrides in CI, and these pins must not
/// drift with the environment.
FabricOptions fast_opts(std::size_t epochs_in_flight = 1) {
  FabricOptions opts;
  opts.queue_depth = 2;
  opts.seed = 7;
  opts.warmup_epochs = 4;
  opts.measure_epochs = 24;
  opts.drain_epochs_max = 128;
  opts.check_invariants = true;
  opts.epochs_in_flight = epochs_in_flight;
  return opts;
}

FabricSim::TrafficFactory bernoulli(double p) {
  return [p](std::size_t width) -> std::unique_ptr<traffic::TrafficSource> {
    return std::make_unique<traffic::ComposedSource>(
        traffic::PatternKind::kUniform,
        std::make_unique<traffic::BernoulliProcess>(width, p), 0.125);
  };
}

std::uint64_t hash_str(const std::string& s) {
  Digest d;
  for (char c : s) d.mix_byte(static_cast<std::uint8_t>(c));
  return d.value();
}

std::uint64_t ctr(const MetricsRegistry& m, const std::string& name) {
  auto it = m.counters().find(name);
  return it == m.counters().end() ? 0 : it->second.value();
}

bool pipeline_metric(const std::string& name) {
  return name.rfind("fabric.pipeline.", 0) == 0;
}

/// Deterministic dump of every campaign metric EXCEPT the fabric.pipeline.*
/// family (which describes the schedule, not the traffic, and only exists
/// when epochs_in_flight > 1).
std::string fingerprint(const MetricsRegistry& m) {
  std::string out;
  for (const auto& [name, c] : m.counters()) {
    if (pipeline_metric(name)) continue;
    out += name + "=" + std::to_string(c.value()) + "\n";
  }
  for (const auto& [name, g] : m.gauges()) {
    if (pipeline_metric(name)) continue;
    out += name + "=" + std::to_string(g.value()) + "\n";
  }
  for (const auto& [name, h] : m.histograms()) {
    if (pipeline_metric(name)) continue;
    const auto s = h.snapshot();
    out += name + ":" + std::to_string(s.count) + "," + std::to_string(s.sum) +
           "," + std::to_string(s.min) + "," + std::to_string(s.max);
    for (const std::uint64_t b : s.buckets) out += "|" + std::to_string(b);
    out += "\n";
  }
  return out;
}

struct RunResult {
  std::string fingerprint;
  RuntimeReport report;
  std::uint64_t merged_dispatches = 0;
  std::uint64_t logical_dispatches = 0;
};

RunResult run_campaign(const FabricSpec& spec, std::size_t epochs_in_flight,
                       double load) {
  FabricSim sim(spec, fast_opts(epochs_in_flight), bernoulli(load));
  MetricsRegistry metrics;
  RunResult r;
  r.report = sim.run(metrics);
  r.fingerprint = fingerprint(metrics);
  r.merged_dispatches = ctr(metrics, "fabric.pipeline.dispatches");
  r.logical_dispatches = ctr(metrics, "route_batch_dispatches");
  return r;
}

// ---------------------------------------------------------------------------
// Serial bit-identity pins.  The three hashes below were captured from the
// commit BEFORE the pipeline scheduler existed (the plain serial epoch
// loop), over MetricsRegistry::to_json() of the full campaign.  At
// epochs_in_flight=1 the rewritten FabricSim must reproduce them exactly.
// ---------------------------------------------------------------------------

TEST(FabricPipeline, SerialMetricsMatchThePrePipelineGoldens) {
  {
    FabricSim sim(base_spec(Topology::kOmega, 3, 2), fast_opts(1),
                  bernoulli(0.6));
    MetricsRegistry m;
    sim.run(m);
    EXPECT_EQ(hash_str(m.to_json()), 0x7d4d9d1ced302871ull);
  }
  {
    FabricSpec spec = base_spec(Topology::kButterfly, 3, 2);
    spec.alloc = "islip";
    FabricSim sim(spec, fast_opts(1), bernoulli(0.5));
    MetricsRegistry m;
    sim.run(m);
    EXPECT_EQ(hash_str(m.to_json()), 0x22bfe7b4c6dee2b4ull);
  }
  {
    FabricSpec spec = base_spec(Topology::kFatTree, 3, 2);
    spec.alloc = "islip";
    spec.node.faults = {{0, 0}};
    spec.fault_hop = 1;
    FabricSim sim(spec, fast_opts(1), bernoulli(0.7));
    MetricsRegistry m;
    sim.run(m);
    EXPECT_EQ(hash_str(m.to_json()), 0xd3f3b1daab7aff71ull);
  }
}

TEST(FabricPipeline, SerialLogicalTraceIsByteIdenticalToThePrePipelineLoop) {
  const std::size_t prior = max_parallelism();
  set_max_parallelism(1);
  obs::Tracer::instance().enable(obs::ClockMode::kLogical);
  FabricSim sim(base_spec(Topology::kOmega, 3, 2), fast_opts(1),
                bernoulli(0.6));
  MetricsRegistry m;
  sim.run(m);
  obs::TraceSnapshot snap = obs::Tracer::instance().drain();
  obs::Tracer::instance().disable();
  set_max_parallelism(prior);
  EXPECT_EQ(snap.spans.size(), 476u);
  EXPECT_EQ(hash_str(obs::chrome_trace_json({snap})), 0x6c16213d7b3031b2ull);
}

// ---------------------------------------------------------------------------
// Pipelined runs must reproduce the serial campaign exactly -- counters,
// gauges, histograms, and the RuntimeReport -- for every policy, including
// the cost-reading adaptive policy (which forces the stricter wavefront
// spacing so credit reads observe serial state).
// ---------------------------------------------------------------------------

TEST(FabricPipeline, PipelinedCampaignsAreBitIdenticalToSerial) {
  struct Case {
    FabricSpec spec;
    double load;
  };
  std::vector<Case> cases;
  cases.push_back({base_spec(Topology::kOmega, 3, 2), 0.6});
  {
    FabricSpec s = base_spec(Topology::kButterfly, 3, 2);
    s.alloc = "islip";
    cases.push_back({s, 0.5});
  }
  {
    FabricSpec s = base_spec(Topology::kFatTree, 3, 2);
    s.alloc = "islip";
    s.node.faults = {{0, 0}};
    s.fault_hop = 1;
    cases.push_back({s, 0.7});
  }
  {
    // Adaptive + deflection on the fat-tree's multi-candidate first hop,
    // under credit starvation: the config most likely to expose a schedule
    // leak into routing decisions.
    FabricSpec s = base_spec(Topology::kFatTree, 3, 2);
    s.credits = 2;
    s.route = "adaptive";
    s.deflect_max = 2;
    cases.push_back({s, 1.0});
  }
  for (const Case& c : cases) {
    const RunResult serial = run_campaign(c.spec, 1, c.load);
    EXPECT_EQ(serial.merged_dispatches, 0u)
        << "serial runs must not grow pipeline metrics";
    for (const std::size_t e : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
      const RunResult piped = run_campaign(c.spec, e, c.load);
      EXPECT_EQ(piped.fingerprint, serial.fingerprint)
          << "topology=" << topology_name(c.spec.topology)
          << " route=" << c.spec.route << " epochs_in_flight=" << e;
      EXPECT_EQ(piped.report.residual_backlog, serial.report.residual_backlog);
      EXPECT_EQ(piped.report.drained, serial.report.drained);
      EXPECT_EQ(piped.report.saturated, serial.report.saturated);
      // The pipeline exists to merge dispatches: the physical dispatch count
      // never exceeds the logical one-per-hop-per-epoch count, and strictly
      // beats it for the deterministic policy (adaptive's 3-hop wavefront
      // spacing leaves nothing to merge on a 3-hop fabric).
      EXPECT_GT(piped.merged_dispatches, 0u);
      EXPECT_LE(piped.merged_dispatches, piped.logical_dispatches);
      if (c.spec.route == "deterministic") {
        EXPECT_LT(piped.merged_dispatches, piped.logical_dispatches);
      }
      EXPECT_EQ(piped.logical_dispatches, serial.logical_dispatches);
    }
  }
}

TEST(FabricPipeline, PipelinedSpansNestPerThread) {
  obs::Tracer::instance().enable(obs::ClockMode::kLogical);
  FabricSim sim(base_spec(Topology::kOmega, 3, 2), fast_opts(4),
                bernoulli(0.6));
  MetricsRegistry m;
  sim.run(m);
  obs::TraceSnapshot snap = obs::Tracer::instance().drain();
  obs::Tracer::instance().disable();
  ASSERT_GT(snap.spans.size(), 0u);
  // Spans on one thread must form a laminar family (properly nested or
  // disjoint): a partial overlap would mean a span outlived its parent.
  for (std::size_t i = 0; i < snap.spans.size(); ++i) {
    for (std::size_t j = i + 1; j < snap.spans.size(); ++j) {
      const auto& a = snap.spans[i];
      const auto& b = snap.spans[j];
      if (a.tid != b.tid) continue;
      const bool disjoint = a.end <= b.begin || b.end <= a.begin;
      const bool a_in_b = b.begin <= a.begin && a.end <= b.end;
      const bool b_in_a = a.begin <= b.begin && b.end <= a.end;
      ASSERT_TRUE(disjoint || a_in_b || b_in_a)
          << a.name << " [" << a.begin << "," << a.end << ") overlaps "
          << b.name << " [" << b.begin << "," << b.end << ")";
    }
  }
}

// ---------------------------------------------------------------------------
// Hop metric keys: scrapes sort metrics lexicographically, so fabrics deep
// enough for two-digit hops zero-pad the index ("hop02" < "hop11"); shallow
// fabrics keep the legacy single-digit names so existing dashboards and the
// golden hashes above never move.
// ---------------------------------------------------------------------------

TEST(FabricPipeline, DeepFabricZeroPadsHopKeysSoScrapesSortNumerically) {
  // Radix-1 omega: one node per hop, so 12 hops stay cheap.
  FabricSpec spec = base_spec(Topology::kOmega, 12, 1);
  FabricSim sim(spec, fast_opts(1), bernoulli(0.8));
  MetricsRegistry metrics;
  sim.run(metrics);
  EXPECT_EQ(ctr(metrics, "fabric.hop2.accepted"), 0u)
      << "deep fabrics must not emit unpadded keys";
  std::vector<std::string> hops;
  for (const auto& [name, c] : metrics.counters()) {
    if (name.rfind("fabric.hop", 0) == 0 &&
        name.find(".accepted") != std::string::npos) {
      hops.push_back(name);
    }
  }
  // counters() is an ordered map: lexicographic iteration IS scrape order,
  // and with zero-padding it is also numeric hop order.
  ASSERT_EQ(hops.size(), 12u);
  for (std::size_t k = 0; k < hops.size(); ++k) {
    const std::string want =
        "fabric.hop" + std::string(k < 10 ? "0" : "") + std::to_string(k) +
        ".accepted";
    EXPECT_EQ(hops[k], want);
  }
}

TEST(FabricPipeline, ShallowFabricKeepsLegacySingleDigitHopKeys) {
  FabricSim sim(base_spec(Topology::kOmega, 3, 2), fast_opts(1),
                bernoulli(0.6));
  MetricsRegistry metrics;
  sim.run(metrics);
  EXPECT_GT(ctr(metrics, "fabric.hop0.accepted"), 0u);
  EXPECT_EQ(metrics.counters().count("fabric.hop00.accepted"), 0u);
}

// ---------------------------------------------------------------------------
// Bounded deflection: misroutes are accounted (fabric.hop<k>.deflections and
// the dropped.deflect reclaim path), conservation holds, and the whole path
// is deterministic per seed.
// ---------------------------------------------------------------------------

TEST(FabricPipeline, DeflectionPathConservesAndStaysDeterministic) {
  FabricSpec spec = base_spec(Topology::kFatTree, 3, 2);
  spec.credits = 1;  // single-slot pools starve candidates constantly
  spec.route = "adaptive";
  spec.deflect_max = 2;
  auto run_once = [&](std::size_t e) {
    FabricSim sim(spec, fast_opts(e), bernoulli(1.0));
    MetricsRegistry metrics;
    const RuntimeReport report = sim.run(metrics);
    EXPECT_EQ(ctr(metrics, "total.offered"),
              ctr(metrics, "total.delivered") + ctr(metrics, "total.dropped") +
                  ctr(metrics, "total.residual"));
    EXPECT_EQ(report.residual_backlog, ctr(metrics, "total.residual"));
    std::uint64_t deflections = 0;
    for (std::size_t k = 0; k < sim.graph().hops(); ++k) {
      deflections +=
          ctr(metrics, "fabric.hop" + std::to_string(k) + ".deflections");
    }
    EXPECT_GT(deflections, 0u) << "starved fat-tree hop0 must deflect";
    return fingerprint(metrics);
  };
  const std::string serial = run_once(1);
  EXPECT_EQ(run_once(1), serial);  // deterministic per seed
  EXPECT_EQ(run_once(5), serial);  // and schedule-independent
}

// ---------------------------------------------------------------------------
// Option resolution: explicit FabricOptions.epochs_in_flight wins; 0 defers
// to PCS_FABRIC_EPOCHS_IN_FLIGHT; no env means the serial default of 1.
// ---------------------------------------------------------------------------

class EpochsInFlightEnv : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* prior = std::getenv("PCS_FABRIC_EPOCHS_IN_FLIGHT");
    had_prior_ = prior != nullptr;
    if (had_prior_) prior_ = prior;
    ::unsetenv("PCS_FABRIC_EPOCHS_IN_FLIGHT");
  }
  void TearDown() override {
    if (had_prior_) {
      ::setenv("PCS_FABRIC_EPOCHS_IN_FLIGHT", prior_.c_str(), 1);
    } else {
      ::unsetenv("PCS_FABRIC_EPOCHS_IN_FLIGHT");
    }
  }

  static std::size_t resolved(std::size_t opt_value) {
    FabricOptions opts = fast_opts(opt_value);
    FabricSim sim(base_spec(Topology::kOmega, 3, 2), opts, bernoulli(0.5));
    return sim.epochs_in_flight();
  }

 private:
  bool had_prior_ = false;
  std::string prior_;
};

TEST_F(EpochsInFlightEnv, ZeroDefersToTheEnvironment) {
  EXPECT_EQ(resolved(0), 1u);  // no env -> serial
  ::setenv("PCS_FABRIC_EPOCHS_IN_FLIGHT", "4", 1);
  EXPECT_EQ(resolved(0), 4u);
  EXPECT_EQ(resolved(2), 2u);  // explicit option beats the env
  EXPECT_EQ(resolved(1), 1u);
}

TEST_F(EpochsInFlightEnv, RejectsAnUnusableEnvValue) {
  ::setenv("PCS_FABRIC_EPOCHS_IN_FLIGHT", "0", 1);
  EXPECT_THROW(resolved(0), ContractViolation);
  ::setenv("PCS_FABRIC_EPOCHS_IN_FLIGHT", "5000", 1);
  EXPECT_THROW(resolved(0), ContractViolation);
  ::setenv("PCS_FABRIC_EPOCHS_IN_FLIGHT", "many", 1);
  EXPECT_THROW(resolved(0), ContractViolation);
}

}  // namespace
}  // namespace pcs::fabric
