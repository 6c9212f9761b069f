// End-to-end fabric campaigns: conservation (per-epoch inside run(), plus
// the exported total.* identity), per-hop accounting, all topologies, the
// degenerate radix, a faulted middle hop, saturation, and determinism.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "fabric/fabric_config.hpp"
#include "fabric/fabric_sim.hpp"
#include "runtime/metrics.hpp"
#include "traffic/traffic_source.hpp"
#include "util/assert.hpp"

namespace pcs::fabric {
namespace {

using rt::MetricsRegistry;
using rt::RuntimeReport;

FabricSpec base_spec(Topology t, std::size_t hops, std::size_t radix) {
  FabricSpec spec;
  spec.topology = t;
  spec.hops = hops;
  spec.radix = radix;
  // Columnsort(64 -> 32): r=32, s=2, epsilon 1, guaranteed capacity 31.
  spec.node.family = "columnsort";
  spec.node.n = 64;
  spec.node.m = 32;
  spec.credits = 4;
  return spec;
}

FabricOptions fast_opts() {
  FabricOptions opts;
  opts.queue_depth = 2;
  opts.seed = 7;
  opts.warmup_epochs = 4;
  opts.measure_epochs = 24;
  opts.drain_epochs_max = 128;
  opts.check_invariants = true;  // credit mirror + allocator postconditions
  return opts;
}

FabricSim::TrafficFactory bernoulli(double p) {
  return [p](std::size_t width) -> std::unique_ptr<traffic::TrafficSource> {
    return std::make_unique<traffic::ComposedSource>(
        traffic::PatternKind::kUniform,
        std::make_unique<traffic::BernoulliProcess>(width, p), 0.125);
  };
}

std::uint64_t ctr(const MetricsRegistry& m, const std::string& name) {
  auto it = m.counters().find(name);
  return it == m.counters().end() ? 0 : it->second.value();
}

void check_conservation(const MetricsRegistry& m, const RuntimeReport& r) {
  EXPECT_EQ(ctr(m, "total.offered"),
            ctr(m, "total.delivered") + ctr(m, "total.dropped") +
                ctr(m, "total.residual"));
  EXPECT_EQ(ctr(m, "total.residual"), r.residual_backlog);
  EXPECT_EQ(r.drained, r.residual_backlog == 0);
}

void check_hop_accounting(const MetricsRegistry& m, const FabricGraph& g) {
  for (std::size_t k = 0; k < g.hops(); ++k) {
    const std::string p = "fabric.hop" + std::to_string(k) + ".";
    const auto res = m.gauges().find(p + "residual");
    ASSERT_NE(res, m.gauges().end());
    EXPECT_EQ(ctr(m, p + "accepted"),
              ctr(m, p + "sent") + ctr(m, p + "delivered") +
                  ctr(m, p + "dropped.fault") + ctr(m, p + "dropped.deflect") +
                  static_cast<std::uint64_t>(res->second.value()));
    if (k + 1 < g.hops()) {
      EXPECT_EQ(ctr(m, p + "delivered"), 0u);
    }
    if (k + 1 == g.hops()) {
      EXPECT_EQ(ctr(m, p + "sent"), 0u);
    }
  }
}

struct TopologyCase {
  Topology topology;
  std::size_t hops;
  std::size_t radix;
  std::string alloc;
};

// The test name suffix ctest shows, e.g. "omega_h3_r2_islip": stable across
// builds, unlike gtest's default byte dump of the struct.
void PrintTo(const TopologyCase& c, std::ostream* os) {
  *os << topology_name(c.topology) << "_h" << c.hops << "_r" << c.radix << "_"
      << c.alloc;
}

class AllTopologies : public ::testing::TestWithParam<TopologyCase> {};

INSTANTIATE_TEST_SUITE_P(
    Fabric, AllTopologies,
    ::testing::Values(TopologyCase{Topology::kSingle, 1, 4, "rr"},
                      TopologyCase{Topology::kOmega, 3, 2, "rr"},
                      TopologyCase{Topology::kOmega, 3, 2, "islip"},
                      TopologyCase{Topology::kButterfly, 3, 2, "rr"},
                      TopologyCase{Topology::kFatTree, 3, 2, "islip"}));

TEST_P(AllTopologies, ConservesEveryMessageEndToEnd) {
  const auto& [topo, hops, radix, alloc] = GetParam();
  FabricSpec spec = base_spec(topo, hops, radix);
  spec.alloc = alloc;
  FabricSim sim(spec, fast_opts(), bernoulli(0.6));
  MetricsRegistry metrics;
  const RuntimeReport report = sim.run(metrics);
  EXPECT_GT(ctr(metrics, "total.offered"), 0u);
  EXPECT_GT(ctr(metrics, "total.delivered"), 0u);
  check_conservation(metrics, report);
  check_hop_accounting(metrics, sim.graph());
  // Healthy fabric under a moderate load: nothing is lost to faults.
  for (std::size_t k = 0; k < sim.graph().hops(); ++k) {
    EXPECT_EQ(ctr(metrics, "fabric.hop" + std::to_string(k) + ".dropped.fault"),
              0u);
  }
}

TEST(FabricSim, DegenerateRadixOneChainDeliversEverything) {
  FabricSpec spec = base_spec(Topology::kOmega, 3, 1);
  FabricSim sim(spec, fast_opts(), bernoulli(0.8));
  MetricsRegistry metrics;
  const RuntimeReport report = sim.run(metrics);
  EXPECT_TRUE(report.drained);
  check_conservation(metrics, report);
  check_hop_accounting(metrics, sim.graph());
  // One source, one sink: no contention, so nothing can be dropped.
  EXPECT_EQ(ctr(metrics, "total.dropped"), 0u);
  EXPECT_EQ(ctr(metrics, "total.offered"), ctr(metrics, "total.delivered"));
}

TEST(FabricSim, FaultedMiddleHopAccountsEveryLoss) {
  FabricSpec spec = base_spec(Topology::kOmega, 3, 2);
  // Columnsort(64, 32) has 32-wide chips; stage 0 chip 0 covers the first
  // port block, where grant placement concentrates, so losses are guaranteed.
  spec.node.faults = {{0, 0}};
  spec.fault_hop = 1;
  FabricSim sim(spec, fast_opts(), bernoulli(0.7));
  MetricsRegistry metrics;
  const RuntimeReport report = sim.run(metrics);
  const std::uint64_t fault_drops = ctr(metrics, "fabric.hop1.dropped.fault");
  EXPECT_GT(fault_drops, 0u);
  EXPECT_EQ(ctr(metrics, "fabric.hop0.dropped.fault"), 0u);
  EXPECT_EQ(ctr(metrics, "fabric.hop2.dropped.fault"), 0u);
  // The losses are accounted, never silent: conservation still balances.
  check_conservation(metrics, report);
  check_hop_accounting(metrics, sim.graph());
  EXPECT_GE(ctr(metrics, "total.dropped"), fault_drops);
  EXPECT_TRUE(sim.name().find("faulted") != std::string::npos);
}

TEST(FabricSim, SaturatesWhenDrainCapTrips) {
  FabricSpec spec = base_spec(Topology::kOmega, 3, 2);
  spec.credits = 2;
  FabricOptions opts = fast_opts();
  opts.drain_epochs_max = 0;  // any backlog at measure end saturates
  opts.queue_depth = 8;
  FabricSim sim(spec, opts, bernoulli(1.0));
  MetricsRegistry metrics;
  const RuntimeReport report = sim.run(metrics);
  EXPECT_TRUE(report.saturated);
  EXPECT_FALSE(report.drained);
  EXPECT_EQ(report.drain_epochs_used, 0u);
  EXPECT_GT(report.residual_backlog, 0u);
  check_conservation(metrics, report);
  check_hop_accounting(metrics, sim.graph());
  EXPECT_EQ(metrics.gauges().at("saturated").value(), 1.0);
}

TEST(FabricSim, BackpressurePropagatesWhenCreditsAreTight) {
  FabricSpec spec = base_spec(Topology::kOmega, 3, 2);
  spec.credits = 1;  // single-slot pools: credit stalls are unavoidable
  FabricSim sim(spec, fast_opts(), bernoulli(1.0));
  MetricsRegistry metrics;
  const RuntimeReport report = sim.run(metrics);
  check_conservation(metrics, report);
  std::uint64_t stalls = 0;
  for (std::size_t k = 0; k + 1 < sim.graph().hops(); ++k) {
    stalls += ctr(metrics, "fabric.hop" + std::to_string(k) + ".credit_stalls");
  }
  EXPECT_GT(stalls, 0u);
}

TEST(FabricSim, DeterministicPerSeed) {
  auto run_once = [] {
    FabricSpec spec = base_spec(Topology::kButterfly, 3, 2);
    spec.alloc = "islip";
    FabricSim sim(spec, fast_opts(), bernoulli(0.5));
    MetricsRegistry metrics;
    sim.run(metrics);
    return metrics.to_json();
  };
  EXPECT_EQ(run_once(), run_once());
}

// run() starts every campaign from empty queues, full credits and fresh
// allocator pointers, so one simulator run twice produces the same registry.
// The saturated case leaves messages in flight after its first campaign; the
// contended one (two credits) moves the allocators' pointers off their start.
TEST(FabricSim, RunTwiceGivesIdenticalRegistries) {
  struct Case {
    const char* name;
    double load;
    std::size_t credits;
    std::size_t drain_epochs_max;
    const char* alloc;
  };
  const Case cases[] = {
      {"saturated rr", 0.9, 8, 0, "rr"},
      {"saturated islip", 1.0, 8, 0, "islip"},
      {"contended drained rr", 0.8, 2, 512, "rr"},
      {"contended drained islip", 0.8, 2, 512, "islip"},
  };
  for (const Case& c : cases) {
    for (const std::size_t e : {1, 4}) {
      FabricSpec spec = base_spec(Topology::kOmega, 3, 2);
      spec.credits = c.credits;
      spec.alloc = c.alloc;
      FabricOptions opts = fast_opts();
      opts.drain_epochs_max = c.drain_epochs_max;
      opts.epochs_in_flight = e;
      FabricSim sim(spec, opts, bernoulli(c.load));
      MetricsRegistry first, second;
      const RuntimeReport r1 = sim.run(first);
      const RuntimeReport r2 = sim.run(second);
      EXPECT_EQ(r1.saturated, c.drain_epochs_max == 0) << c.name;
      EXPECT_EQ(r2.residual_backlog, r1.residual_backlog) << c.name << " E=" << e;
      EXPECT_EQ(second.to_json(), first.to_json()) << c.name << " E=" << e;
    }
  }
}

TEST(FabricSim, MakeFabricSimBridgesTheRuntimeConfig) {
  rt::RuntimeConfig cfg;
  cfg.family = "columnsort";
  cfg.n = 64;
  cfg.m = 32;
  cfg.topology = "omega";
  cfg.fabric_hops = 2;
  cfg.fabric_radix = 2;
  cfg.fabric_alloc = "islip";
  cfg.fabric_credits = 3;
  cfg.warmup_epochs = 2;
  cfg.measure_epochs = 8;
  cfg.drain_epochs_max = 64;
  cfg.seed = 3;
  auto sim = make_fabric_sim(cfg, "columnsort", 0.4);
  EXPECT_EQ(sim->graph().hops(), 2u);
  EXPECT_EQ(sim->graph().spec().credits, 3u);
  EXPECT_EQ(sim->options().seed, 3u);
  MetricsRegistry metrics;
  const RuntimeReport report = sim->run(metrics);
  check_conservation(metrics, report);
  EXPECT_EQ(sim->name(), "omega(hops=2, radix=2) of columnsort(r=32,s=2,m=32)");
}

TEST(FabricSim, RejectsBadConstruction) {
  FabricSpec spec = base_spec(Topology::kOmega, 2, 2);
  FabricOptions opts = fast_opts();
  opts.queue_depth = 0;
  EXPECT_THROW(FabricSim(spec, opts, bernoulli(0.5)), ContractViolation);
  EXPECT_THROW(FabricSim(spec, fast_opts(), nullptr), ContractViolation);
  // A traffic generator of the wrong width is rejected at run().
  FabricSim sim(spec, fast_opts(), [](std::size_t) -> std::unique_ptr<traffic::TrafficSource> {
    return std::make_unique<traffic::ComposedSource>(
        traffic::PatternKind::kUniform,
        std::make_unique<traffic::BernoulliProcess>(3, 0.5), 0.125);
  });
  MetricsRegistry metrics;
  EXPECT_THROW(sim.run(metrics), ContractViolation);
}

}  // namespace
}  // namespace pcs::fabric
