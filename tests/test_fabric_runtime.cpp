#include "runtime/fabric_runtime.hpp"

#include <gtest/gtest.h>

#include "plan/plan_switch.hpp"
#include "switch/make_switch.hpp"
#include "util/assert.hpp"

namespace pcs::rt {
namespace {

FabricRuntime::TrafficFactory bernoulli(std::size_t width, double p) {
  return [width, p](std::size_t) -> std::unique_ptr<traffic::TrafficSource> {
    return std::make_unique<traffic::ComposedSource>(
        traffic::PatternKind::kUniform,
        std::make_unique<traffic::BernoulliProcess>(width, p), 0.125);
  };
}

FabricRuntime::TrafficFactory exact(std::size_t width, std::size_t k) {
  return [width, k](std::size_t) -> std::unique_ptr<traffic::TrafficSource> {
    return std::make_unique<traffic::ComposedSource>(
        traffic::PatternKind::kUniform,
        std::make_unique<traffic::ExactCountProcess>(width, k), 0.125);
  };
}

RuntimeOptions small_opts(CongestionPolicy policy) {
  RuntimeOptions opts;
  opts.queue_depth = 4;
  opts.policy = policy;
  opts.lanes = 3;
  opts.seed = 11;
  opts.warmup_epochs = 8;
  opts.measure_epochs = 64;
  opts.drain_epochs_max = 256;
  opts.check_invariants = true;  // every setup cross-checked by core/invariants
  return opts;
}

TEST(FabricRuntime, IdenticalSeedsProduceIdenticalMetricsJson) {
  const plan::PlanSwitch sw(make_switch_plan({"hyper", 64, 16}));
  auto run_once = [&sw] {
    FabricRuntime runtime(sw, small_opts(CongestionPolicy::kBufferRetry),
                          bernoulli(64, 0.4));
    MetricsRegistry metrics;
    runtime.run(metrics);
    return metrics.to_json();
  };
  EXPECT_EQ(run_once(), run_once());
}

// Acceptance: at offered load within the Theorem 3 / Lemma 2 guarantee
// (k <= m - epsilon every epoch), every message is routed in the epoch it
// arrives -- delivery rate exactly 1, latency exactly 0, nothing dropped,
// queued, or backpressured.  check_invariants keeps core/invariants'
// epsilon-bound checker in the loop for every setup.
TEST(FabricRuntime, GuaranteedCapacityLoadIsLosslessAndLatencyFree) {
  // epsilon 112, capacity 80
  const plan::PlanSwitch revsort(
      make_switch_plan({"revsort", 256, 192}));
  // epsilon 9, capacity 183
  const plan::PlanSwitch columnsort(
      make_switch_plan({"columnsort", 256, 192, 0.75}));
  for (const sw::ConcentratorSwitch* sw :
       std::initializer_list<const sw::ConcentratorSwitch*>{&revsort, &columnsort}) {
    const std::size_t cap = sw->guaranteed_capacity();
    ASSERT_GT(cap, 0u) << sw->name();
    FabricRuntime runtime(*sw, small_opts(CongestionPolicy::kBufferRetry),
                          exact(sw->inputs(), cap));
    MetricsRegistry metrics;
    RuntimeReport report = runtime.run(metrics);

    EXPECT_TRUE(report.drained) << sw->name();
    EXPECT_EQ(report.residual_backlog, 0u) << sw->name();
    EXPECT_DOUBLE_EQ(metrics.gauge("delivery_rate").value(), 1.0) << sw->name();
    EXPECT_DOUBLE_EQ(metrics.gauge("mean_latency_epochs").value(), 0.0) << sw->name();
    EXPECT_EQ(metrics.counter("dropped").value(), 0u) << sw->name();
    EXPECT_EQ(metrics.counter("retries").value(), 0u) << sw->name();
    EXPECT_EQ(metrics.counter("rejected_queue_full").value(), 0u) << sw->name();
    EXPECT_EQ(metrics.histogram("latency_epochs").max(), 0u) << sw->name();
    // Every measured epoch presented exactly cap messages on every lane.
    const Histogram& presented = metrics.histogram("presented_k");
    EXPECT_EQ(presented.min(), cap) << sw->name();
    EXPECT_EQ(presented.max(), cap) << sw->name();
  }
}

// Satellite: sustained overload, arrival_p = 1.0 with k > m, for all three
// congestion policies.  Every input wire offers a message every epoch into a
// 64 -> 8 switch; conservation (enforced by the runtime's own
// PCS_REQUIRE) plus the policy-specific loss accounting must hold, and the
// bounded queues must push back.
TEST(FabricRuntime, SustainedOverloadAllPolicies) {
  const plan::PlanSwitch sw(make_switch_plan({"hyper", 64, 8}));
  for (CongestionPolicy policy :
       {CongestionPolicy::kDrop, CongestionPolicy::kBufferRetry,
        CongestionPolicy::kMisrouteRetry}) {
    RuntimeOptions opts = small_opts(policy);
    opts.queue_depth = 2;
    FabricRuntime runtime(sw, opts, bernoulli(64, 1.0));
    MetricsRegistry metrics;
    RuntimeReport report = runtime.run(metrics);
    const std::string label = policy_name(policy);

    // Per-setup service can never exceed the output count: each of the
    // route_batch dispatches resolves one setup per lane, each routing at
    // most 8 messages.
    EXPECT_LE(metrics.counter("total.delivered").value(),
              metrics.counter("route_batch_dispatches").value() * opts.lanes * 8)
        << label;

    switch (policy) {
      case CongestionPolicy::kDrop:
        // The head is consumed (delivered or dropped) every epoch, so
        // depth-2 queues never fill; losses are all explicit drops.
        EXPECT_EQ(metrics.counter("rejected_queue_full").value(), 0u) << label;
        EXPECT_GT(metrics.counter("dropped").value(), 0u) << label;
        EXPECT_LT(metrics.gauge("delivery_rate").value(), 1.0) << label;
        EXPECT_TRUE(report.drained) << label;  // drop never leaves a backlog
        break;
      case CongestionPolicy::kBufferRetry:
        // Losers hold their slots, queues fill, and the door pushes back.
        EXPECT_GT(metrics.counter("rejected_queue_full").value(), 0u) << label;
        EXPECT_EQ(metrics.counter("dropped").value(), 0u) << label;
        EXPECT_GT(metrics.counter("retries").value(), 0u) << label;
        // Every measured epoch is fully backlogged: a stable
        // hyperconcentrator serves the lowest-indexed inputs first, so
        // high-index queues starve until the drain.
        EXPECT_EQ(metrics.histogram("presented_k").min(), 64u) << label;
        break;
      case CongestionPolicy::kMisrouteRetry:
        // Losers roam to other queues, so occupancy climbs and the door
        // pushes back; with every queue saturated the re-injection
        // overflows and is an explicit, accounted drop.
        EXPECT_GT(metrics.counter("rejected_queue_full").value(), 0u) << label;
        EXPECT_GT(metrics.counter("retries").value() +
                      metrics.counter("dropped.misroute_overflow").value(),
                  0u)
            << label;
        EXPECT_EQ(metrics.counter("dropped").value(),
                  metrics.counter("dropped.misroute_overflow").value())
            << label;
        break;
    }
  }
}

TEST(FabricRuntime, SaturationDetectedWhenDrainCapTrips) {
  const plan::PlanSwitch sw(make_switch_plan({"hyper", 64, 4}));
  RuntimeOptions opts = small_opts(CongestionPolicy::kBufferRetry);
  opts.queue_depth = 8;
  opts.drain_epochs_max = 2;  // 64 wires x depth 8 cannot drain through 4
                              // outputs in 2 epochs
  FabricRuntime runtime(sw, opts, bernoulli(64, 1.0));
  MetricsRegistry metrics;
  RuntimeReport report = runtime.run(metrics);

  EXPECT_FALSE(report.drained);
  EXPECT_TRUE(report.saturated);
  EXPECT_GT(report.residual_backlog, 0u);
  EXPECT_DOUBLE_EQ(metrics.gauge("saturated").value(), 1.0);
  EXPECT_GT(metrics.gauge("backlog.residual").value(), 0.0);
}

TEST(FabricRuntime, ModerateLoadDrainsCompletely) {
  const plan::PlanSwitch sw(make_switch_plan({"hyper", 64, 16}));
  FabricRuntime runtime(sw, small_opts(CongestionPolicy::kBufferRetry),
                        bernoulli(64, 0.2));
  MetricsRegistry metrics;
  RuntimeReport report = runtime.run(metrics);
  EXPECT_TRUE(report.drained);
  EXPECT_EQ(report.residual_backlog, 0u);
  EXPECT_DOUBLE_EQ(metrics.gauge("delivery_rate").value(), 1.0);
  EXPECT_EQ(metrics.counter("epochs.measure").value(), 64u);
}

TEST(FabricRuntime, OneBatchDispatchPerEpoch) {
  const plan::PlanSwitch sw(make_switch_plan({"hyper", 32, 8}));
  RuntimeOptions opts = small_opts(CongestionPolicy::kDrop);
  FabricRuntime runtime(sw, opts, bernoulli(32, 0.3));
  MetricsRegistry metrics;
  RuntimeReport report = runtime.run(metrics);
  // warmup + measure + drain epochs each cost exactly one route_batch call.
  EXPECT_EQ(metrics.counter("route_batch_dispatches").value(),
            opts.warmup_epochs + opts.measure_epochs + report.drain_epochs_used);
}

TEST(FabricRuntime, RejectsMismatchedTrafficWidth) {
  const plan::PlanSwitch sw(make_switch_plan({"hyper", 64, 16}));
  FabricRuntime runtime(sw, small_opts(CongestionPolicy::kDrop),
                        bernoulli(32, 0.5));  // wrong width
  MetricsRegistry metrics;
  EXPECT_THROW(runtime.run(metrics), ContractViolation);
}

TEST(FabricRuntime, RejectsDegenerateOptions) {
  const plan::PlanSwitch sw(make_switch_plan({"hyper", 16, 8}));
  RuntimeOptions opts;
  opts.queue_depth = 0;
  EXPECT_THROW(FabricRuntime(sw, opts, bernoulli(16, 0.5)), ContractViolation);
  opts = RuntimeOptions{};
  opts.lanes = 0;
  EXPECT_THROW(FabricRuntime(sw, opts, bernoulli(16, 0.5)), ContractViolation);
  opts = RuntimeOptions{};
  EXPECT_THROW(FabricRuntime(sw, opts, nullptr), ContractViolation);
}

// Regression (campaign accounting): a saturated campaign's
// drain_epochs_used must count exactly the drain epochs that EXECUTED --
// equal to the epochs.drain counter and to the dispatches beyond
// warmup + measure -- not the cap, and not cap + 1.  Pinned by driving a
// switch far past its service rate so the drain cap always trips.
TEST(FabricRuntime, SaturatedDrainAccountingIsExact) {
  // capacity 4 against ~32 arrivals/epoch
  const plan::PlanSwitch sw(
      make_switch_plan({"hyper", 64, 4}));
  RuntimeOptions opts = small_opts(CongestionPolicy::kBufferRetry);
  opts.queue_depth = 64;
  opts.drain_epochs_max = 17;
  FabricRuntime runtime(sw, opts, bernoulli(64, 0.5));
  MetricsRegistry metrics;
  RuntimeReport report = runtime.run(metrics);

  ASSERT_TRUE(report.saturated);
  EXPECT_FALSE(report.drained);
  EXPECT_EQ(report.drain_epochs_used, opts.drain_epochs_max);
  EXPECT_EQ(metrics.counter("epochs.drain").value(), report.drain_epochs_used);
  // Every executed epoch is one route_batch dispatch, so the drain count
  // must also equal dispatches minus the warmup and measure epochs.
  EXPECT_EQ(metrics.counter("route_batch_dispatches").value(),
            opts.warmup_epochs + opts.measure_epochs + report.drain_epochs_used);
  EXPECT_GT(report.residual_backlog, 0u);

  // With drain_epochs_max = 0 the campaign saturates before any drain epoch
  // runs: the counter must be exactly zero (the historical off-by-one risk).
  opts.drain_epochs_max = 0;
  FabricRuntime no_drain(sw, opts, bernoulli(64, 0.5));
  MetricsRegistry m2;
  RuntimeReport r2 = no_drain.run(m2);
  ASSERT_TRUE(r2.saturated);
  EXPECT_EQ(r2.drain_epochs_used, 0u);
  EXPECT_EQ(m2.counter("epochs.drain").value(), 0u);
  EXPECT_EQ(m2.counter("route_batch_dispatches").value(),
            opts.warmup_epochs + opts.measure_epochs);
}

// Regression (campaign accounting): the residual backlog of a saturated
// campaign is an explicit counter term, so the exported document balances
// on its own:  total.offered == total.delivered + total.dropped +
// total.residual, with `residual` carrying the measured-window share.
TEST(FabricRuntime, ResidualBacklogIsAFirstClassCounter) {
  const plan::PlanSwitch sw(make_switch_plan({"hyper", 64, 4}));
  RuntimeOptions opts = small_opts(CongestionPolicy::kBufferRetry);
  opts.queue_depth = 64;
  opts.drain_epochs_max = 8;
  FabricRuntime runtime(sw, opts, bernoulli(64, 0.5));
  MetricsRegistry metrics;
  RuntimeReport report = runtime.run(metrics);

  ASSERT_TRUE(report.saturated);
  ASSERT_GT(report.residual_backlog, 0u);
  EXPECT_EQ(metrics.counter("total.residual").value(), report.residual_backlog);
  EXPECT_EQ(metrics.counter("total.offered").value(),
            metrics.counter("total.delivered").value() +
                metrics.counter("total.dropped").value() +
                metrics.counter("total.residual").value());
  // Measured-window residual is bounded by the whole-campaign residual.
  EXPECT_LE(metrics.counter("residual").value(),
            metrics.counter("total.residual").value());

  // A drained campaign exports an explicit zero, not a missing counter.
  const plan::PlanSwitch big(make_switch_plan({"hyper", 64, 64}));
  FabricRuntime drained_rt(big, small_opts(CongestionPolicy::kBufferRetry),
                           bernoulli(64, 0.2));
  MetricsRegistry m2;
  RuntimeReport r2 = drained_rt.run(m2);
  ASSERT_TRUE(r2.drained);
  EXPECT_EQ(m2.counters().count("total.residual"), 1u);
  EXPECT_EQ(m2.counter("total.residual").value(), 0u);
}

}  // namespace
}  // namespace pcs::rt
