// Section 1's congestion policies on the campaign engine, in the
// configuration bench_throughput's D6a table runs: one lane, one queue slot
// per input wire (so at most one message waits on a wire, and an arrival on
// a busy wire is turned away at the door), no warmup and no drain, so every
// counter covers exactly the `rounds` measured epochs and the residual is
// the backlog left when the last epoch ends.
#include <gtest/gtest.h>

#include "plan/plan_switch.hpp"
#include "runtime/config.hpp"
#include "runtime/fabric_runtime.hpp"
#include "switch/make_switch.hpp"
#include "traffic/factory.hpp"

namespace pcs::rt {
namespace {

constexpr CongestionPolicy kPolicies[] = {CongestionPolicy::kDrop,
                                          CongestionPolicy::kBufferRetry,
                                          CongestionPolicy::kMisrouteRetry};

RuntimeReport run_rounds(const sw::ConcentratorSwitch& sw, double arrival_p,
                         std::size_t rounds, CongestionPolicy policy,
                         std::uint64_t seed, MetricsRegistry& metrics) {
  RuntimeOptions opts;
  opts.queue_depth = 1;
  opts.policy = policy;
  opts.lanes = 1;
  opts.seed = seed;
  opts.warmup_epochs = 0;
  opts.measure_epochs = rounds;
  opts.drain_epochs_max = 0;
  opts.check_invariants = true;
  FabricRuntime runtime(sw, opts, [&sw, arrival_p](std::size_t) {
    traffic::TrafficSpec spec;
    spec.width = sw.inputs();
    spec.intensity = arrival_p;
    return traffic::make_source(spec);
  });
  return runtime.run(metrics);
}

std::uint64_t count(MetricsRegistry& metrics, const char* name) {
  return metrics.counter(name).value();
}

TEST(Congestion, PolicyNames) {
  EXPECT_EQ(policy_name(CongestionPolicy::kDrop), "drop");
  EXPECT_EQ(policy_name(CongestionPolicy::kBufferRetry), "buffer-retry");
  EXPECT_EQ(policy_name(CongestionPolicy::kMisrouteRetry), "misroute-retry");
  for (CongestionPolicy p : kPolicies) {
    EXPECT_EQ(policy_from_string(policy_name(p)), p) << policy_name(p);
  }
}

TEST(Congestion, LightLoadDeliversEverything) {
  // Offered load well under the switch capacity: all policies deliver all.
  const plan::PlanSwitch sw(make_switch_plan({"hyper", 64, 32}));
  for (CongestionPolicy p : kPolicies) {
    MetricsRegistry m;
    run_rounds(sw, 0.1, 200, p, 200, m);
    EXPECT_GT(count(m, "offered"), 500u);
    EXPECT_EQ(count(m, "dropped"), 0u) << policy_name(p);
    EXPECT_DOUBLE_EQ(m.gauge("delivery_rate").value(), 1.0) << policy_name(p);
  }
}

TEST(Congestion, OverloadDropsOnlyUnderDropPolicy) {
  // heavy overload: 64 wires, 8 outputs
  const plan::PlanSwitch sw(
      make_switch_plan({"hyper", 64, 8}));
  MetricsRegistry drop;
  run_rounds(sw, 0.9, 100, CongestionPolicy::kDrop, 201, drop);
  EXPECT_GT(count(drop, "dropped"), 0u);
  EXPECT_LT(drop.gauge("delivery_rate").value(), 1.0);

  MetricsRegistry retry;
  run_rounds(sw, 0.9, 100, CongestionPolicy::kBufferRetry, 201, retry);
  EXPECT_EQ(count(retry, "dropped"), 0u);
  EXPECT_GT(count(retry, "residual"), 0u);
  EXPECT_GT(retry.gauge("mean_latency_epochs").value(), 0.0);
}

TEST(Congestion, ThroughputCappedByOutputs) {
  // Delivered messages per round cannot exceed the output count.
  const plan::PlanSwitch sw(make_switch_plan({"hyper", 32, 4}));
  MetricsRegistry m;
  run_rounds(sw, 1.0, 50, CongestionPolicy::kBufferRetry, 202, m);
  EXPECT_LE(count(m, "delivered"), 50u * 4u);
  // Under saturation we should be close to the cap.
  EXPECT_GE(count(m, "delivered"), 45u * 4u);
}

TEST(Congestion, PartialConcentratorLosesOnlyBeyondCapacity) {
  // capacity 64 - 40 = 24
  const plan::PlanSwitch sw(
      make_switch_plan({"revsort", 64, 64}));
  MetricsRegistry m;
  run_rounds(sw, 0.2, 200, CongestionPolicy::kBufferRetry, 203, m);
  // 0.2 * 64 = ~13 arrivals/round < capacity 24: queue stays small and
  // everything eventually flows.
  EXPECT_GT(count(m, "delivered"), count(m, "offered") * 9 / 10);
  EXPECT_EQ(count(m, "dropped"), 0u);
}

TEST(Congestion, MisrouteKeepsMessagesAlive) {
  // With one slot per wire, a loser's own queue is empty again when it
  // re-enters, so a misrouted message always finds room and is never an
  // overflow drop.
  const plan::PlanSwitch sw(make_switch_plan({"hyper", 16, 2}));
  MetricsRegistry m;
  run_rounds(sw, 0.8, 150, CongestionPolicy::kMisrouteRetry, 204, m);
  EXPECT_EQ(count(m, "dropped"), 0u);
  EXPECT_GT(count(m, "retries"), 0u);
  // Conservation: delivered <= offered, and what's missing is backlog.
  EXPECT_LE(count(m, "delivered"), count(m, "offered"));
}

TEST(Congestion, LatencyHistogramAgreesWithScalarAggregates) {
  const plan::PlanSwitch sw(make_switch_plan({"hyper", 64, 8}));
  for (CongestionPolicy p : kPolicies) {
    MetricsRegistry m;
    run_rounds(sw, 0.6, 120, p, 206, m);
    const Histogram& latency = m.histogram("latency_epochs");
    EXPECT_EQ(latency.count(), count(m, "delivered")) << policy_name(p);
    EXPECT_DOUBLE_EQ(m.gauge("mean_latency_epochs").value(),
                     static_cast<double>(latency.sum()) /
                         static_cast<double>(latency.count()))
        << policy_name(p);
  }
}

TEST(Congestion, RetryPoliciesHaveALatencyTailUnderOverload) {
  // Under retry policies mean latency is not the whole story: the
  // histogram exposes the tail the mean hides.
  const plan::PlanSwitch sw(make_switch_plan({"hyper", 64, 4}));
  MetricsRegistry m;
  run_rounds(sw, 0.8, 150, CongestionPolicy::kBufferRetry, 207, m);
  const Histogram& latency = m.histogram("latency_epochs");
  EXPECT_EQ(latency.min(), 0u);  // some messages win on arrival
  EXPECT_GT(latency.max(), 1u);  // some message waited more than one round
  EXPECT_GT(static_cast<double>(latency.max()), latency.mean());
}

// Sustained overload at arrival_p = 1.0 with k > m.  Every free wire
// refills every round, so each round presents more messages than the
// switch has outputs; exact conservation (nothing created or destroyed
// except by explicit drop) must hold for every policy.
TEST(Congestion, SustainedOverloadConservationAllPolicies) {
  // k = 32 presented > m = 8 every round
  const plan::PlanSwitch sw(
      make_switch_plan({"hyper", 32, 8}));
  for (CongestionPolicy p : kPolicies) {
    MetricsRegistry m;
    run_rounds(sw, 1.0, 100, p, 208, m);
    EXPECT_EQ(count(m, "offered"),
              count(m, "delivered") + count(m, "dropped") + count(m, "residual"))
        << policy_name(p);
    // Throughput is output-bound: exactly m winners per saturated round.
    EXPECT_EQ(count(m, "delivered"), 100u * 8u) << policy_name(p);
    if (p == CongestionPolicy::kDrop) {
      EXPECT_EQ(count(m, "residual"), 0u);
      EXPECT_EQ(count(m, "dropped"), count(m, "offered") - count(m, "delivered"));
    } else {
      EXPECT_EQ(count(m, "dropped"), 0u);
      EXPECT_GT(count(m, "residual"), 0u);
      EXPECT_LE(count(m, "residual"), m.histogram("backlog").max());
    }
  }
}

TEST(Congestion, SustainedOverloadPartialConcentratorConservation) {
  // Same sustained overload through a real multichip partial concentrator
  // (epsilon > 0), where routed count per round can drop below m.
  // epsilon 112 > m: no guarantee at all
  const plan::PlanSwitch sw(
      make_switch_plan({"revsort", 256, 64}));
  for (CongestionPolicy p : kPolicies) {
    MetricsRegistry m;
    run_rounds(sw, 1.0, 40, p, 209, m);
    EXPECT_EQ(count(m, "offered"),
              count(m, "delivered") + count(m, "dropped") + count(m, "residual"))
        << policy_name(p);
    EXPECT_LE(count(m, "delivered"), 40u * 64u) << policy_name(p);
    EXPECT_GT(count(m, "delivered"), 0u) << policy_name(p);
  }
}

TEST(Congestion, ZeroArrivalsProduceNoTraffic) {
  const plan::PlanSwitch sw(make_switch_plan({"hyper", 16, 8}));
  MetricsRegistry m;
  run_rounds(sw, 0.0, 50, CongestionPolicy::kDrop, 205, m);
  EXPECT_EQ(count(m, "offered"), 0u);
  EXPECT_EQ(count(m, "delivered"), 0u);
  EXPECT_DOUBLE_EQ(m.gauge("delivery_rate").value(), 1.0);  // vacuous
}

}  // namespace
}  // namespace pcs::rt
