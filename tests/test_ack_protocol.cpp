#include "message/ack_protocol.hpp"

#include <gtest/gtest.h>

#include "plan/plan_switch.hpp"
#include "switch/make_switch.hpp"
#include "util/assert.hpp"

namespace pcs::msg {
namespace {

TEST(AckProtocol, LightLoadDeliversAllWithoutRetries) {
  const plan::PlanSwitch sw(make_switch_plan({"hyper", 64, 32}));
  Rng rng(370);
  AckStats stats = simulate_ack_protocol(sw, 0.05, 300, AckConfig{}, rng);
  EXPECT_GT(stats.offered, 400u);
  EXPECT_DOUBLE_EQ(stats.goodput(), 1.0);
  EXPECT_EQ(stats.gave_up, 0u);
  // Plenty of capacity: nothing is dropped, so the only transmissions are
  // duplicates caused by ack latency, which cannot happen here because the
  // first send always succeeds and the ack beats the timeout.
  EXPECT_EQ(stats.duplicates, 0u);
  EXPECT_EQ(stats.transmissions, stats.offered);
}

TEST(AckProtocol, OverloadRetriesAndStillConverges) {
  // brutal bottleneck
  const plan::PlanSwitch sw(
      make_switch_plan({"hyper", 64, 4}));
  Rng rng(371);
  AckConfig cfg;
  cfg.max_retries = 50;
  AckStats stats = simulate_ack_protocol(sw, 0.5, 400, cfg, rng);
  EXPECT_GT(stats.transmissions, stats.offered);  // retries happened
  EXPECT_GT(stats.delivered, 0u);
  EXPECT_LE(stats.delivered, stats.offered);
  EXPECT_GT(stats.mean_completion(), 1.0);  // waiting visible in latency
}

TEST(AckProtocol, SlowAcksCauseDuplicates) {
  // Ack slower than the timeout: the sender refires even though the first
  // copy got through -- the protocol's intrinsic duplicate cost.
  const plan::PlanSwitch sw(make_switch_plan({"hyper", 16, 16}));
  Rng rng(372);
  AckConfig cfg;
  cfg.ack_delay = 6;
  cfg.timeout = 2;
  AckStats stats = simulate_ack_protocol(sw, 0.3, 200, cfg, rng);
  EXPECT_GT(stats.duplicates, 0u);
  EXPECT_DOUBLE_EQ(stats.goodput(), 1.0);  // everything still arrives
}

TEST(AckProtocol, GiveUpAfterMaxRetries) {
  // Zero-capacity path for most senders: m = 1 output, many contenders,
  // tiny retry budget -- some senders must give up.
  const plan::PlanSwitch sw(make_switch_plan({"hyper", 32, 1}));
  Rng rng(373);
  AckConfig cfg;
  cfg.max_retries = 1;
  cfg.timeout = 1;
  AckStats stats = simulate_ack_protocol(sw, 0.9, 200, cfg, rng);
  EXPECT_GT(stats.gave_up, 0u);
  EXPECT_LT(stats.goodput(), 1.0);
}

TEST(AckProtocol, WorksThroughPartialConcentrator) {
  const plan::PlanSwitch sw(make_switch_plan({"revsort", 256, 128}));
  Rng rng(374);
  AckStats stats = simulate_ack_protocol(sw, 0.2, 300, AckConfig{}, rng);
  EXPECT_GT(stats.goodput(), 0.98);
  EXPECT_GE(stats.transmissions, stats.delivered + stats.duplicates);
  EXPECT_EQ(stats.gave_up, 0u);
}

TEST(AckProtocol, ConfigValidated) {
  const plan::PlanSwitch sw(make_switch_plan({"hyper", 8, 4}));
  Rng rng(375);
  AckConfig cfg;
  cfg.timeout = 0;
  EXPECT_THROW(simulate_ack_protocol(sw, 0.1, 10, cfg, rng),
               pcs::ContractViolation);
}

}  // namespace
}  // namespace pcs::msg
