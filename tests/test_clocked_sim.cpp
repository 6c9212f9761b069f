#include "message/clocked_sim.hpp"

#include <gtest/gtest.h>

#include "plan/plan_switch.hpp"
#include "switch/make_switch.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace pcs::msg {
namespace {

TEST(ClockedSim, PayloadsRideEstablishedPaths) {
  const plan::PlanSwitch sw(make_switch_plan({"hyper", 8, 8}));
  Rng rng(190);
  MessageBatch batch = random_batch(BitVec::from_string("01100101"), 12, 2, rng);
  ClockedSimResult result = run_clocked(sw, batch);
  EXPECT_EQ(result.cycles, 13u);  // setup + 12 payload cycles
  EXPECT_EQ(result.delivered.size(), 4u);
  EXPECT_TRUE(result.congested.empty());
  EXPECT_TRUE(result.payloads_intact(batch));
  // Stable hyperconcentration: sources appear on outputs in input order.
  EXPECT_EQ(result.delivered[0].observed.source, 1u);
  EXPECT_EQ(result.delivered[0].output_wire, 0u);
  EXPECT_EQ(result.delivered[3].observed.source, 7u);
}

TEST(ClockedSim, CongestedMessagesReported) {
  const plan::PlanSwitch sw(make_switch_plan({"hyper", 8, 2}));
  Rng rng(191);
  MessageBatch batch = random_batch(BitVec(8, true), 4, 2, rng);
  ClockedSimResult result = run_clocked(sw, batch);
  EXPECT_EQ(result.delivered.size(), 2u);
  EXPECT_EQ(result.congested.size(), 6u);
  EXPECT_TRUE(result.payloads_intact(batch));
}

TEST(ClockedSim, ThroughMultichipSwitches) {
  Rng rng(192);
  const plan::PlanSwitch rev(make_switch_plan({"revsort", 64, 48}));
  const plan::PlanSwitch col(
      make_switch_plan({.family = "columnsort", .m = 48, .r = 16, .s = 4}));
  for (const pcs::sw::ConcentratorSwitch* sw :
       std::initializer_list<const pcs::sw::ConcentratorSwitch*>{&rev, &col}) {
    for (int trial = 0; trial < 10; ++trial) {
      BitVec valid = rng.bernoulli_bits(64, 0.4);
      MessageBatch batch = random_batch(valid, 20, 8, rng);
      ClockedSimResult result = run_clocked(*sw, batch);
      EXPECT_TRUE(result.payloads_intact(batch)) << sw->name();
      EXPECT_EQ(result.delivered.size() + result.congested.size(), valid.count());
      // Delivered messages occupy distinct outputs.
      std::vector<bool> used(sw->outputs(), false);
      for (const Delivery& d : result.delivered) {
        EXPECT_FALSE(used[d.output_wire]);
        used[d.output_wire] = true;
      }
    }
  }
}

TEST(ClockedSim, EmptyBatchIsFine) {
  const plan::PlanSwitch sw(make_switch_plan({"hyper", 4, 4}));
  MessageBatch batch(4);
  ClockedSimResult result = run_clocked(sw, batch);
  EXPECT_TRUE(result.delivered.empty());
  EXPECT_TRUE(result.congested.empty());
  EXPECT_EQ(result.cycles, 1u);  // setup only
}

TEST(ClockedSim, MixedPayloadLengthsRejected) {
  const plan::PlanSwitch sw(make_switch_plan({"hyper", 4, 4}));
  MessageBatch batch(4);
  Message a;
  a.source = 0;
  a.payload = BitVec(4);
  Message b;
  b.source = 1;
  b.payload = BitVec(5);
  batch.add(a);
  batch.add(b);
  EXPECT_THROW(run_clocked(sw, batch), pcs::ContractViolation);
}

TEST(ClockedSim, WidthMismatchRejected) {
  const plan::PlanSwitch sw(make_switch_plan({"hyper", 4, 4}));
  MessageBatch batch(5);
  EXPECT_THROW(run_clocked(sw, batch), pcs::ContractViolation);
}

}  // namespace
}  // namespace pcs::msg
