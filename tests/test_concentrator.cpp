#include "switch/concentrator.hpp"

#include <gtest/gtest.h>

#include "plan/plan_switch.hpp"
#include "switch/make_switch.hpp"
#include "switch/prefix_butterfly_switch.hpp"
#include "util/rng.hpp"

namespace pcs::sw {
namespace {

TEST(SwitchRouting, PartialInjectionChecks) {
  SwitchRouting r;
  r.output_of_input = {0, -1, 1};
  r.input_of_output = {0, 2};
  EXPECT_TRUE(r.is_partial_injection());
  EXPECT_EQ(r.routed_count(), 2u);

  r.input_of_output = {0, 0};  // output 1 claims input 0 too
  EXPECT_FALSE(r.is_partial_injection());

  r.output_of_input = {5, -1, 1};  // out of range
  r.input_of_output = {0, 2};
  EXPECT_FALSE(r.is_partial_injection());
}

TEST(ConcentratorSwitch, LoadRatioFromEpsilon) {
  const plan::PlanSwitch sw(make_switch_plan({"hyper", 16, 8}));
  EXPECT_DOUBLE_EQ(sw.load_ratio_bound(), 1.0);
  EXPECT_EQ(sw.guaranteed_capacity(), 8u);
}

TEST(ConcentratorSwitch, ContractCheckerOnPerfectSwitch) {
  const plan::PlanSwitch sw(make_switch_plan({"hyper", 16, 8}));
  Rng rng(130);
  for (std::size_t k = 0; k <= 16; ++k) {
    BitVec valid = rng.exact_weight_bits(16, k);
    SwitchRouting r = sw.route(valid);
    EXPECT_TRUE(concentration_contract_holds(sw, valid, r)) << "k=" << k;
    // The perfect switch routes exactly min(k, m).
    EXPECT_EQ(r.routed_count(), std::min<std::size_t>(k, 8));
  }
}

TEST(ConcentratorSwitch, HyperSwitchNameAndBom) {
  const plan::PlanSwitch sw(make_switch_plan({"hyper", 16, 8}));
  EXPECT_EQ(sw.name(), "hyperconcentrator(16,8)");
  EXPECT_EQ(sw.plan().chip_count(), 1u);
  EXPECT_EQ(sw.plan().max_pins_per_chip(), 32u);  // 2n data pins
  EXPECT_EQ(sw.plan().area_2d(), 256u);           // one chip, no links
}

TEST(ConcentratorSwitch, HyperSwitchRoutesToFirstOutputsOnly) {
  const plan::PlanSwitch sw(make_switch_plan({"hyper", 8, 4}));
  SwitchRouting r = sw.route(BitVec::from_string("00111100"));
  // Inputs 2,3,4,5 valid; only the first 4 outputs exist; all routed.
  EXPECT_EQ(r.routed_count(), 4u);
  EXPECT_EQ(r.input_of_output[0], 2);
  EXPECT_EQ(r.input_of_output[3], 5);
  // A fifth message would be congested:
  SwitchRouting r2 = sw.route(BitVec::from_string("00111110"));
  EXPECT_EQ(r2.routed_count(), 4u);
  EXPECT_EQ(r2.output_of_input[6], -1);
  EXPECT_TRUE(concentration_contract_holds(sw, BitVec::from_string("00111110"), r2));
}


TEST(ConcentratorSwitch, PrefixButterflyAdapterMatchesHyperSwitch) {
  PrefixButterflyHyperSwitch pb(32, 16);
  const plan::PlanSwitch hs(make_switch_plan({"hyper", 32, 16}));
  Rng rng(131);
  for (int t = 0; t < 25; ++t) {
    BitVec valid = rng.bernoulli_bits(32, rng.uniform01());
    SwitchRouting a = pb.route(valid);
    SwitchRouting b = hs.route(valid);
    EXPECT_EQ(a.output_of_input, b.output_of_input);
    EXPECT_EQ(pb.nearsorted_valid_bits(valid), hs.nearsorted_valid_bits(valid));
    EXPECT_TRUE(concentration_contract_holds(pb, valid, a));
  }
  EXPECT_EQ(pb.name(), "prefix-butterfly(32,16)");
  EXPECT_EQ(pb.fabric().prefix_steps(), 5u);
}

}  // namespace
}  // namespace pcs::sw
