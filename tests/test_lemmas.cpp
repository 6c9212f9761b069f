#include "core/lemmas.hpp"

#include <gtest/gtest.h>

#include "plan/plan_switch.hpp"
#include "sortnet/nearsort.hpp"
#include "switch/make_switch.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace pcs::core {
namespace {

TEST(Lemma1, RoundtripOnRandomSequences) {
  Rng rng(240);
  for (int trial = 0; trial < 300; ++trial) {
    std::size_t n = 1 + rng.below(128);
    BitVec v = rng.bernoulli_bits(n, rng.uniform01());
    EXPECT_TRUE(lemma1_roundtrip(v)) << v.to_string();
  }
}

TEST(Lemma1, RoundtripOnStructuredSequences) {
  EXPECT_TRUE(lemma1_roundtrip(BitVec::from_string("111000")));
  EXPECT_TRUE(lemma1_roundtrip(BitVec::from_string("000111")));
  EXPECT_TRUE(lemma1_roundtrip(BitVec::from_string("101010")));
  EXPECT_TRUE(lemma1_roundtrip(BitVec(17, true)));
  EXPECT_TRUE(lemma1_roundtrip(BitVec(17)));
  EXPECT_TRUE(lemma1_roundtrip(BitVec()));
}

TEST(Lemma2, HoldsForMultichipSwitches) {
  Rng rng(241);
  const plan::PlanSwitch rev(make_switch_plan({"revsort", 256, 192}));
  const plan::PlanSwitch col(
      make_switch_plan({.family = "columnsort", .m = 192, .r = 64, .s = 4}));
  for (const pcs::sw::ConcentratorSwitch* sw :
       std::initializer_list<const pcs::sw::ConcentratorSwitch*>{&rev, &col}) {
    for (int trial = 0; trial < 60; ++trial) {
      BitVec valid = rng.bernoulli_bits(256, rng.uniform01());
      Lemma2Check check = check_lemma2(*sw, valid);
      EXPECT_TRUE(check.holds) << sw->name() << ": " << check.detail;
    }
  }
}

TEST(Lemma2, HyperconcentratorHasZeroEpsilon) {
  const plan::PlanSwitch sw(make_switch_plan({"hyper", 32, 16}));
  Rng rng(242);
  for (int trial = 0; trial < 20; ++trial) {
    BitVec valid = rng.bernoulli_bits(32, 0.5);
    Lemma2Check check = check_lemma2(sw, valid);
    EXPECT_EQ(check.measured_epsilon, 0u);
    EXPECT_TRUE(check.holds);
  }
}

TEST(Figure2, ArrangementNotNearsortedUnderPremise) {
  // n = 64, m = 32, epsilon = 4, k = 30 > m - epsilon = 28;
  // premise: k + eps = 34 < (n + m)/2 = 48.
  ASSERT_TRUE(figure2_premise(64, 32, 4, 30));
  BitVec arrangement = figure2_arrangement(64, 32, 4, 30);
  EXPECT_EQ(arrangement.count(), 30u);
  EXPECT_FALSE(sortnet::is_nearsorted(arrangement, 4));
  // Yet it is a legal partial-concentrator output: m - epsilon = 28 of the
  // first m = 32 positions carry messages.
  std::size_t in_first_m = 0;
  for (std::size_t i = 0; i < 32; ++i) in_first_m += arrangement.get(i);
  EXPECT_GE(in_first_m, 28u);
}

TEST(Figure2, PremiseBoundary) {
  // When k + epsilon >= (n + m)/2 the construction can be nearsorted;
  // premise() must say so.
  EXPECT_FALSE(figure2_premise(64, 32, 4, 44));  // 48 !< 48
  EXPECT_TRUE(figure2_premise(64, 32, 4, 43));
}

TEST(Figure2, ConstructorValidation) {
  EXPECT_THROW(figure2_arrangement(64, 32, 4, 28), pcs::ContractViolation);  // k too small
  EXPECT_THROW(figure2_arrangement(64, 32, 33, 40), pcs::ContractViolation);  // eps > m
}

TEST(EpsilonBound, RespectedBySwitches) {
  Rng rng(243);
  const plan::PlanSwitch rev(make_switch_plan({"revsort", 64, 64}));
  const plan::PlanSwitch col(
      make_switch_plan({.family = "columnsort", .m = 64, .r = 16, .s = 4}));
  for (int trial = 0; trial < 40; ++trial) {
    BitVec valid = rng.bernoulli_bits(64, rng.uniform01());
    EXPECT_TRUE(epsilon_bound_respected(rev, valid));
    EXPECT_TRUE(epsilon_bound_respected(col, valid));
  }
}

}  // namespace
}  // namespace pcs::core
