#include "core/adversary.hpp"
#include "plan/plan_switch.hpp"
#include "switch/make_switch.hpp"

#include <gtest/gtest.h>


namespace pcs::core {
namespace {

TEST(Adversary, MeasuredEpsilonZeroForHyper) {
  const plan::PlanSwitch sw(make_switch_plan({"hyper", 32, 32}));
  Rng rng(250);
  WorstCase wc = worst_epsilon_search(sw, 20, 50, rng);
  EXPECT_EQ(wc.epsilon, 0u);
  EXPECT_GT(wc.trials, 0u);
}

TEST(Adversary, WorstCaseRespectsTheoremBounds) {
  Rng rng(251);
  const plan::PlanSwitch rev(make_switch_plan({"revsort", 256, 256}));
  WorstCase wrev = worst_epsilon_search(rev, 30, 100, rng);
  EXPECT_LE(wrev.epsilon, rev.epsilon_bound());

  const plan::PlanSwitch col(
      make_switch_plan({.family = "columnsort", .m = 512, .r = 64, .s = 8}));
  WorstCase wcol = worst_epsilon_search(col, 30, 100, rng);
  EXPECT_LE(wcol.epsilon, col.epsilon_bound());
}

TEST(Adversary, FindsNonTrivialEpsilonOnPartialConcentrators) {
  // The search should exhibit *some* nonsortedness for the Columnsort
  // switch with s > 1 (epsilon bound (s-1)^2 > 0 is achievable in spirit).
  Rng rng(252);
  const plan::PlanSwitch col(
      make_switch_plan({.family = "columnsort", .m = 512, .r = 64, .s = 8}));
  WorstCase wc = worst_epsilon_search(col, 40, 200, rng);
  EXPECT_GT(wc.epsilon, 0u);
  // The recorded pattern reproduces the recorded epsilon.
  EXPECT_EQ(measured_epsilon(col, wc.pattern), wc.epsilon);
  EXPECT_EQ(wc.pattern.count(), wc.k);
}

TEST(Adversary, DeterministicUnderSeed) {
  const plan::PlanSwitch sw(make_switch_plan({"revsort", 64, 64}));
  Rng a(253), b(253);
  WorstCase wa = worst_epsilon_search(sw, 10, 30, a);
  WorstCase wb = worst_epsilon_search(sw, 10, 30, b);
  EXPECT_EQ(wa.epsilon, wb.epsilon);
  EXPECT_EQ(wa.pattern, wb.pattern);
}

}  // namespace
}  // namespace pcs::core
