#include "core/epsilon_stats.hpp"

#include <gtest/gtest.h>

#include "plan/plan_switch.hpp"
#include "switch/make_switch.hpp"
#include "util/assert.hpp"

namespace pcs::core {
namespace {

TEST(EpsilonStats, PercentilesOrdered) {
  const plan::PlanSwitch sw(make_switch_plan({"revsort", 256, 256}));
  Rng rng(320);
  EpsilonStats s = collect_epsilon_stats(sw, 200, 0.5, rng);
  EXPECT_EQ(s.samples, 200u);
  EXPECT_LE(s.min, s.p50);
  EXPECT_LE(s.p50, s.p90);
  EXPECT_LE(s.p90, s.p99);
  EXPECT_LE(s.p99, s.max);
  EXPECT_GE(s.mean, static_cast<double>(s.min));
  EXPECT_LE(s.mean, static_cast<double>(s.max));
}

TEST(EpsilonStats, HyperIsAlwaysZero) {
  const plan::PlanSwitch sw(make_switch_plan({"hyper", 64, 64}));
  Rng rng(321);
  EpsilonStats s = collect_epsilon_stats(sw, 100, 0.5, rng);
  EXPECT_EQ(s.max, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(EpsilonStats, MaxWithinTheoremBound) {
  const plan::PlanSwitch sw(
      make_switch_plan({.family = "columnsort", .m = 512, .r = 64, .s = 8}));
  Rng rng(322);
  for (double d : {0.2, 0.5, 0.8}) {
    EpsilonStats s = collect_epsilon_stats(sw, 150, d, rng);
    EXPECT_LE(s.max, sw.epsilon_bound()) << "density " << d;
  }
}

TEST(EpsilonStats, SweepReturnsOnePerDensity) {
  const plan::PlanSwitch sw(make_switch_plan({"revsort", 64, 64}));
  Rng rng(323);
  auto sweep = epsilon_stats_sweep(sw, 50, {0.1, 0.5, 0.9}, rng);
  ASSERT_EQ(sweep.size(), 3u);
  EXPECT_DOUBLE_EQ(sweep[0].density, 0.1);
  EXPECT_DOUBLE_EQ(sweep[2].density, 0.9);
}

TEST(EpsilonStats, ExtremeDensitiesNearlySorted) {
  // Nearly-empty and nearly-full meshes are almost sorted already.
  const plan::PlanSwitch sw(make_switch_plan({"revsort", 256, 256}));
  Rng rng(324);
  EpsilonStats sparse = collect_epsilon_stats(sw, 100, 0.02, rng);
  EpsilonStats half = collect_epsilon_stats(sw, 100, 0.5, rng);
  EXPECT_LT(sparse.mean, half.mean);
}

TEST(EpsilonStats, TrialsValidated) {
  const plan::PlanSwitch sw(make_switch_plan({"hyper", 16, 16}));
  Rng rng(325);
  EXPECT_THROW(collect_epsilon_stats(sw, 0, 0.5, rng), pcs::ContractViolation);
}

}  // namespace
}  // namespace pcs::core
