// The full-sorting multichip hyperconcentrators of Section 6 as
// make_switch builds them.
#include <gtest/gtest.h>

#include "plan/plan_switch.hpp"
#include "switch/make_switch.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace pcs::sw {
namespace {

plan::PlanSwitch full_revsort(std::size_t n) {
  return plan::PlanSwitch(make_switch_plan({"full-revsort", n}));
}

SwitchSpec full_columnsort_spec(std::size_t r, std::size_t s) {
  return {.family = "full-columnsort", .r = r, .s = s};
}

/// Repetitions of the Revsort stack pair: one shifter stage of `side` chips
/// each.
std::size_t repetitions(const plan::SwitchPlan& p) {
  return p.shifter_count() / p.stages[0].chips;
}

// A hyperconcentrator must route its k valid inputs to its *first* k
// outputs for every input pattern.
void expect_hyperconcentration(const ConcentratorSwitch& sw, const BitVec& valid) {
  SwitchRouting r = sw.route(valid);
  const std::size_t k = valid.count();
  EXPECT_TRUE(r.is_partial_injection());
  EXPECT_EQ(r.routed_count(), k);
  for (std::size_t j = 0; j < sw.outputs(); ++j) {
    EXPECT_EQ(r.input_of_output[j] >= 0, j < k) << "output " << j;
  }
}

class FullRevsort : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FullRevsort, FullySortsAllDensities) {
  const std::size_t n = GetParam();
  const plan::PlanSwitch sw = full_revsort(n);
  Rng rng(160 + n);
  for (int trial = 0; trial < 30; ++trial) {
    BitVec valid = rng.bernoulli_bits(n, rng.uniform01());
    expect_hyperconcentration(sw, valid);
    // The prescribed stage structure should suffice without the safety net.
    EXPECT_EQ(sw.executor().extra_phases_used(), 0u)
        << "n=" << n << " trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FullRevsort, ::testing::Values(4, 16, 64, 256, 1024));

TEST(FullRevsort, ChipPassCountStructure) {
  // 2 per repetition + 1 + 6 + 1 (see header); reps = ceil(lg lg sqrt(n)).
  // side 16, reps = 2
  const plan::SwitchPlan p256 = make_switch_plan({"full-revsort", 256});
  EXPECT_EQ(repetitions(p256), 2u);
  EXPECT_EQ(p256.chip_passes(), 12u);
  // side 64, q=6, reps = ceil(lg 6) = 3
  const plan::SwitchPlan p4096 = make_switch_plan({"full-revsort", 4096});
  EXPECT_EQ(repetitions(p4096), 3u);
  EXPECT_EQ(p4096.chip_passes(), 14u);
}

TEST(FullRevsort, ShapeValidation) {
  EXPECT_THROW(make_switch({"full-revsort", 32}), pcs::ContractViolation);
  EXPECT_THROW(make_switch({"full-revsort", 36}), pcs::ContractViolation);
}

TEST(FullRevsort, ExtremeDensities) {
  const plan::PlanSwitch sw = full_revsort(64);
  expect_hyperconcentration(sw, BitVec(64));
  expect_hyperconcentration(sw, BitVec(64, true));
  BitVec one(64);
  one.set(63, true);
  expect_hyperconcentration(sw, one);
}

struct Shape {
  std::size_t r, s;
};

// The test name suffix ctest shows, e.g. "r32_s4", instead of a byte dump.
void PrintTo(const Shape& shape, std::ostream* os) {
  *os << "r" << shape.r << "_s" << shape.s;
}

class FullColumnsort : public ::testing::TestWithParam<Shape> {};

TEST_P(FullColumnsort, FullySortsAllDensities) {
  const auto [r, s] = GetParam();
  const auto sw = make_switch(full_columnsort_spec(r, s));
  Rng rng(161 + r + s);
  for (int trial = 0; trial < 30; ++trial) {
    BitVec valid = rng.bernoulli_bits(r * s, rng.uniform01());
    expect_hyperconcentration(*sw, valid);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, FullColumnsort,
                         ::testing::Values(Shape{8, 2}, Shape{32, 4}, Shape{64, 4},
                                           Shape{128, 8}, Shape{18, 3}));

TEST(FullColumnsort, RejectsBadShapes) {
  EXPECT_THROW(make_switch(full_columnsort_spec(16, 4)),
               pcs::ContractViolation);  // 16 < 2*9
  EXPECT_THROW(make_switch(full_columnsort_spec(10, 4)),
               pcs::ContractViolation);  // 4 !| 10
}

TEST(FullColumnsort, BomCountsShiftStage) {
  const plan::SwitchPlan p = make_switch_plan(full_columnsort_spec(32, 4));
  EXPECT_EQ(p.chip_count(), 3u * 4u + 5u);  // 3s + (s+1)
  EXPECT_EQ(p.chip_passes(), 4u);
}

TEST(FullSortHyper, StableWithinValidOrderNotRequired) {
  // The hyperconcentrator contract fixes which *outputs* are used, not the
  // order of messages among them; this test documents that the full-sort
  // switches still deliver a consistent bijection among the first k.
  const plan::PlanSwitch sw = full_revsort(64);
  Rng rng(162);
  BitVec valid = rng.bernoulli_bits(64, 0.5);
  SwitchRouting r = sw.route(valid);
  std::vector<bool> seen(64, false);
  for (std::size_t j = 0; j < valid.count(); ++j) {
    std::int32_t src = r.input_of_output[j];
    ASSERT_GE(src, 0);
    EXPECT_TRUE(valid.get(static_cast<std::size_t>(src)));
    EXPECT_FALSE(seen[static_cast<std::size_t>(src)]);
    seen[static_cast<std::size_t>(src)] = true;
  }
}

}  // namespace
}  // namespace pcs::sw
