#include "switch/full_sort_hyper.hpp"

#include <gtest/gtest.h>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace pcs::sw {
namespace {

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
  FullRevsortHyper sw(n);
  Rng rng(160 + n);
  for (int trial = 0; trial < 30; ++trial) {
    BitVec valid = rng.bernoulli_bits(n, rng.uniform01());
    expect_hyperconcentration(sw, valid);
    // The prescribed stage structure should suffice without the safety net.
    EXPECT_EQ(sw.extra_phases_used(), 0u) << "n=" << n << " trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FullRevsort, ::testing::Values(4, 16, 64, 256, 1024));

TEST(FullRevsort, ChipPassCountStructure) {
  // 2 per repetition + 1 + 6 + 1 (see header); reps = ceil(lg lg sqrt(n)).
  FullRevsortHyper sw256(256);  // side 16, reps = 2
  EXPECT_EQ(sw256.repetitions(), 2u);
  EXPECT_EQ(sw256.chip_passes(), 12u);
  FullRevsortHyper sw4096(4096);  // side 64, q=6, reps = ceil(lg 6) = 3
  EXPECT_EQ(sw4096.repetitions(), 3u);
  EXPECT_EQ(sw4096.chip_passes(), 14u);
}

TEST(FullRevsort, ShapeValidation) {
  EXPECT_THROW(FullRevsortHyper(32), pcs::ContractViolation);
  EXPECT_THROW(FullRevsortHyper(36), pcs::ContractViolation);
}

TEST(FullRevsort, ExtremeDensities) {
  FullRevsortHyper sw(64);
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
  FullColumnsortHyper sw(r, s);
  Rng rng(161 + r + s);
  for (int trial = 0; trial < 30; ++trial) {
    BitVec valid = rng.bernoulli_bits(r * s, rng.uniform01());
    expect_hyperconcentration(sw, valid);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, FullColumnsort,
                         ::testing::Values(Shape{8, 2}, Shape{32, 4}, Shape{64, 4},
                                           Shape{128, 8}, Shape{18, 3}));

TEST(FullColumnsort, RejectsBadShapes) {
  EXPECT_THROW(FullColumnsortHyper(16, 4), pcs::ContractViolation);  // 16 < 2*9
  EXPECT_THROW(FullColumnsortHyper(10, 4), pcs::ContractViolation);  // 4 !| 10
}

TEST(FullColumnsort, BomCountsShiftStage) {
  FullColumnsortHyper sw(32, 4);
  Bom bom = sw.bill_of_materials();
  EXPECT_EQ(bom.total_chips(), 3u * 4u + 5u);  // 3s + (s+1)
  EXPECT_EQ(FullColumnsortHyper::kChipPasses, 4u);
}

TEST(FullSortHyper, StableWithinValidOrderNotRequired) {
  // The hyperconcentrator contract fixes which *outputs* are used, not the
  // order of messages among them; this test documents that the full-sort
  // switches still deliver a consistent bijection among the first k.
  FullRevsortHyper sw(64);
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
