#include "sortnet/columnsort.hpp"

#include <gtest/gtest.h>

#include "sortnet/mesh_ops.hpp"
#include "sortnet/nearsort.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace pcs::sortnet {
namespace {

TEST(Columnsort, ReshapeMatchesPaperFormula) {
  // Step 2: element at (i, j) moves to row floor((rj+i)/s), col (rj+i) mod s.
  const std::size_t r = 6, s = 3;
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < s; ++j) {
      BitMatrix m(r, s);
      m.set(i, j, true);
      BitMatrix out = cm_to_rm_reshape(m);
      std::size_t x = r * j + i;
      EXPECT_TRUE(out.get(x / s, x % s)) << "i=" << i << " j=" << j;
      EXPECT_EQ(out.count(), 1u);
    }
  }
}

TEST(Columnsort, ReshapeInverse) {
  Rng rng(50);
  for (int trial = 0; trial < 20; ++trial) {
    BitMatrix m = BitMatrix::from_row_major(rng.bernoulli_bits(48, 0.5), 12, 4);
    EXPECT_EQ(rm_to_cm_reshape(cm_to_rm_reshape(m)), m);
    EXPECT_EQ(cm_to_rm_reshape(rm_to_cm_reshape(m)), m);
  }
}

TEST(Columnsort, Algorithm2RequiresDivisibility) {
  BitMatrix bad(10, 4);
  EXPECT_THROW(columnsort_algorithm2(bad), pcs::ContractViolation);
}

TEST(Columnsort, EpsilonBoundFormula) {
  EXPECT_EQ(algorithm2_epsilon_bound(1), 0u);
  EXPECT_EQ(algorithm2_epsilon_bound(3), 4u);
  EXPECT_EQ(algorithm2_epsilon_bound(4), 9u);
  EXPECT_EQ(algorithm2_epsilon_bound(8), 49u);
}

struct Shape {
  std::size_t r, s;
};

// The test name suffix ctest shows, e.g. "r32_s4", instead of a byte dump.
void PrintTo(const Shape& shape, std::ostream* os) {
  *os << "r" << shape.r << "_s" << shape.s;
}

class ColumnsortNearsort : public ::testing::TestWithParam<Shape> {};

// Theorem 4's prerequisite: Algorithm 2 output, read row-major, is
// (s-1)^2-nearsorted.
TEST_P(ColumnsortNearsort, Algorithm2IsNearsorter) {
  const auto [r, s] = GetParam();
  const std::size_t eps = algorithm2_epsilon_bound(s);
  Rng rng(51 + r * 7 + s);
  for (int trial = 0; trial < 60; ++trial) {
    BitMatrix m =
        BitMatrix::from_row_major(rng.bernoulli_bits(r * s, rng.uniform01()), r, s);
    std::size_t count = m.count();
    columnsort_algorithm2(m);
    EXPECT_EQ(m.count(), count);
    EXPECT_LE(min_nearsort_epsilon(m.to_row_major()), eps)
        << "r=" << r << " s=" << s << " trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, ColumnsortNearsort,
                         ::testing::Values(Shape{4, 2}, Shape{8, 2}, Shape{8, 4},
                                           Shape{16, 4}, Shape{32, 4}, Shape{32, 8},
                                           Shape{64, 8}, Shape{128, 8}, Shape{9, 3},
                                           Shape{27, 3}));

TEST(Columnsort, ShapeOkPredicate) {
  EXPECT_TRUE(columnsort_shape_ok(8, 2));    // 8 >= 2*1
  EXPECT_TRUE(columnsort_shape_ok(32, 4));   // 32 >= 2*9
  EXPECT_FALSE(columnsort_shape_ok(16, 4));  // 16 < 18
  EXPECT_FALSE(columnsort_shape_ok(10, 4));  // not divisible
  EXPECT_FALSE(columnsort_shape_ok(8, 0));
}

class ColumnsortFull : public ::testing::TestWithParam<Shape> {};

// Leighton's theorem: all eight steps fully sort (column-major order)
// whenever r >= 2(s-1)^2.
TEST_P(ColumnsortFull, SortsColumnMajor) {
  const auto [r, s] = GetParam();
  ASSERT_TRUE(columnsort_shape_ok(r, s));
  Rng rng(52 + r * 13 + s);
  for (int trial = 0; trial < 40; ++trial) {
    BitMatrix m =
        BitMatrix::from_row_major(rng.bernoulli_bits(r * s, rng.uniform01()), r, s);
    std::size_t count = m.count();
    columnsort_full(m);
    EXPECT_TRUE(is_col_major_sorted(m)) << "r=" << r << " s=" << s << " trial=" << trial;
    EXPECT_EQ(m.count(), count);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, ColumnsortFull,
                         ::testing::Values(Shape{8, 2}, Shape{16, 2}, Shape{32, 4},
                                           Shape{64, 4}, Shape{128, 8}, Shape{18, 3},
                                           Shape{4, 1}));

TEST(Columnsort, ShiftSortUnshiftPreservesCount) {
  Rng rng(53);
  for (int trial = 0; trial < 20; ++trial) {
    BitMatrix m = BitMatrix::from_row_major(rng.bernoulli_bits(64, 0.5), 16, 4);
    std::size_t count = m.count();
    columnsort_shift_sort_unshift(m);
    EXPECT_EQ(m.count(), count);
  }
}

TEST(Columnsort, FullSortEdgeDensities) {
  for (double p : {0.0, 1.0}) {
    Rng rng(54);
    BitMatrix m = BitMatrix::from_row_major(rng.bernoulli_bits(64, p), 32, 2);
    columnsort_full(m);
    EXPECT_TRUE(is_col_major_sorted(m));
  }
}

}  // namespace
}  // namespace pcs::sortnet
