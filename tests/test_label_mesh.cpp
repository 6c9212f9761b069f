#include "label_mesh.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "sortnet/columnsort.hpp"
#include "sortnet/mesh_ops.hpp"
#include "util/rng.hpp"

namespace pcs::sw {
namespace {

// The central consistency property: operating on labels and projecting to
// valid bits must equal operating on the valid bits with pcs::sortnet.
// This is what lets the BitMatrix theory transfer to message routing.

LabelMesh random_mesh(std::size_t rows, std::size_t cols, double p, Rng& rng,
                      BitMatrix* bits_out) {
  BitVec valid = rng.bernoulli_bits(rows * cols, p);
  LabelMesh mesh = LabelMesh::from_row_major_valid(valid, rows, cols);
  if (bits_out) *bits_out = BitMatrix::from_row_major(valid, rows, cols);
  return mesh;
}

TEST(LabelMesh, FromRowMajorPlacesLabels) {
  BitVec valid = BitVec::from_string("100101");
  LabelMesh m = LabelMesh::from_row_major_valid(valid, 2, 3);
  EXPECT_EQ(m.get(0, 0), 0);
  EXPECT_EQ(m.get(0, 1), kIdle);
  EXPECT_EQ(m.get(1, 0), 3);
  EXPECT_EQ(m.get(1, 2), 5);
}

TEST(LabelMesh, FromColMajorPlacesLabels) {
  BitVec valid = BitVec::from_string("100101");
  LabelMesh m = LabelMesh::from_col_major_valid(valid, 2, 3);
  // Input x sits at (x % 2, x / 2): 0 -> (0,0), 3 -> (1,1), 5 -> (1,2).
  EXPECT_EQ(m.get(0, 0), 0);
  EXPECT_EQ(m.get(1, 1), 3);
  EXPECT_EQ(m.get(1, 2), 5);
  EXPECT_EQ(m.get(0, 1), kIdle);
}

TEST(LabelMesh, ConcentrateColumnsMatchesSortnet) {
  Rng rng(120);
  for (int trial = 0; trial < 30; ++trial) {
    BitMatrix bits;
    LabelMesh mesh = random_mesh(8, 8, rng.uniform01(), rng, &bits);
    mesh.concentrate_columns();
    sortnet::sort_columns(bits);
    EXPECT_EQ(mesh.valid_bits(), bits) << "trial " << trial;
  }
}

TEST(LabelMesh, ConcentrateRowsMatchesSortnet) {
  Rng rng(121);
  for (int trial = 0; trial < 30; ++trial) {
    BitMatrix bits;
    LabelMesh mesh = random_mesh(8, 8, rng.uniform01(), rng, &bits);
    mesh.concentrate_rows();
    sortnet::sort_rows(bits, sortnet::RowOrder::kOnesFirst);
    EXPECT_EQ(mesh.valid_bits(), bits);
  }
}

TEST(LabelMesh, ConcentrateRowsAlternatingMatchesSortnet) {
  Rng rng(122);
  for (int trial = 0; trial < 30; ++trial) {
    BitMatrix bits;
    LabelMesh mesh = random_mesh(8, 8, rng.uniform01(), rng, &bits);
    mesh.concentrate_rows_alternating();
    sortnet::sort_rows_alternating(bits);
    EXPECT_EQ(mesh.valid_bits(), bits);
  }
}

TEST(LabelMesh, RotateMatchesSortnet) {
  Rng rng(123);
  for (int trial = 0; trial < 20; ++trial) {
    BitMatrix bits;
    LabelMesh mesh = random_mesh(8, 8, 0.5, rng, &bits);
    mesh.rotate_rows_bit_reversed();
    sortnet::rotate_rows_bit_reversed(bits);
    EXPECT_EQ(mesh.valid_bits(), bits);
  }
}

TEST(LabelMesh, ReshapesMatchSortnet) {
  Rng rng(124);
  for (int trial = 0; trial < 20; ++trial) {
    BitMatrix bits;
    LabelMesh mesh = random_mesh(8, 4, 0.5, rng, &bits);
    mesh.cm_to_rm_reshape();
    bits = sortnet::cm_to_rm_reshape(bits);
    EXPECT_EQ(mesh.valid_bits(), bits);
    mesh.rm_to_cm_reshape();
    bits = sortnet::rm_to_cm_reshape(bits);
    EXPECT_EQ(mesh.valid_bits(), bits);
  }
}

TEST(LabelMesh, ShiftConcentrateUnshiftMatchesSortnet) {
  Rng rng(125);
  for (int trial = 0; trial < 20; ++trial) {
    BitMatrix bits;
    LabelMesh mesh = random_mesh(16, 4, rng.uniform01(), rng, &bits);
    mesh.shift_concentrate_unshift();
    sortnet::columnsort_shift_sort_unshift(bits);
    EXPECT_EQ(mesh.valid_bits(), bits) << "trial " << trial;
  }
}

TEST(LabelMesh, ConcentrationIsStable) {
  LabelMesh m(4, 1);
  m.set(1, 0, 7);
  m.set(3, 0, 2);
  m.concentrate_columns();
  EXPECT_EQ(m.get(0, 0), 7);  // earlier slot keeps priority
  EXPECT_EQ(m.get(1, 0), 2);
  EXPECT_EQ(m.get(2, 0), kIdle);
}

TEST(LabelMesh, LabelsArePreservedNotDuplicated) {
  Rng rng(126);
  BitMatrix bits;
  LabelMesh mesh = random_mesh(8, 8, 0.5, rng, &bits);
  auto count_labels = [](const LabelMesh& m) {
    std::vector<std::int32_t> seen;
    for (std::int32_t v : m.to_row_major()) {
      if (v >= 0) seen.push_back(v);
    }
    std::sort(seen.begin(), seen.end());
    return seen;
  };
  auto before = count_labels(mesh);
  mesh.concentrate_columns();
  mesh.concentrate_rows();
  mesh.rotate_rows_bit_reversed();
  mesh.concentrate_columns();
  mesh.cm_to_rm_reshape();
  mesh.rm_to_cm_reshape();
  mesh.shift_concentrate_unshift();
  EXPECT_EQ(count_labels(mesh), before);
}

}  // namespace
}  // namespace pcs::sw
