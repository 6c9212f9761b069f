// Labeled mesh: the multichip switch simulations track *which message*
// occupies each matrix position, not just its valid bit.
//
// Each slot holds the index of the switch input whose message occupies it
// (>= 0), kIdle (-1) for no message, or kPadOne (-2) for the sentinel
// "sorts-before-everything" pads Columnsort's shift step introduces.  A
// hyperconcentrator chip applied to a row or column is a *stable
// concentration*: occupied slots move to the front in order.  Projecting a
// LabelMesh to its valid bits and applying the corresponding pcs::sortnet
// operation must always agree with operating on the labels directly -- the
// tests enforce this equivalence, which is what lets the BitMatrix theory
// results transfer to actual message routing.
//
// Test-only: the substrate of the pre-plan per-family recipes in
// legacy_reference.hpp (the library routes through src/plan), built once
// into the pcs_test_oracles library for the test binaries and the fuzzer.
#pragma once

#include <cstdint>
#include <vector>

#include "util/bitmatrix.hpp"
#include "util/bitvec.hpp"

namespace pcs::sw {

inline constexpr std::int32_t kIdle = -1;
inline constexpr std::int32_t kPadOne = -2;

/// True iff the slot counts as a valid (1) bit for sorting purposes.
inline bool slot_occupied(std::int32_t s) noexcept { return s != kIdle; }

class LabelMesh {
 public:
  /// rows-by-cols mesh, all slots idle.
  LabelMesh(std::size_t rows, std::size_t cols);

  /// Build from the switch's input valid bits laid out row-major: position
  /// (i, j) holds input index i*cols + j when valid, else idle.
  static LabelMesh from_row_major_valid(const BitVec& valid, std::size_t rows,
                                        std::size_t cols);

  /// Build laying the inputs out in *column-major* order: position (i, j)
  /// holds input index j*rows + i when valid.  This is how the Columnsort
  /// switch's stage-1 chips see the input wires (chip j = column j).
  static LabelMesh from_col_major_valid(const BitVec& valid, std::size_t rows,
                                        std::size_t cols);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t size() const noexcept { return rows_ * cols_; }

  std::int32_t get(std::size_t i, std::size_t j) const;
  void set(std::size_t i, std::size_t j, std::int32_t label);

  /// Stable concentration of every column toward row 0 (a stage of
  /// column-oriented hyperconcentrator chips).
  void concentrate_columns();

  /// Stable concentration of every row toward column 0 (row-oriented chips).
  void concentrate_rows();

  /// Shearsort row phase on labels: even rows concentrate left, odd rows
  /// concentrate right (occupied slots pushed to the high columns, stably).
  void concentrate_rows_alternating();

  /// Rotate row i right by `amount` (the stage-2 barrel shifters).
  void rotate_row_right(std::size_t i, std::size_t amount);

  /// Rotate every row i right by rev(i) (bit-reversal of lg(rows) bits).
  void rotate_rows_bit_reversed();

  /// Columnsort step 2 on labels: the slot at column-major position x moves
  /// to row-major position x.
  void cm_to_rm_reshape();

  /// Columnsort step 4 on labels (inverse of cm_to_rm_reshape).
  void rm_to_cm_reshape();

  /// Columnsort steps 6-8 on labels: shift the column-major sequence down by
  /// floor(rows/2) with kPadOne before and kIdle after, concentrate the
  /// widened matrix's columns, unshift.
  void shift_concentrate_unshift();

  /// The mesh read in row-major / column-major order.
  std::vector<std::int32_t> to_row_major() const;
  std::vector<std::int32_t> to_col_major() const;

  /// Projection to valid bits (occupied = 1) for comparison with sortnet.
  BitMatrix valid_bits() const;

 private:
  std::size_t index(std::size_t i, std::size_t j) const noexcept {
    return i * cols_ + j;
  }

  std::vector<std::int32_t> slots_;
  std::size_t rows_;
  std::size_t cols_;
};

}  // namespace pcs::sw
