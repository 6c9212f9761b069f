#include "label_mesh.hpp"

#include "util/assert.hpp"
#include "util/mathutil.hpp"

namespace pcs::sw {

LabelMesh::LabelMesh(std::size_t rows, std::size_t cols)
    : slots_(rows * cols, kIdle), rows_(rows), cols_(cols) {
  PCS_REQUIRE(rows > 0 && cols > 0, "LabelMesh shape");
}

LabelMesh LabelMesh::from_row_major_valid(const BitVec& valid, std::size_t rows,
                                          std::size_t cols) {
  PCS_REQUIRE(valid.size() == rows * cols, "LabelMesh::from_row_major_valid size");
  LabelMesh m(rows, cols);
  for (std::size_t x = 0; x < valid.size(); ++x) {
    if (valid.get(x)) m.slots_[x] = static_cast<std::int32_t>(x);
  }
  return m;
}

LabelMesh LabelMesh::from_col_major_valid(const BitVec& valid, std::size_t rows,
                                          std::size_t cols) {
  PCS_REQUIRE(valid.size() == rows * cols, "LabelMesh::from_col_major_valid size");
  LabelMesh m(rows, cols);
  for (std::size_t x = 0; x < valid.size(); ++x) {
    if (valid.get(x)) {
      // Input x sits at column-major position x: row x % rows, col x / rows.
      m.slots_[m.index(x % rows, x / rows)] = static_cast<std::int32_t>(x);
    }
  }
  return m;
}

std::int32_t LabelMesh::get(std::size_t i, std::size_t j) const {
  PCS_REQUIRE(i < rows_ && j < cols_, "LabelMesh::get range");
  return slots_[index(i, j)];
}

void LabelMesh::set(std::size_t i, std::size_t j, std::int32_t label) {
  PCS_REQUIRE(i < rows_ && j < cols_, "LabelMesh::set range");
  slots_[index(i, j)] = label;
}

void LabelMesh::concentrate_columns() {
  for (std::size_t j = 0; j < cols_; ++j) {
    std::size_t write = 0;
    for (std::size_t i = 0; i < rows_; ++i) {
      std::int32_t s = slots_[index(i, j)];
      if (slot_occupied(s)) slots_[index(write++, j)] = s;
    }
    for (; write < rows_; ++write) slots_[index(write, j)] = kIdle;
  }
}

void LabelMesh::concentrate_rows() {
  for (std::size_t i = 0; i < rows_; ++i) {
    std::size_t write = 0;
    for (std::size_t j = 0; j < cols_; ++j) {
      std::int32_t s = slots_[index(i, j)];
      if (slot_occupied(s)) slots_[index(i, write++)] = s;
    }
    for (; write < cols_; ++write) slots_[index(i, write)] = kIdle;
  }
}

void LabelMesh::concentrate_rows_alternating() {
  for (std::size_t i = 0; i < rows_; ++i) {
    if (i % 2 == 0) {
      std::size_t write = 0;
      for (std::size_t j = 0; j < cols_; ++j) {
        std::int32_t s = slots_[index(i, j)];
        if (slot_occupied(s)) slots_[index(i, write++)] = s;
      }
      for (; write < cols_; ++write) slots_[index(i, write)] = kIdle;
    } else {
      // Concentrate right, preserving left-to-right order of the occupants.
      std::size_t write = cols_;
      for (std::size_t j = cols_; j-- > 0;) {
        std::int32_t s = slots_[index(i, j)];
        if (slot_occupied(s)) slots_[index(i, --write)] = s;
      }
      while (write > 0) slots_[index(i, --write)] = kIdle;
    }
  }
}

void LabelMesh::rotate_row_right(std::size_t i, std::size_t amount) {
  PCS_REQUIRE(i < rows_, "LabelMesh::rotate_row_right row");
  amount %= cols_;
  if (amount == 0) return;
  std::vector<std::int32_t> old(cols_);
  for (std::size_t j = 0; j < cols_; ++j) old[j] = slots_[index(i, j)];
  for (std::size_t j = 0; j < cols_; ++j) {
    slots_[index(i, (j + amount) % cols_)] = old[j];
  }
}

void LabelMesh::rotate_rows_bit_reversed() {
  PCS_REQUIRE(is_pow2(rows_), "LabelMesh::rotate_rows_bit_reversed rows");
  const unsigned q = exact_log2(rows_);
  for (std::size_t i = 0; i < rows_; ++i) {
    rotate_row_right(i, static_cast<std::size_t>(bit_reverse(i, q)));
  }
}

void LabelMesh::cm_to_rm_reshape() {
  std::vector<std::int32_t> cm = to_col_major();
  slots_ = std::move(cm);  // row-major storage of the column-major sequence
}

void LabelMesh::rm_to_cm_reshape() {
  std::vector<std::int32_t> rm = slots_;
  for (std::size_t x = 0; x < rm.size(); ++x) {
    slots_[index(x % rows_, x / rows_)] = rm[x];
  }
}

void LabelMesh::shift_concentrate_unshift() {
  const std::size_t r = rows_;
  const std::size_t s = cols_;
  const std::size_t shift = r / 2;
  std::vector<std::int32_t> cm = to_col_major();
  // Extended column-major sequence: pad-ones, data, idles.
  std::vector<std::int32_t> ext(shift, kPadOne);
  ext.insert(ext.end(), cm.begin(), cm.end());
  ext.resize(shift + r * s + (r - shift), kIdle);
  // Concentrate each length-r column of the widened (s+1)-column matrix.
  for (std::size_t c = 0; c <= s; ++c) {
    std::size_t base = c * r;
    std::size_t write = base;
    for (std::size_t i = base; i < base + r; ++i) {
      if (slot_occupied(ext[i])) ext[write++] = ext[i];
    }
    for (; write < base + r; ++write) ext[write] = kIdle;
  }
  // Unshift: the pads are back at the ends (see columnsort.cpp for why).
  for (std::size_t x = 0; x < r * s; ++x) {
    std::int32_t v = ext[shift + x];
    PCS_REQUIRE(v != kPadOne, "pad escaped the shift window");
    slots_[index(x % r, x / r)] = v;
  }
}

std::vector<std::int32_t> LabelMesh::to_row_major() const { return slots_; }

std::vector<std::int32_t> LabelMesh::to_col_major() const {
  std::vector<std::int32_t> out(size());
  std::size_t pos = 0;
  for (std::size_t j = 0; j < cols_; ++j) {
    for (std::size_t i = 0; i < rows_; ++i) out[pos++] = slots_[index(i, j)];
  }
  return out;
}

BitMatrix LabelMesh::valid_bits() const {
  BitMatrix m(rows_, cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = 0; j < cols_; ++j) {
      m.set(i, j, slot_occupied(slots_[index(i, j)]));
    }
  }
  return m;
}

}  // namespace pcs::sw
