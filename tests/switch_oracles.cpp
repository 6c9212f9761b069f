#include "switch_oracles.hpp"

#include <algorithm>
#include <sstream>

#include "util/assert.hpp"
#include "util/mathutil.hpp"

namespace pcs::oracle {

namespace {

/// Positions [0, m) of the row-major read-out are the switch outputs.
sw::SwitchRouting finish_row_major(const std::vector<std::int32_t>& row_major,
                                   std::size_t n, std::size_t m) {
  sw::SwitchRouting r;
  r.output_of_input.assign(n, -1);
  r.input_of_output.assign(m, -1);
  for (std::size_t pos = 0; pos < m; ++pos) {
    std::int32_t src = row_major[pos];
    if (src >= 0) {
      r.input_of_output[pos] = src;
      r.output_of_input[static_cast<std::size_t>(src)] =
          static_cast<std::int32_t>(pos);
    }
  }
  return r;
}

/// Input x drives stage-1 chip x / width, pin x % width: flat wire index x.
std::vector<std::int32_t> input_wires(const BitVec& valid) {
  std::vector<std::int32_t> wires(valid.size(), hyper::kIdle);
  for (std::size_t x = 0; x < valid.size(); ++x) {
    if (valid.get(x)) wires[x] = static_cast<std::int32_t>(x);
  }
  return wires;
}

/// Every chip stable-concentrates its `width` pins.
void concentrate_chips(std::vector<std::int32_t>& w, std::size_t chips,
                       std::size_t width) {
  for (std::size_t chip = 0; chip < chips; ++chip) {
    std::vector<std::int32_t> slice(
        w.begin() + static_cast<std::ptrdiff_t>(chip * width),
        w.begin() + static_cast<std::ptrdiff_t>((chip + 1) * width));
    hyper::stable_concentrate(slice);
    std::copy(slice.begin(), slice.end(),
              w.begin() + static_cast<std::ptrdiff_t>(chip * width));
  }
}

/// Output wires are taken row-major: matrix entry (i, j) sits on last-stage
/// chip j, pin i (flat j*rows + i) and is output position i*cols + j.
std::vector<std::int32_t> read_row_major(const std::vector<std::int32_t>& wires,
                                         std::size_t rows, std::size_t cols) {
  std::vector<std::int32_t> row_major(rows * cols, hyper::kIdle);
  for (std::size_t j = 0; j < cols; ++j) {
    for (std::size_t i = 0; i < rows; ++i) {
      row_major[i * cols + j] = wires[j * rows + i];
    }
  }
  return row_major;
}

}  // namespace

RevsortWiring::RevsortWiring(std::size_t n, std::size_t m)
    : n_(n), m_(m), side_(isqrt(n)) {
  PCS_REQUIRE(side_ * side_ == n && is_pow2(side_),
              "RevsortWiring shape: n=" << n);
  PCS_REQUIRE(m >= 1 && m <= n, "RevsortWiring m range: m=" << m << " n=" << n);
  stage1_to_2_ = sw::transpose_wiring(side_);
  stage2_to_3_ = sw::rev_rotate_transpose_wiring(side_);
}

sw::SwitchRouting RevsortWiring::route(const BitVec& valid) const {
  PCS_REQUIRE(valid.size() == n_, "RevsortWiring::route width");
  const std::size_t v = side_;
  std::vector<std::int32_t> wires = input_wires(valid);
  concentrate_chips(wires, v, v);     // stage 1 chips
  wires = stage1_to_2_.apply(wires);  // stage 1 -> 2 wiring
  concentrate_chips(wires, v, v);     // stage 2 chips
  wires = stage2_to_3_.apply(wires);  // shifters + wiring
  concentrate_chips(wires, v, v);     // stage 3 chips
  return finish_row_major(read_row_major(wires, v, v), n_, m_);
}

ColumnsortWiring::ColumnsortWiring(std::size_t r, std::size_t s, std::size_t m)
    : r_(r), s_(s), n_(r * s), m_(m) {
  PCS_REQUIRE(r > 0 && s > 0 && r % s == 0,
              "ColumnsortWiring shape: r=" << r << " s=" << s);
  PCS_REQUIRE(m >= 1 && m <= n_,
              "ColumnsortWiring m range: m=" << m << " n=" << n_);
  stage1_to_2_ = sw::cm_to_rm_wiring(r_, s_);
}

sw::SwitchRouting ColumnsortWiring::route(const BitVec& valid) const {
  PCS_REQUIRE(valid.size() == n_, "ColumnsortWiring::route width");
  std::vector<std::int32_t> wires = input_wires(valid);
  concentrate_chips(wires, s_, r_);   // stage 1 chips
  wires = stage1_to_2_.apply(wires);  // RM^-1 o CM wiring
  concentrate_chips(wires, s_, r_);   // stage 2 chips
  return finish_row_major(read_row_major(wires, r_, s_), n_, m_);
}

HyperOracle::HyperOracle(std::size_t n, std::size_t m) : chip_(n), m_(m) {
  PCS_REQUIRE(m >= 1 && m <= n, "HyperOracle m range: m=" << m << " n=" << n);
}

sw::SwitchRouting HyperOracle::route(const BitVec& valid) const {
  hyper::Routing r = chip_.route(valid);
  sw::SwitchRouting out;
  out.output_of_input.assign(chip_.n(), -1);
  out.input_of_output.assign(m_, -1);
  for (std::size_t j = 0; j < m_; ++j) {
    std::int32_t src = r.input_of_output[j];
    if (src >= 0) {
      out.input_of_output[j] = src;
      out.output_of_input[static_cast<std::size_t>(src)] =
          static_cast<std::int32_t>(j);
    }
  }
  return out;
}

BitVec HyperOracle::nearsorted_valid_bits(const BitVec& valid) const {
  return chip_.output_valid_bits(valid);
}

std::string HyperOracle::name() const {
  std::ostringstream os;
  os << "hyperconcentrator(" << chip_.n() << "," << m_ << ")";
  return os.str();
}

}  // namespace pcs::oracle
