// The Columnsort-based multichip partial concentrator switch (Section 5).
//
// Construction: two stages of r-by-r hyperconcentrator chips over an
// underlying r x s matrix (n = r*s, s divides r):
//   stage 1: chips = columns, fully sorting each column;
//   wiring:  column-major -> row-major conversion (RM^-1 o CM);
//   stage 2: chips = columns of the converted matrix.
// The output wires are the first m matrix positions in row-major order.
//
// By Theorem 4 this is an (n, m, 1 - (s-1)^2/m) partial concentrator:
// Algorithm 2 (Columnsort steps 1-3) is an (s-1)^2-nearsorter.
//
// The beta parameterization of the paper: r = Theta(n^beta),
// s = Theta(n^{1-beta}), 1/2 <= beta <= 1, trading pins per chip (2r)
// against chip count (2s), load ratio, delay (4 beta lg n + O(1)), and
// volume (Theta(n^{1+beta})) -- the tradeoff continuum of Table 1.
//
// Thin wrapper over plan::compile_columnsort_plan: all ConcentratorSwitch
// virtuals delegate to the shared PlanExecutor.  route_via_wiring() remains
// an independent hardware-literal simulation the tests compare against.
#pragma once

#include "plan/compile.hpp"
#include "plan/plan_executor.hpp"
#include "switch/chip.hpp"
#include "switch/concentrator.hpp"
#include "switch/wiring.hpp"

namespace pcs::sw {

class ColumnsortSwitch : public ConcentratorSwitch {
 public:
  /// Explicit shape: r rows, s columns, s divides r, m <= r*s.
  ColumnsortSwitch(std::size_t r, std::size_t s, std::size_t m);

  /// Shape from the paper's beta parameter: picks r as the power of two
  /// nearest n^beta that keeps s = n/r a divisor of r.  n must be a power
  /// of two; 1/2 <= beta <= 1.
  static ColumnsortSwitch from_beta(std::size_t n, double beta, std::size_t m);

  std::size_t inputs() const override { return n_; }
  std::size_t outputs() const override { return m_; }
  std::size_t epsilon_bound() const override { return exec_.plan().epsilon; }
  SwitchRouting route(const BitVec& valid) const override {
    return exec_.route(valid);
  }
  BitVec nearsorted_valid_bits(const BitVec& valid) const override {
    return exec_.nearsorted_valid_bits(valid);
  }

  /// Word-parallel batch fast paths, provided by the plan executor (see
  /// RevsortSwitch): a single-pass counting kernel per pattern for
  /// routings, LaneBatch lanes for the nearsorted bits.  Bit-identical to
  /// the per-pattern methods.
  std::vector<SwitchRouting> route_batch(
      const std::vector<BitVec>& valids) const override {
    return exec_.route_batch(valids);
  }
  void route_batch_mask(const std::vector<BitVec>& valids,
                        std::vector<BitVec>& routed) const override {
    exec_.route_batch_mask(valids, routed);
  }
  std::vector<BitVec> nearsorted_batch(
      const std::vector<BitVec>& valids) const override {
    return exec_.nearsorted_batch(valids);
  }

  std::string name() const override { return exec_.plan().name; }

  std::size_t r() const noexcept { return r_; }
  std::size_t s() const noexcept { return s_; }

  /// Effective beta = lg r / lg n of the realized shape.
  double beta() const;

  /// The compiled plan this switch executes.
  const plan::SwitchPlan& plan() const noexcept { return exec_.plan(); }

  /// Hardware-faithful simulation through the explicit CM->RM wiring.
  /// Independent of the plan executor; the tests prove the two agree.
  SwitchRouting route_via_wiring(const BitVec& valid) const;

  /// Number of hyperconcentrator chips a message passes through (2).
  static constexpr std::size_t kChipPasses = 2;

  /// Chip inventory: 2s r-by-r hyperconcentrators.
  Bom bill_of_materials() const;

 private:
  SwitchRouting finish_row_major(const std::vector<std::int32_t>& row_major) const;

  std::size_t r_;
  std::size_t s_;
  std::size_t n_;
  std::size_t m_;
  plan::PlanExecutor exec_;
  // Wiring for the independent route_via_wiring simulation.
  Permutation stage1_to_2_;
};

}  // namespace pcs::sw
