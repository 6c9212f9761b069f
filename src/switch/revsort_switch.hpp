// The Revsort-based multichip partial concentrator switch (paper Section 4).
//
// Construction: three stages of sqrt(n)-by-sqrt(n) hyperconcentrator chips
// over an underlying sqrt(n) x sqrt(n) matrix of valid bits:
//   stage 1: chips = columns, fully sorting each column;
//   wiring:  transpose;
//   stage 2: chips = rows, fully sorting each row, followed on each board by
//            a barrel shifter hardwired to rotate row i right by rev(i);
//   wiring:  transpose (the rotation happened on-board);
//   stage 3: chips = columns again.
// The output wires are the first m matrix positions in row-major order.
//
// By Theorem 3 this is an (n, m, 1 - O(n^{3/4}/m)) partial concentrator:
// Algorithm 1 leaves at most 2*ceil(n^{1/4}) - 1 dirty rows, so the n-wide
// output is epsilon-nearsorted with
//   epsilon = (2*ceil(n^{1/4}) - 1) * sqrt(n),
// and Lemma 2 turns that into the load ratio 1 - epsilon/m.
//
// The class is a thin wrapper over the staged-plan IR: the constructor
// compiles plan::compile_revsort_plan(n, m) and every ConcentratorSwitch
// virtual delegates to the shared PlanExecutor (which carries the counting
// kernel and LaneBatch fast paths).  route_via_wiring() remains an
// *independent* hardware-literal simulation -- per-chip stable
// concentrations joined by the explicit wiring permutations -- proven equal
// to the executor by the tests.
#pragma once

#include "plan/compile.hpp"
#include "plan/plan_executor.hpp"
#include "switch/chip.hpp"
#include "switch/concentrator.hpp"
#include "switch/wiring.hpp"

namespace pcs::sw {

class RevsortSwitch : public ConcentratorSwitch {
 public:
  /// n must be a fourth power of two in the sense side = sqrt(n) = 2^q;
  /// m <= n.
  RevsortSwitch(std::size_t n, std::size_t m);

  std::size_t inputs() const override { return n_; }
  std::size_t outputs() const override { return m_; }
  std::size_t epsilon_bound() const override { return exec_.plan().epsilon; }
  SwitchRouting route(const BitVec& valid) const override {
    return exec_.route(valid);
  }
  BitVec nearsorted_valid_bits(const BitVec& valid) const override {
    return exec_.nearsorted_valid_bits(valid);
  }

  /// Word-parallel batch fast paths, provided by the plan executor:
  /// route_batch replays the three stable concentrations as a counting
  /// kernel over the set bits (O(n/64 + k) per pattern, AVX-512 variant on
  /// capable CPUs); nearsorted_batch pushes 64 patterns per word through
  /// the staged pipeline with LaneBatch.  Both are bit-identical to the
  /// per-pattern methods (fuzz-tested).
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

  std::size_t side() const noexcept { return side_; }

  /// The compiled plan this switch executes.
  const plan::SwitchPlan& plan() const noexcept { return exec_.plan(); }

  /// Hardware-faithful simulation: per-chip concentrations joined by the
  /// explicit inter-stage wiring permutations of wiring.hpp.  Independent
  /// of the plan executor; the tests prove the two agree.
  SwitchRouting route_via_wiring(const BitVec& valid) const;

  /// Number of hyperconcentrator chips a message passes through (3).
  static constexpr std::size_t kChipPasses = 3;

  /// Chip inventory: 3*sqrt(n) hyperconcentrators + sqrt(n) barrel shifters.
  Bom bill_of_materials() const;

 private:
  SwitchRouting finish_row_major(const std::vector<std::int32_t>& row_major) const;

  std::size_t n_;
  std::size_t m_;
  plan::PlanExecutor exec_;
  std::size_t side_;
  // Wirings for the independent route_via_wiring simulation.  The stage
  // 1 -> 2 transpose doubles as the row-major output read-out.
  Permutation stage1_to_2_;
  Permutation stage2_to_3_;
};

}  // namespace pcs::sw
