// End-to-end gate-level realizations of the multichip switches: every
// hyperconcentrator chip is one instantiation of the reconstructed
// HyperCircuit, inter-stage wiring is pure node renaming, and the hardwired
// barrel shifters of the Revsort design are wiring too.
//
// This is the strongest executable form of the paper's delay theorems: the
// *measured* longest data-input-to-data-output gate path of the composed
// circuit equals
//     3 * 2 lg sqrt(n) = 3 lg n        (Revsort switch),
//     2 * 2 lg r       = 4 beta lg n   (Columnsort switch),
// with the O(1) pad terms excluded exactly as the circuits exclude pads.
// Functional equivalence with the behavioural switches (make_switch on the
// same spec) is established by evaluating both on the same inputs (see
// tests/test_gate_level_switch.cpp).
//
// Gate counts grow as (stages * chips_per_stage * w^2); keep n modest
// (<= 1024 for Revsort, r <= 256 for Columnsort) when instantiating.
#pragma once

#include <cstdint>
#include <vector>

#include "gates/circuit.hpp"
#include "gates/evaluator.hpp"
#include "plan/switch_plan.hpp"
#include "util/bitvec.hpp"

namespace pcs::sw {

/// Result of pushing one setup + one data bit through a gate-level switch.
struct GateLevelResult {
  BitVec data;   ///< data bit observed on each of the n output positions
  BitVec valid;  ///< valid bit observed on each of the n output positions
};

/// Gate-level realization of a compiled plan with purely permutational
/// links: one HyperCircuit per chip per stage, each inter-stage link as pure
/// node renaming (the in_src gather), outputs in readout order.  Revsort,
/// Columnsort, every multipass shape and the single chip all build through
/// this one walk of the plan's stages; full Columnsort's widened pad stage
/// and fault-rewritten plans have no realization here and throw.
class GateLevelSwitch {
 public:
  explicit GateLevelSwitch(const plan::SwitchPlan& plan);

  std::size_t n() const noexcept { return n_; }
  const gates::Circuit& circuit() const noexcept { return circuit_; }

  /// Evaluate one setup: per-input valid bits and one payload bit each.
  /// Outputs are in the switch's output order (row-major / column-major as
  /// the design dictates), full width n.
  GateLevelResult evaluate(const BitVec& valid, const BitVec& data) const;

  /// Same, reusing caller buffers across calls (for evaluation loops).
  void evaluate(const BitVec& valid, const BitVec& data,
                gates::EvalScratch& scratch, GateLevelResult& out) const;

  /// Longest gate path from any payload (data) input to any data output:
  /// the message delay of the composed switch, excluding I/O pads.
  std::uint32_t data_path_depth() const;

  /// Longest gate path from any valid input to any output (setup latency).
  std::uint32_t control_path_depth() const;

  std::size_t gate_count() const { return circuit_.gate_count(); }

 private:
  std::size_t n_;
  gates::Circuit circuit_;
  std::vector<gates::NodeId> valid_inputs_;
  std::vector<gates::NodeId> data_inputs_;
};

}  // namespace pcs::sw
