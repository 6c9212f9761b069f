// Reusable invariant checkers for ConcentratorSwitch implementations.
//
// verification.hpp answers "does this switch satisfy the paper end to end?"
// with its own pattern generation; this header is the layer below it: each
// function checks ONE invariant on ONE concrete (switch, pattern, result)
// instance and, on failure, records a violation that names the offending
// values (n, m, k, indices, the pattern itself) instead of just a verdict.
// Tests and the differential fuzzer (fuzz/fuzz_differential.cpp) share these
// so a counterexample found by either is reported identically and is
// immediately replayable.
//
// The invariants:
//   * partial-injection   -- routing maps are mutually consistent, sized
//                            (n, m), and route only genuinely valid inputs;
//   * concentration       -- Section 1's contract: k <= capacity routes all
//                            k, k > capacity fills >= capacity outputs; for
//                            hyperconcentrators (epsilon 0) additionally the
//                            output-prefix property (first min(k, m) outputs,
//                            in stable input order);
//   * epsilon-bound       -- the n-wide arrangement conserves the valid
//                            count and its measured nearsort epsilon does
//                            not exceed epsilon_bound() (Theorems 3/4);
//   * batch-identity      -- route_batch / nearsorted_batch are bit-for-bit
//                            the per-pattern methods (PR 1's engine);
//   * fault-loss          -- a faulty switch loses at most max_fault_loss()
//                            messages and routes no phantom ones.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "switch/concentrator.hpp"
#include "util/bitvec.hpp"

namespace pcs::core {

struct InvariantViolation {
  std::string invariant;  ///< which invariant failed (slug, e.g. "batch-identity")
  std::string detail;     ///< offending values and the pattern, for replay
};

struct InvariantReport {
  std::vector<InvariantViolation> violations;
  std::size_t checks_run = 0;

  bool ok() const noexcept { return violations.empty(); }
  void add(std::string invariant, std::string detail);
  std::string to_string() const;
};

/// Compact description of a pattern for violation messages: n, k, and the
/// bits (truncated past 96 positions).
std::string describe_pattern(const BitVec& valid);

/// Routing maps are sized (inputs, outputs), form a consistent partial
/// injection, and every routed output carries a genuinely valid input.
bool check_partial_injection(const pcs::sw::ConcentratorSwitch& sw,
                             const BitVec& valid,
                             const pcs::sw::SwitchRouting& routing,
                             InvariantReport& report);

/// Section 1's partial-concentration contract against guaranteed_capacity();
/// for epsilon_bound() == 0 switches also the hyperconcentrator prefix
/// property: exactly the outputs 0..min(k,m)-1 carry messages.
bool check_concentration(const pcs::sw::ConcentratorSwitch& sw, const BitVec& valid,
                         const pcs::sw::SwitchRouting& routing,
                         InvariantReport& report);

/// The n-wide arrangement conserves count -- up to the switch's
/// max_fault_loss() messages may vanish into dead chips, never appear --
/// and is epsilon_bound()-nearsorted (skipped when the switch advertises
/// no bound, epsilon_bound() >= n).
bool check_epsilon_bound(const pcs::sw::ConcentratorSwitch& sw, const BitVec& valid,
                         const BitVec& arrangement, InvariantReport& report);

/// route_batch and nearsorted_batch over `valids` are bit-identical to the
/// per-pattern route / nearsorted_valid_bits calls, and route_batch_mask's
/// masks are route()'s output_of_input >= 0.
bool check_batch_identity(const pcs::sw::ConcentratorSwitch& sw,
                          const std::vector<BitVec>& valids,
                          InvariantReport& report);

/// Fault accounting for switches with dead chips: no phantom routes, and the
/// switch delivers at most `max_loss` fewer messages than `baseline_routed`,
/// the count a fault-free switch of the same shape routes on the same
/// pattern.  (Comparing against k alone is wrong: with k > m even a healthy
/// switch must drop k - m messages, and that capacity loss is not the
/// faults' fault.)
bool check_fault_loss(const pcs::sw::ConcentratorSwitch& sw, const BitVec& valid,
                      const pcs::sw::SwitchRouting& routing,
                      std::size_t baseline_routed, std::size_t max_loss,
                      InvariantReport& report);

/// Run every single-pattern invariant (partial-injection, concentration,
/// epsilon-bound) on one pattern, routing it internally.
bool check_pattern(const pcs::sw::ConcentratorSwitch& sw, const BitVec& valid,
                   InvariantReport& report);

}  // namespace pcs::core
