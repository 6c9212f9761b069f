// Abstract interface shared by all concentrator switches in the library
// (single-chip hyperconcentrators, the paper's two multichip partial
// concentrators, and the full-sorting multichip hyperconcentrators).
//
// Terminology (paper, Section 1): an (n, m, alpha) partial concentrator
// switch can establish disjoint paths from any k <= alpha*m valid inputs to
// k of its m outputs; with k > alpha*m it still fills at least alpha*m
// outputs.  A hyperconcentrator is the special case m = n, alpha = 1 with
// the stronger property that the k messages land on the *first* k outputs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/bitvec.hpp"

namespace pcs::sw {

/// The routing a switch establishes at setup.  Inputs and outputs may have
/// different counts (n inputs, m <= n outputs).
struct SwitchRouting {
  /// output_of_input[i] = output wire carrying input i's message, or -1 if
  /// input i is invalid or its message fell off the m outputs (congestion).
  std::vector<std::int32_t> output_of_input;
  /// input_of_output[j] = input whose message output j carries, or -1.
  std::vector<std::int32_t> input_of_output;

  std::size_t routed_count() const noexcept;

  /// True iff the maps form a consistent partial injection.
  bool is_partial_injection() const noexcept;
};

class ConcentratorSwitch {
 public:
  virtual ~ConcentratorSwitch() = default;

  /// Number of input wires (the paper's n).
  virtual std::size_t inputs() const = 0;

  /// Number of output wires (the paper's m).
  virtual std::size_t outputs() const = 0;

  /// Guaranteed nearsortedness of the internal n-wide output arrangement:
  /// the switch epsilon-nearsorts its valid bits with this epsilon.  Zero
  /// for hyperconcentrators.
  virtual std::size_t epsilon_bound() const = 0;

  /// Establish paths for one setup.  valid.size() must equal inputs().
  virtual SwitchRouting route(const BitVec& valid) const = 0;

  /// The n-wide arrangement of valid bits on the internal output side,
  /// before restriction to the first m outputs (what Lemma 2 inspects).
  virtual BitVec nearsorted_valid_bits(const BitVec& valid) const = 0;

  /// Route a batch of independent setups.  Bit-for-bit identical to calling
  /// route() per pattern; concrete switches override with batched fast paths
  /// (word-parallel counting kernels, cached route plans).  The base
  /// implementation fans the patterns out over the persistent thread pool
  /// in work-sized chunks (parallel_for_work): a batch smaller than one
  /// chunk runs inline on the caller.
  virtual std::vector<SwitchRouting> route_batch(
      const std::vector<BitVec>& valids) const;

  /// route_batch reduced to what a campaign engine reads: routed[i], for
  /// every i < valids.size(), becomes an inputs()-bit mask with bit x set
  /// exactly when route(valids[i]).output_of_input[x] >= 0.  `routed` only
  /// ever grows, and masks past the batch keep their storage, so a caller
  /// recycling one vector across dispatches of varying size allocates
  /// nothing once it has seen its largest batch.  The base implementation
  /// reads the masks off route_batch(); plan switches fill them from the
  /// same kernels without building a SwitchRouting.
  virtual void route_batch_mask(const std::vector<BitVec>& valids,
                                std::vector<BitVec>& routed) const;

  /// nearsorted_valid_bits() for a batch of patterns.  Overrides carry 64
  /// patterns per machine word through the sorting substrates (LaneBatch).
  virtual std::vector<BitVec> nearsorted_batch(
      const std::vector<BitVec>& valids) const;

  /// Human-readable design name for reports.
  virtual std::string name() const = 0;

  /// Upper bound on messages one setup can lose to dead chips.  0 for a
  /// healthy switch (every message is conserved); fault-rewritten plans
  /// override with the sum of dead-chip widths.
  virtual std::size_t max_fault_loss() const { return 0; }

  /// The load ratio alpha = 1 - epsilon_bound / m (Lemma 2), clamped to
  /// [0, 1].  With k <= alpha * m valid inputs, all k are routed.
  double load_ratio_bound() const;

  /// Largest k the load-ratio bound guarantees to route losslessly:
  /// floor(alpha * m) = m - epsilon_bound (when nonnegative).
  std::size_t guaranteed_capacity() const;
};

/// `routed` becomes routing.output_of_input's routed-input mask: bit x set
/// exactly when input x has an output.
void routed_inputs(const SwitchRouting& routing, BitVec& routed);

/// Check the partial-concentration contract (the two bullet properties of
/// Section 1) for one routing produced from `valid`:
///   k <= capacity  =>  every valid input routed;
///   k >  capacity  =>  at least `capacity` outputs carry messages.
/// Returns true when the contract holds.
bool concentration_contract_holds(const ConcentratorSwitch& sw, const BitVec& valid,
                                  const SwitchRouting& routing);

}  // namespace pcs::sw
