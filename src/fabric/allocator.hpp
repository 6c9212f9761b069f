// Per-node VOQ allocators for the fabric (the Tiny Tera half of the design
// space).  Each epoch, every fabric node must pick which queued messages to
// present to its concentrator: at most cap_in[e] from in-link e's buffer
// pool (its port block) and at most cap_out[d] toward out-link d (the
// smaller of the out-block width, the node's guaranteed concentration
// capacity, and the channel's remaining credits).  That is a bipartite
// quota-matching problem over the ins x outs VOQ occupancy matrix.
//
// Two classic disciplines are provided:
//   rr     one rotating grand cursor over (in, out) pairs, one grant per
//          visit, swept until no pair can advance.  Simple, fair over time,
//          and the deterministic baseline.
//   islip  iSLIP-style separable request/grant/accept rounds with per-out
//          grant pointers and per-in accept pointers (McKeown's de-
//          synchronizing pointer update: advance only on accepted grants).
//          Converges in a few iterations and avoids the starvation modes
//          of single-pointer round robin under asymmetric load.
//
// Allocators are deterministic: no RNG, all state is the pointer vector, so
// campaigns stay byte-reproducible.  One instance per node persists across
// epochs (the pointers ARE the fairness state), and so do its per-round
// budget vectors, which only ever hold the current call's values.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace pcs::fabric {

/// One epoch's allocation input for a single node.
struct AllocProblem {
  std::size_t ins = 0;   ///< in-links (VOQ pool rows)
  std::size_t outs = 0;  ///< out-links (VOQ columns)
  /// queued[e * outs + d] = messages waiting in in-link e's VOQ toward
  /// out-link d.
  std::vector<std::uint32_t> queued;
  /// Per-in-link grant budget this epoch (presentable ports).
  std::vector<std::uint32_t> cap_in;
  /// Per-out-link grant budget this epoch (min of out-block width,
  /// guaranteed node capacity share, and channel credits).
  std::vector<std::uint32_t> cap_out;
};

class Allocator {
 public:
  virtual ~Allocator() = default;

  /// Fill grants[e * outs + d] with the number of messages granted from
  /// VOQ (e, d); returns the total granted.  Postconditions (checked by the
  /// fabric under check_invariants): grants <= queued elementwise, row sums
  /// respect cap_in, column sums respect cap_out.
  virtual std::size_t allocate(const AllocProblem& p,
                               std::vector<std::uint32_t>& grants) = 0;

  virtual const char* name() const noexcept = 0;
  /// Return the pointer state to construction's (a new campaign).
  virtual void reset() noexcept = 0;
};

/// Rotating-cursor round robin over the (in, out) matrix.
class RoundRobinAllocator final : public Allocator {
 public:
  RoundRobinAllocator(std::size_t ins, std::size_t outs)
      : ins_(ins), outs_(outs) {}
  std::size_t allocate(const AllocProblem& p,
                       std::vector<std::uint32_t>& grants) override;
  const char* name() const noexcept override { return "rr"; }
  void reset() noexcept override { cursor_ = 0; }

 private:
  std::size_t ins_, outs_;
  std::size_t cursor_ = 0;  ///< starting (in, out) pair, advanced per epoch
  std::vector<std::uint32_t> in_left_, out_left_;  ///< per-call scratch
};

/// iSLIP-style separable allocator: iterated request/grant/accept with
/// per-output grant pointers and per-input accept pointers.
class ISlipAllocator final : public Allocator {
 public:
  ISlipAllocator(std::size_t ins, std::size_t outs)
      : ins_(ins), outs_(outs), grant_ptr_(outs, 0), accept_ptr_(ins, 0) {}
  std::size_t allocate(const AllocProblem& p,
                       std::vector<std::uint32_t>& grants) override;
  const char* name() const noexcept override { return "islip"; }
  void reset() noexcept override {
    std::fill(grant_ptr_.begin(), grant_ptr_.end(), 0);
    std::fill(accept_ptr_.begin(), accept_ptr_.end(), 0);
  }

 private:
  std::size_t ins_, outs_;
  std::vector<std::size_t> grant_ptr_;   ///< per-out: next input to favor
  std::vector<std::size_t> accept_ptr_;  ///< per-in: next output to favor
  // Per-call scratch: remaining budgets and each round's grant per output.
  std::vector<std::uint32_t> in_left_, out_left_;
  std::vector<std::size_t> granted_to_;
};

/// Factory keyed by config slug ("rr" | "islip"); throws on unknown names.
std::unique_ptr<Allocator> make_allocator(const std::string& name,
                                          std::size_t ins, std::size_t outs);

}  // namespace pcs::fabric
