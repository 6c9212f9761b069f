#include "fabric/allocator.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace pcs::fabric {

namespace {

void reset_grants(const AllocProblem& p, std::vector<std::uint32_t>& grants) {
  PCS_REQUIRE(p.queued.size() == p.ins * p.outs &&
                  p.cap_in.size() == p.ins && p.cap_out.size() == p.outs,
              "allocator problem shape mismatch: ins=" << p.ins << " outs="
                                                       << p.outs);
  grants.assign(p.ins * p.outs, 0);
}

}  // namespace

std::size_t RoundRobinAllocator::allocate(const AllocProblem& p,
                                          std::vector<std::uint32_t>& grants) {
  PCS_REQUIRE(p.ins == ins_ && p.outs == outs_,
              "allocator built for " << ins_ << "x" << outs_ << ", problem is "
                                     << p.ins << "x" << p.outs);
  reset_grants(p, grants);
  std::vector<std::uint32_t>& in_left = in_left_;
  std::vector<std::uint32_t>& out_left = out_left_;
  in_left.assign(p.cap_in.begin(), p.cap_in.end());
  out_left.assign(p.cap_out.begin(), p.cap_out.end());
  const std::size_t pairs = ins_ * outs_;
  std::size_t total = 0;
  // Sweep the (in, out) pairs starting at the rotating cursor, one grant per
  // visit, until a full sweep makes no progress.  One-grant granularity is
  // what keeps the discipline fair: a deep VOQ cannot lock out its
  // neighbors within an epoch.
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t i = 0; i < pairs; ++i) {
      const std::size_t pair = (cursor_ + i) % pairs;
      const std::size_t e = pair / outs_;
      const std::size_t d = pair % outs_;
      if (grants[pair] < p.queued[pair] && in_left[e] > 0 && out_left[d] > 0) {
        ++grants[pair];
        --in_left[e];
        --out_left[d];
        ++total;
        progress = true;
      }
    }
  }
  // Advance the cursor so the pair served first rotates epoch to epoch.
  cursor_ = (cursor_ + 1) % (pairs == 0 ? 1 : pairs);
  return total;
}

std::size_t ISlipAllocator::allocate(const AllocProblem& p,
                                     std::vector<std::uint32_t>& grants) {
  PCS_REQUIRE(p.ins == ins_ && p.outs == outs_,
              "allocator built for " << ins_ << "x" << outs_ << ", problem is "
                                     << p.ins << "x" << p.outs);
  reset_grants(p, grants);
  std::vector<std::uint32_t>& in_left = in_left_;
  std::vector<std::uint32_t>& out_left = out_left_;
  std::vector<std::size_t>& granted_to = granted_to_;
  in_left.assign(p.cap_in.begin(), p.cap_in.end());
  out_left.assign(p.cap_out.begin(), p.cap_out.end());
  std::size_t total = 0;

  // Iterated request/grant/accept.  Each iteration matches every input with
  // at most one output (and vice versa); the unit-grant rounds repeat until
  // caps are exhausted or no request can be served, so multi-message quotas
  // (cap_in / cap_out > 1) are filled one round at a time -- the standard
  // generalization of unit-bandwidth iSLIP to quota matching.
  bool progress = true;
  while (progress) {
    progress = false;
    // Grant phase: each output with remaining quota picks, from the inputs
    // still requesting it, the first at or after its grant pointer.
    granted_to.assign(outs_, ins_);  // ins_ = no grant
    for (std::size_t d = 0; d < outs_; ++d) {
      if (out_left[d] == 0) continue;
      for (std::size_t i = 0; i < ins_; ++i) {
        const std::size_t e = (grant_ptr_[d] + i) % ins_;
        if (in_left[e] > 0 && grants[e * outs_ + d] < p.queued[e * outs_ + d]) {
          granted_to[d] = e;
          break;
        }
      }
    }
    // Accept phase: each input with >= 1 grant accepts the first granting
    // output at or after its accept pointer.  Pointers advance one past the
    // match only when it completes (iSLIP's desynchronizing update).
    for (std::size_t e = 0; e < ins_; ++e) {
      if (in_left[e] == 0) continue;
      std::size_t chosen = outs_;
      for (std::size_t i = 0; i < outs_; ++i) {
        const std::size_t d = (accept_ptr_[e] + i) % outs_;
        if (granted_to[d] == e) {
          chosen = d;
          break;
        }
      }
      if (chosen == outs_) continue;
      ++grants[e * outs_ + chosen];
      --in_left[e];
      --out_left[chosen];
      ++total;
      progress = true;
      grant_ptr_[chosen] = (e + 1) % ins_;
      accept_ptr_[e] = (chosen + 1) % outs_;
    }
  }
  return total;
}

std::unique_ptr<Allocator> make_allocator(const std::string& name,
                                          std::size_t ins, std::size_t outs) {
  if (name == "rr") return std::make_unique<RoundRobinAllocator>(ins, outs);
  if (name == "islip") return std::make_unique<ISlipAllocator>(ins, outs);
  PCS_REQUIRE(false, "unknown fabric allocator '" << name
                                                  << "' (rr | islip)");
}

}  // namespace pcs::fabric
