// Section 1's clocked foil behind the ConcentratorSwitch interface: the
// parallel-prefix + butterfly hyperconcentrator.  Routing behaviour is
// identical to the single-chip "hyper" family make_switch() builds (both
// are stable hyperconcentrators); what differs is the physical story -- 4
// pins/chip, O(n lg n) chips, lg n sequential control steps -- captured by
// the resource model.  It is the one hyperconcentrator that is not a
// stage of hyperconcentrator chips, so it keeps its own class.
#pragma once

#include "hyper/prefix_butterfly.hpp"
#include "switch/concentrator.hpp"

namespace pcs::sw {

class PrefixButterflyHyperSwitch : public ConcentratorSwitch {
 public:
  PrefixButterflyHyperSwitch(std::size_t n, std::size_t m);

  std::size_t inputs() const override;
  std::size_t outputs() const override { return m_; }
  std::size_t epsilon_bound() const override { return 0; }
  SwitchRouting route(const BitVec& valid) const override;
  BitVec nearsorted_valid_bits(const BitVec& valid) const override;
  std::string name() const override;

  const hyper::PrefixButterflySwitch& fabric() const noexcept { return fabric_; }

 private:
  hyper::PrefixButterflySwitch fabric_;
  std::size_t m_;
};

}  // namespace pcs::sw
