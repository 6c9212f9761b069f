// Concentrator switches built from comparator networks -- the answer this
// library gives to the paper's final open question ("what types of partial
// concentrator switches can we build by applying Lemma 2 to other
// epsilon-nearsorters?").
//
// A *full* Batcher network is a 0/1 sorter, hence a hyperconcentrator: it
// routes the k valid messages to the first k outputs with Theta(n lg^2 n)
// comparators (vs the crossbar chip's Theta(n^2) gates) at lg n (lg n + 1)/2
// comparator stages of delay (vs 2 lg n).  A *truncated* network is an
// epsilon-nearsorter, hence by Lemma 2 a partial concentrator; the declared
// epsilon must be calibrated (worst_epsilon_search) because no closed-form
// bound is in the paper -- the constructor records it and the tests validate
// it adversarially.
#pragma once

#include "sortnet/comparator_net.hpp"
#include "switch/concentrator.hpp"

namespace pcs::sw {

class ComparatorSwitch : public ConcentratorSwitch {
 public:
  /// Wrap a comparator network as an (n, m, 1 - declared_epsilon/m) partial
  /// concentrator.  declared_epsilon = 0 asserts the network fully sorts
  /// 0/1 inputs (checked at construction via the 0/1 principle sampler).
  ComparatorSwitch(sortnet::ComparatorNetwork net, std::size_t m,
                   std::size_t declared_epsilon, std::string label);

  /// Full Batcher odd-even merge sort: a comparator-network
  /// hyperconcentrator.
  static ComparatorSwitch batcher_hyper(std::size_t n, std::size_t m);

  /// The first `stages` stages of Batcher's network, declared with the
  /// given calibrated epsilon.
  static ComparatorSwitch truncated_batcher(std::size_t n, std::size_t m,
                                            std::size_t stages,
                                            std::size_t declared_epsilon);

  std::size_t inputs() const override { return net_.n(); }
  std::size_t outputs() const override { return m_; }
  std::size_t epsilon_bound() const override { return declared_epsilon_; }
  SwitchRouting route(const BitVec& valid) const override;
  BitVec nearsorted_valid_bits(const BitVec& valid) const override;
  std::string name() const override;

  const sortnet::ComparatorNetwork& network() const noexcept { return net_; }

  /// Message delay model: two gate delays per comparator stage (one steered
  /// combine per payload wire), cf. the mesh designs' 2 lg w per chip.
  std::size_t gate_delay_model() const noexcept { return 2 * net_.stage_count(); }

 private:
  sortnet::ComparatorNetwork net_;
  std::size_t m_;
  std::size_t declared_epsilon_;
  std::string label_;
};

}  // namespace pcs::sw
