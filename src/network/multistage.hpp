// L-level concentration networks: the general form of the two-level
// ConcentratorTree, for deployments where traffic funnels through several
// tiers (board -> cabinet -> machine trunk, the topology the paper's
// introduction gestures at).
//
// Level l consists of `width(l) / fan_in(l)` identical switches, each taking
// fan_in(l) wires down to out(l) wires; level l+1's input width is
// (width(l) / fan_in(l)) * out(l).  route_once() performs one setup of the
// whole network and reports per-level survivor counts, so the designer can
// see exactly which tier cuts traffic.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "switch/concentrator.hpp"
#include "util/bitvec.hpp"
#include "util/rng.hpp"

namespace pcs::net {

/// Builds the switch used by every node of one level: called with the
/// node's input count n_l and must return a switch with inputs() == n_l.
using SwitchFactory = std::function<std::unique_ptr<pcs::sw::ConcentratorSwitch>(
    std::size_t inputs, std::size_t outputs)>;

class MultistageNetwork {
 public:
  struct LevelSpec {
    std::size_t fan_in;   ///< wires into each switch of this level
    std::size_t fan_out;  ///< wires out of each switch of this level
  };

  /// Build a network over `sources` input wires.  Each level's fan_in must
  /// divide that level's width; fan_out <= fan_in.
  MultistageNetwork(std::size_t sources, const std::vector<LevelSpec>& levels,
                    const SwitchFactory& factory);

  std::size_t sources() const noexcept { return sources_; }
  std::size_t levels() const noexcept { return stages_.size(); }
  std::size_t trunk_width() const;

  /// Number of switches at level l and in total.
  std::size_t switches_at(std::size_t level) const;
  std::size_t total_switches() const;

  const pcs::sw::ConcentratorSwitch& switch_at(std::size_t level,
                                               std::size_t index) const;

  struct ShotResult {
    std::vector<std::int32_t> trunk_output_of_source;  ///< -1 if cut
    std::size_t offered = 0;
    std::vector<std::size_t> survivors;  ///< after each level
  };

  /// One setup of the whole network.
  ShotResult route_once(const BitVec& valid) const;

  struct SimStats {
    std::size_t rounds = 0;
    std::size_t offered = 0;
    std::size_t delivered = 0;
    std::vector<std::size_t> cut_at_level;  ///< waiting messages cut per level
    std::size_t max_backlog = 0;
    double total_latency_rounds = 0.0;

    double delivery_rate() const;
    double mean_latency() const;
  };

  /// Round-based traffic with buffered retries, as router_sim does for the
  /// two-level tree: each round idle sources arrive with probability
  /// arrival_p, waiting messages present valid bits, winners leave.
  SimStats simulate(double arrival_p, std::size_t rounds, Rng& rng) const;

  /// Worst-case lossless capacity of the whole network: messages per setup
  /// guaranteed through every level regardless of placement, which is
  /// limited by each level's per-switch guaranteed capacity (adversarial
  /// placement can direct everything at one switch) -- the min over levels
  /// of the per-switch capacity at that level.
  std::size_t guaranteed_end_to_end_capacity() const;

 private:
  struct Stage {
    std::vector<std::unique_ptr<pcs::sw::ConcentratorSwitch>> switches;
    std::size_t fan_in;
    std::size_t fan_out;
  };

  std::size_t sources_;
  std::vector<Stage> stages_;
};

/// Convenience factory: every node is a single-chip "hyper" switch.
SwitchFactory hyper_factory();

/// Convenience factory: Revsort switches where the shape allows (input
/// count a square of a power of two), falling back to the single chip
/// ("hyper") otherwise.  The fallback keeps mixed tiers buildable; real
/// designs size tiers so the multichip switch fits.
SwitchFactory revsort_or_hyper_factory();

}  // namespace pcs::net
