// Adversarial search for worst-case nearsortedness: how close do real input
// patterns get to the paper's epsilon bounds?
//
// The search combines the structured adversarial family
// (traffic::AdversarialSource), uniform random patterns at many densities,
// and a greedy hill-climb that flips bits while the measured epsilon does
// not decrease.  Results feed the bench_load_ratio and bench_dirty_rows
// reports (paper-vs-measured).
#pragma once

#include <cstdint>
#include <string>

#include "switch/concentrator.hpp"
#include "util/bitvec.hpp"
#include "util/rng.hpp"

namespace pcs::core {

struct WorstCase {
  std::size_t epsilon = 0;  ///< worst measured nearsortedness
  std::size_t k = 0;        ///< valid count of the worst pattern
  BitVec pattern;           ///< the pattern achieving it
  std::size_t trials = 0;   ///< patterns evaluated
};

/// Search for the input pattern maximizing the measured epsilon of the
/// switch's n-wide output arrangement.  `random_trials` uniform patterns
/// per density plus the structured family plus `climb_steps` hill-climbing
/// flips from the best seed.
WorstCase worst_epsilon_search(const pcs::sw::ConcentratorSwitch& sw,
                               std::size_t random_trials, std::size_t climb_steps,
                               Rng& rng);

/// Convenience: measured epsilon of one pattern through one switch.
std::size_t measured_epsilon(const pcs::sw::ConcentratorSwitch& sw,
                             const BitVec& valid);

}  // namespace pcs::core
