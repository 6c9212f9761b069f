// Deterministic pseudo-random number generator (xoshiro256**) plus the
// distributions the traffic generators and property tests need.
//
// We own the generator rather than using std::mt19937 so that test vectors
// are reproducible across standard libraries and platforms; seeds printed in
// failure messages always replay.
#pragma once

#include <bit>
#include <cstdint>

#include "util/bitvec.hpp"

namespace pcs {

class Rng {
 public:
  /// Seeded construction; the same seed always produces the same stream.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64-bit value.  Inline: the traffic processes draw one per
  /// wire per epoch.
  std::uint64_t next() {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound).  Precondition: bound > 0.
  std::uint64_t below(std::uint64_t bound);

  /// Uniform integer in [lo, hi].  Precondition: lo <= hi.
  std::uint64_t between(std::uint64_t lo, std::uint64_t hi);

  /// Bernoulli trial with probability p of true.  Precondition: 0 <= p <= 1.
  bool chance(double p);

  /// Uniform double in [0, 1): 53 random mantissa bits of one next() draw,
  /// as in the standard xoshiro recipe.
  double uniform01() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  /// A vector of n independent Bernoulli(p) bits (random valid-bit pattern).
  BitVec bernoulli_bits(std::size_t n, double p);

  /// A vector of n bits with exactly k ones placed uniformly at random
  /// (the paper's "k messages entering the switch" with k fixed).
  BitVec exact_weight_bits(std::size_t n, std::size_t k);

 private:
  std::uint64_t s_[4];
};

}  // namespace pcs
