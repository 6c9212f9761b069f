#include "util/rng.hpp"

#include "util/assert.hpp"

namespace pcs {

namespace {
// splitmix64: expands one seed word into the four xoshiro state words.
std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& w : s_) w = splitmix64(x);
  // Avoid the all-zero state, which xoshiro cannot escape.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::below(std::uint64_t bound) {
  PCS_REQUIRE(bound > 0, "Rng::below zero bound");
  // Rejection sampling to remove modulo bias.
  std::uint64_t threshold = (0 - bound) % bound;
  while (true) {
    std::uint64_t r = next();
    if (r >= threshold) return r % bound;
  }
}

std::uint64_t Rng::between(std::uint64_t lo, std::uint64_t hi) {
  PCS_REQUIRE(lo <= hi, "Rng::between bounds");
  return lo + below(hi - lo + 1);
}

bool Rng::chance(double p) {
  PCS_REQUIRE(p >= 0.0 && p <= 1.0, "Rng::chance probability");
  return uniform01() < p;
}

BitVec Rng::bernoulli_bits(std::size_t n, double p) {
  BitVec out(n);
  for (std::size_t i = 0; i < n; ++i) out.set(i, chance(p));
  return out;
}

BitVec Rng::exact_weight_bits(std::size_t n, std::size_t k) {
  PCS_REQUIRE(k <= n, "Rng::exact_weight_bits k > n");
  // Floyd's algorithm for a uniform k-subset of [0, n).
  BitVec out(n);
  for (std::size_t j = n - k; j < n; ++j) {
    std::uint64_t t = below(j + 1);
    if (out.get(static_cast<std::size_t>(t))) {
      out.set(j, true);
    } else {
      out.set(static_cast<std::size_t>(t), true);
    }
  }
  return out;
}

}  // namespace pcs
