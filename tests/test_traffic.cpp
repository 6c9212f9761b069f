// The injection processes and the structured adversarial source, driven
// directly: densities, exact counts, on-off burstiness, rate-profiled hot
// spots and the adversarial family's cycling.
#include <gtest/gtest.h>

#include <vector>

#include "traffic/injection.hpp"
#include "traffic/traffic_source.hpp"
#include "util/assert.hpp"

namespace pcs::traffic {
namespace {

TEST(Traffic, BernoulliDensity) {
  BernoulliProcess gen(1000, 0.25);
  Rng rng(210);
  std::size_t total = 0;
  for (int t = 0; t < 50; ++t) total += gen.next(rng).count();
  double density = static_cast<double>(total) / (1000.0 * 50.0);
  EXPECT_NEAR(density, 0.25, 0.03);
  EXPECT_EQ(gen.width(), 1000u);
  EXPECT_NE(gen.name().find("bernoulli"), std::string::npos);
}

TEST(Traffic, ExactCountAlwaysExact) {
  ExactCountProcess gen(100, 37);
  Rng rng(211);
  for (int t = 0; t < 20; ++t) EXPECT_EQ(gen.next(rng).count(), 37u);
  EXPECT_THROW(ExactCountProcess(10, 11), pcs::ContractViolation);
}

TEST(Traffic, BurstyProducesTemporalCorrelation) {
  // With sticky states, consecutive samples correlate more than independent
  // Bernoulli would: measure the lag-1 autocorrelation of a single wire.
  OnOffProcess gen(64, 0.9, 0.05, 0.05, 0.05);
  Rng rng(212);
  std::vector<BitVec> frames;
  for (int t = 0; t < 400; ++t) frames.push_back(gen.next(rng));
  std::size_t agree = 0, total = 0;
  for (std::size_t t = 1; t < frames.size(); ++t) {
    for (std::size_t i = 0; i < 64; ++i) {
      agree += frames[t].get(i) == frames[t - 1].get(i);
      ++total;
    }
  }
  double agreement = static_cast<double>(agree) / static_cast<double>(total);
  EXPECT_GT(agreement, 0.6);  // far above the ~0.5 of i.i.d. fair bits
}

TEST(Traffic, HotSpotConcentratesLoad) {
  // Wires 0..19 run hot at 0.9, the other 80 cold at 0.05.
  std::vector<double> rates(100, 0.05);
  for (std::size_t i = 0; i < 20; ++i) rates[i] = 0.9;
  BernoulliProcess gen(rates);
  Rng rng(213);
  std::size_t hot_hits = 0, cold_hits = 0;
  for (int t = 0; t < 100; ++t) {
    BitVec v = gen.next(rng);
    for (std::size_t i = 0; i < 20; ++i) hot_hits += v.get(i);
    for (std::size_t i = 20; i < 100; ++i) cold_hits += v.get(i);
  }
  EXPECT_GT(hot_hits, 15 * 100u);   // ~0.9 * 20 * 100 = 1800
  EXPECT_LT(cold_hits, 10 * 100u);  // ~0.05 * 80 * 100 = 400
}

TEST(Traffic, AdversarialFamilyExactCountsAndCycling) {
  AdversarialSource gen(64, 16, 8);
  Rng rng(214);
  std::vector<BitVec> patterns;
  for (std::size_t f = 0; f < gen.family_size(); ++f) {
    BitVec v = gen.next_valid(rng);
    EXPECT_EQ(v.count(), 16u) << "pattern " << f;
    patterns.push_back(v);
  }
  // The family cycles: the next pattern equals the first.
  EXPECT_EQ(gen.next_valid(rng), patterns[0]);
  // Patterns are genuinely distinct.
  for (std::size_t a = 0; a < patterns.size(); ++a) {
    for (std::size_t b = a + 1; b < patterns.size(); ++b) {
      EXPECT_NE(patterns[a], patterns[b]) << a << " vs " << b;
    }
  }
}

TEST(Traffic, AdversarialEdgeCounts) {
  Rng rng(215);
  AdversarialSource empty(16, 0, 4);
  for (std::size_t f = 0; f < empty.family_size(); ++f) {
    EXPECT_EQ(empty.next_valid(rng).count(), 0u);
  }
  AdversarialSource full(16, 16, 4);
  for (std::size_t f = 0; f < full.family_size(); ++f) {
    EXPECT_EQ(full.next_valid(rng).count(), 16u);
  }
}

}  // namespace
}  // namespace pcs::traffic
