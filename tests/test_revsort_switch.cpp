// The Revsort switch (Section 4) as make_switch builds it.
#include <gtest/gtest.h>

#include "core/bounds.hpp"
#include "sortnet/nearsort.hpp"
#include "sortnet/revsort.hpp"
#include "plan/compile.hpp"
#include "switch/make_switch.hpp"
#include "switch_oracles.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace pcs::sw {
namespace {

std::unique_ptr<ConcentratorSwitch> revsort(std::size_t n, std::size_t m) {
  return make_switch({"revsort", n, m});
}

TEST(RevsortSwitch, ShapeValidation) {
  EXPECT_NO_THROW(revsort(64, 32));
  EXPECT_THROW(revsort(32, 16), pcs::ContractViolation);   // not a square
  EXPECT_THROW(revsort(36, 16), pcs::ContractViolation);   // side not 2^q
  EXPECT_THROW(revsort(64, 65), pcs::ContractViolation);
  // m = 0 asks a spec for all n outputs; the compiler itself refuses it.
  EXPECT_THROW(plan::compile_revsort_plan(64, 0), pcs::ContractViolation);
}

TEST(RevsortSwitch, EpsilonBoundMatchesTheorem3) {
  const auto sw = revsort(256, 128);  // side 16, n^{1/4} = 4
  EXPECT_EQ(sw->epsilon_bound(), 7u * 16u);
  EXPECT_EQ(sw->epsilon_bound(), pcs::core::revsort_epsilon_bound(16));
}

TEST(RevsortSwitch, RoutingIsPartialInjection) {
  const auto sw = revsort(64, 40);
  Rng rng(140);
  for (int trial = 0; trial < 30; ++trial) {
    BitVec valid = rng.bernoulli_bits(64, rng.uniform01());
    SwitchRouting r = sw->route(valid);
    EXPECT_TRUE(r.is_partial_injection());
    EXPECT_LE(r.routed_count(), valid.count());
  }
}

// The hardware-faithful simulation (explicit chips + wiring permutations,
// tests/switch_oracles.hpp) must agree exactly with the plan path.
class RevsortWiringEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RevsortWiringEquivalence, RouteEqualsRouteViaWiring) {
  const std::size_t n = GetParam();
  const auto sw = revsort(n, n / 2);
  const oracle::RevsortWiring wiring(n, n / 2);
  Rng rng(141 + n);
  for (int trial = 0; trial < 25; ++trial) {
    BitVec valid = rng.bernoulli_bits(n, rng.uniform01());
    SwitchRouting a = sw->route(valid);
    SwitchRouting b = wiring.route(valid);
    EXPECT_EQ(a.output_of_input, b.output_of_input) << "trial " << trial;
    EXPECT_EQ(a.input_of_output, b.input_of_output) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RevsortWiringEquivalence,
                         ::testing::Values(4, 16, 64, 256, 1024));

// Theorem 3: measured nearsortedness never exceeds the advertised bound.
class RevsortEpsilon : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RevsortEpsilon, MeasuredWithinBound) {
  const std::size_t n = GetParam();
  const auto sw = revsort(n, n);
  Rng rng(142 + n);
  for (int trial = 0; trial < 40; ++trial) {
    BitVec valid = rng.bernoulli_bits(n, rng.uniform01());
    BitVec arrangement = sw->nearsorted_valid_bits(valid);
    EXPECT_EQ(arrangement.count(), valid.count());
    EXPECT_LE(sortnet::min_nearsort_epsilon(arrangement), sw->epsilon_bound())
        << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RevsortEpsilon,
                         ::testing::Values(16, 64, 256, 1024, 4096));

// The partial-concentration contract (Section 1) for a sweep of k.
TEST(RevsortSwitch, ConcentrationContractAcrossLoads) {
  const std::size_t n = 256;
  for (std::size_t m : {64u, 128u, 200u, 256u}) {
    const auto sw = revsort(n, m);
    Rng rng(143 + m);
    for (std::size_t k = 0; k <= n; k += 13) {
      BitVec valid = rng.exact_weight_bits(n, k);
      SwitchRouting r = sw->route(valid);
      EXPECT_TRUE(concentration_contract_holds(*sw, valid, r))
          << "m=" << m << " k=" << k;
    }
  }
}

// At light load every message is routed -- the lossless regime.
TEST(RevsortSwitch, LosslessWithinGuaranteedCapacity) {
  const auto sw = revsort(1024, 1024);
  const std::size_t capacity = sw->guaranteed_capacity();
  ASSERT_GT(capacity, 0u);
  Rng rng(144);
  for (int trial = 0; trial < 20; ++trial) {
    std::size_t k = rng.below(capacity + 1);
    BitVec valid = rng.exact_weight_bits(1024, k);
    SwitchRouting r = sw->route(valid);
    EXPECT_EQ(r.routed_count(), k) << "k=" << k;
  }
}

TEST(RevsortSwitch, MeshAgreesWithSortnetAlgorithm1) {
  // The switch's valid-bit arrangement equals running Algorithm 1 on the
  // matrix of valid bits (chip-major input attachment).
  const std::size_t n = 64, side = 8;
  const auto sw = revsort(n, n);
  Rng rng(145);
  for (int trial = 0; trial < 20; ++trial) {
    BitVec valid = rng.bernoulli_bits(n, 0.5);
    BitMatrix m(side, side);
    for (std::size_t x = 0; x < n; ++x) {
      m.set(x % side, x / side, valid.get(x));
    }
    sortnet::revsort_algorithm1(m);
    EXPECT_EQ(sw->nearsorted_valid_bits(valid), m.to_row_major());
  }
}

TEST(RevsortSwitch, BillOfMaterials) {
  const plan::SwitchPlan p = make_switch_plan({"revsort", 256, 128});  // side 16
  EXPECT_EQ(p.chip_count(), 4u * 16u);       // 3 hyper stacks + shifters
  EXPECT_EQ(p.max_pins_per_chip(), 2u * 16u + 4u);  // shifter: 2v + lg v
  EXPECT_EQ(p.chip_passes(), 3u);
}

TEST(RevsortSwitch, NameIncludesShape) {
  EXPECT_EQ(revsort(64, 32)->name(), "revsort(64,32)");
}

}  // namespace
}  // namespace pcs::sw
