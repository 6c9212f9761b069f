// The Columnsort switch (Section 5) as make_switch builds it.
#include <gtest/gtest.h>

#include <cmath>

#include "plan/compile.hpp"
#include "sortnet/columnsort.hpp"
#include "sortnet/nearsort.hpp"
#include "switch/make_switch.hpp"
#include "switch_oracles.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace pcs::sw {
namespace {

SwitchSpec columnsort_spec(std::size_t r, std::size_t s, std::size_t m) {
  return {.family = "columnsort", .m = m, .r = r, .s = s};
}

std::unique_ptr<ConcentratorSwitch> columnsort(std::size_t r, std::size_t s,
                                               std::size_t m) {
  return make_switch(columnsort_spec(r, s, m));
}

/// The plan a beta picks on n wires, as make_switch builds it.
plan::SwitchPlan beta_plan(std::size_t n, double beta, std::size_t m) {
  return make_switch_plan({"columnsort", n, m, beta});
}

TEST(ColumnsortSwitch, ShapeValidation) {
  EXPECT_NO_THROW(columnsort(16, 4, 32));
  EXPECT_THROW(columnsort(10, 4, 20), pcs::ContractViolation);  // 4 !| 10
  EXPECT_THROW(plan::compile_columnsort_plan(16, 4, 0), pcs::ContractViolation);
  EXPECT_THROW(columnsort(16, 4, 65), pcs::ContractViolation);
}

TEST(ColumnsortSwitch, FromBetaShapes) {
  // n = 4096, lg n = 12.
  const plan::SwitchPlan half = beta_plan(4096, 0.5, 2048);
  EXPECT_EQ(half.fp_r, 64u);
  EXPECT_EQ(half.fp_s, 64u);
  EXPECT_EQ(beta_plan(4096, 0.625, 2048).fp_r, 256u);  // e = lround(0.625 * 12) = 8
  EXPECT_EQ(beta_plan(4096, 0.75, 2048).fp_r, 512u);  // e = 9
  const plan::SwitchPlan one = beta_plan(4096, 1.0, 2048);
  EXPECT_EQ(one.fp_r, 4096u);
  EXPECT_EQ(one.fp_s, 1u);
  EXPECT_THROW(beta_plan(4096, 0.3, 10), pcs::ContractViolation);
  EXPECT_THROW(beta_plan(100, 0.5, 10), pcs::ContractViolation);
}

TEST(ColumnsortSwitch, BetaAccessorConsistent) {
  const plan::SwitchPlan p = beta_plan(4096, 0.75, 100);
  EXPECT_NEAR(std::log2(static_cast<double>(p.fp_r)) / std::log2(4096.0), 0.75,
              0.05);
}

TEST(ColumnsortSwitch, EpsilonBoundMatchesTheorem4) {
  EXPECT_EQ(columnsort(16, 4, 32)->epsilon_bound(), 9u);  // (4-1)^2
  EXPECT_EQ(columnsort(64, 8, 256)->epsilon_bound(), 49u);
}

class ColumnsortWiringEquivalence
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(ColumnsortWiringEquivalence, RouteEqualsRouteViaWiring) {
  auto [r, s] = GetParam();
  const auto sw = columnsort(r, s, (r * s) / 2);
  const oracle::ColumnsortWiring wiring(r, s, (r * s) / 2);
  Rng rng(150 + r + s);
  for (int trial = 0; trial < 25; ++trial) {
    BitVec valid = rng.bernoulli_bits(r * s, rng.uniform01());
    SwitchRouting a = sw->route(valid);
    SwitchRouting b = wiring.route(valid);
    EXPECT_EQ(a.output_of_input, b.output_of_input) << "trial " << trial;
    EXPECT_EQ(a.input_of_output, b.input_of_output) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ColumnsortWiringEquivalence,
    ::testing::Values(std::pair<std::size_t, std::size_t>{4, 2},
                      std::pair<std::size_t, std::size_t>{16, 4},
                      std::pair<std::size_t, std::size_t>{64, 8},
                      std::pair<std::size_t, std::size_t>{256, 16},
                      std::pair<std::size_t, std::size_t>{64, 2}));

class ColumnsortEpsilon
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(ColumnsortEpsilon, MeasuredWithinBound) {
  auto [r, s] = GetParam();
  const std::size_t n = r * s;
  const auto sw = columnsort(r, s, n);
  Rng rng(151 + r + s);
  for (int trial = 0; trial < 40; ++trial) {
    BitVec valid = rng.bernoulli_bits(n, rng.uniform01());
    BitVec arrangement = sw->nearsorted_valid_bits(valid);
    EXPECT_EQ(arrangement.count(), valid.count());
    EXPECT_LE(sortnet::min_nearsort_epsilon(arrangement), sw->epsilon_bound())
        << "r=" << r << " s=" << s << " trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ColumnsortEpsilon,
    ::testing::Values(std::pair<std::size_t, std::size_t>{8, 4},
                      std::pair<std::size_t, std::size_t>{16, 4},
                      std::pair<std::size_t, std::size_t>{64, 8},
                      std::pair<std::size_t, std::size_t>{128, 16},
                      std::pair<std::size_t, std::size_t>{512, 8}));

TEST(ColumnsortSwitch, ConcentrationContractAcrossLoads) {
  const std::size_t r = 64, s = 8, n = r * s;
  for (std::size_t m : {128u, 256u, 400u, 512u}) {
    const auto sw = columnsort(r, s, m);
    Rng rng(152 + m);
    for (std::size_t k = 0; k <= n; k += 29) {
      BitVec valid = rng.exact_weight_bits(n, k);
      SwitchRouting routing = sw->route(valid);
      EXPECT_TRUE(concentration_contract_holds(*sw, valid, routing))
          << "m=" << m << " k=" << k;
    }
  }
}

TEST(ColumnsortSwitch, MeshAgreesWithSortnetAlgorithm2) {
  const std::size_t r = 16, s = 4, n = r * s;
  const auto sw = columnsort(r, s, n);
  Rng rng(153);
  for (int trial = 0; trial < 20; ++trial) {
    BitVec valid = rng.bernoulli_bits(n, 0.5);
    BitMatrix m(r, s);
    for (std::size_t x = 0; x < n; ++x) {
      m.set(x % r, x / r, valid.get(x));
    }
    sortnet::columnsort_algorithm2(m);
    EXPECT_EQ(sw->nearsorted_valid_bits(valid), m.to_row_major());
  }
}

TEST(ColumnsortSwitch, BetaOneIsAlmostSingleChip) {
  // beta = 1: one column (s = 1), epsilon = 0 -- it degenerates to a pair of
  // full-width hyperconcentrators and routes perfectly.
  const std::size_t n = 64;
  const auto sw = columnsort(n, 1, n / 2);
  EXPECT_EQ(sw->epsilon_bound(), 0u);
  Rng rng(154);
  for (std::size_t k = 0; k <= n; k += 7) {
    BitVec valid = rng.exact_weight_bits(n, k);
    SwitchRouting routing = sw->route(valid);
    EXPECT_EQ(routing.routed_count(), std::min<std::size_t>(k, n / 2));
  }
}

TEST(ColumnsortSwitch, BillOfMaterials) {
  const plan::SwitchPlan p = make_switch_plan(columnsort_spec(64, 8, 256));
  EXPECT_EQ(p.chip_count(), 16u);           // 2s
  EXPECT_EQ(p.max_pins_per_chip(), 128u);   // 2r
  EXPECT_EQ(p.chip_passes(), 2u);
}

}  // namespace
}  // namespace pcs::sw
