// The multipass Columnsort switch (Section 6's open question) as
// make_switch builds it.
#include <gtest/gtest.h>

#include <numeric>

#include "core/adversary.hpp"
#include "plan/compile.hpp"
#include "sortnet/nearsort.hpp"
#include "switch/make_switch.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace pcs::sw {
namespace {

using plan::ReshapeSchedule;

SwitchSpec multipass_spec(std::size_t r, std::size_t s, std::size_t passes,
                          std::size_t m,
                          ReshapeSchedule schedule = ReshapeSchedule::kSame) {
  return {.family = "multipass", .m = m, .r = r, .s = s, .passes = passes,
          .schedule = schedule};
}

std::unique_ptr<ConcentratorSwitch> multipass(
    std::size_t r, std::size_t s, std::size_t passes, std::size_t m,
    ReshapeSchedule schedule = ReshapeSchedule::kSame) {
  return make_switch(multipass_spec(r, s, passes, m, schedule));
}

/// The plan reads its outputs row-major unless its readout is the identity
/// (column-major) order.
bool reads_row_major(const plan::SwitchPlan& p) {
  std::vector<std::uint32_t> identity(p.n);
  std::iota(identity.begin(), identity.end(), 0u);
  return p.readout != identity;
}

TEST(MultipassSwitch, OnePassEqualsColumnsortSwitch) {
  const std::size_t r = 32, s = 4, n = r * s;
  const auto multi = multipass(r, s, 1, n / 2);
  const auto single =
      make_switch({.family = "columnsort", .m = n / 2, .r = r, .s = s});
  Rng rng(270);
  for (int trial = 0; trial < 20; ++trial) {
    BitVec valid = rng.bernoulli_bits(n, rng.uniform01());
    SwitchRouting a = multi->route(valid);
    SwitchRouting b = single->route(valid);
    EXPECT_EQ(a.output_of_input, b.output_of_input);
    EXPECT_EQ(multi->nearsorted_valid_bits(valid),
              single->nearsorted_valid_bits(valid));
  }
}

TEST(MultipassSwitch, Validation) {
  EXPECT_THROW(multipass(10, 4, 1, 20), pcs::ContractViolation);
  EXPECT_THROW(multipass(16, 4, 0, 32), pcs::ContractViolation);
  EXPECT_THROW(plan::compile_multipass_plan(16, 4, 1, 0, ReshapeSchedule::kSame),
               pcs::ContractViolation);
}

TEST(MultipassSwitch, RoutingIsPartialInjection) {
  const auto sw = multipass(64, 8, 3, 256);
  Rng rng(271);
  for (int trial = 0; trial < 20; ++trial) {
    BitVec valid = rng.bernoulli_bits(512, rng.uniform01());
    EXPECT_TRUE(sw->route(valid).is_partial_injection());
  }
}

// The conjectured bound for d >= 2: measured epsilon stays within (s-1)^2,
// checked by adversarial search across pass counts and both schedules.
class MultipassEpsilon : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MultipassEpsilon, WithinConjecturedBound) {
  const std::size_t passes = GetParam();
  for (ReshapeSchedule sched :
       {ReshapeSchedule::kSame, ReshapeSchedule::kAlternating}) {
    const auto sw = multipass(64, 8, passes, 512, sched);
    Rng rng(272 + passes);
    pcs::core::WorstCase wc = pcs::core::worst_epsilon_search(*sw, 20, 80, rng);
    EXPECT_LE(wc.epsilon, sw->epsilon_bound())
        << "passes=" << passes << " sched=" << static_cast<int>(sched);
  }
}

INSTANTIATE_TEST_SUITE_P(Passes, MultipassEpsilon, ::testing::Values(1, 2, 3, 4));

TEST(MultipassSwitch, AlternatingBeatsSameDirectionAdversarially) {
  // The documented finding: the same-direction worst case is a fixed point
  // at (s-1)^2, while alternating reshapes strictly improve by d = 3.
  Rng rng_same(276), rng_alt(276);
  const auto same = multipass(64, 8, 3, 512, ReshapeSchedule::kSame);
  const auto alt = multipass(64, 8, 3, 512, ReshapeSchedule::kAlternating);
  auto ws = pcs::core::worst_epsilon_search(*same, 30, 150, rng_same);
  auto wa = pcs::core::worst_epsilon_search(*alt, 30, 150, rng_alt);
  EXPECT_EQ(ws.epsilon, same->epsilon_bound());  // fixed point at (s-1)^2
  EXPECT_LT(wa.epsilon, ws.epsilon);
}

TEST(MultipassSwitch, AlternatingEvenPassReadsColumnMajor) {
  EXPECT_FALSE(reads_row_major(make_switch_plan(
      multipass_spec(64, 8, 2, 512, ReshapeSchedule::kAlternating))));
  EXPECT_TRUE(reads_row_major(make_switch_plan(
      multipass_spec(64, 8, 3, 512, ReshapeSchedule::kAlternating))));
  EXPECT_TRUE(reads_row_major(
      make_switch_plan(multipass_spec(64, 8, 2, 512, ReshapeSchedule::kSame))));
}

TEST(MultipassSwitch, MorePassesNeverHurtOnAverage) {
  // Average measured epsilon over random inputs is nonincreasing in the
  // pass count (statistically; we allow a small slack).
  const std::size_t r = 64, s = 8, n = r * s;
  Rng rng(273);
  std::vector<double> avg;
  for (std::size_t d = 1; d <= 3; ++d) {
    const auto sw = multipass(r, s, d, n);
    std::size_t total = 0;
    const int trials = 60;
    Rng trial_rng(274);  // same inputs for every d
    for (int t = 0; t < trials; ++t) {
      BitVec valid = trial_rng.bernoulli_bits(n, trial_rng.uniform01());
      total += sortnet::min_nearsort_epsilon(sw->nearsorted_valid_bits(valid));
    }
    avg.push_back(static_cast<double>(total) / trials);
  }
  EXPECT_LE(avg[1], avg[0] + 1.0);
  EXPECT_LE(avg[2], avg[1] + 1.0);
}

TEST(MultipassSwitch, ConcentrationContractHolds) {
  const auto sw = multipass(64, 8, 2, 384);
  Rng rng(275);
  for (std::size_t k = 0; k <= 512; k += 37) {
    BitVec valid = rng.exact_weight_bits(512, k);
    SwitchRouting routing = sw->route(valid);
    EXPECT_TRUE(concentration_contract_holds(*sw, valid, routing)) << "k=" << k;
  }
}

TEST(MultipassSwitch, BomAndNaming) {
  const plan::SwitchPlan p = make_switch_plan(multipass_spec(64, 8, 3, 256));
  EXPECT_EQ(p.chip_passes(), 4u);
  EXPECT_EQ(p.chip_count(), 4u * 8u);
  EXPECT_NE(make_switch(multipass_spec(64, 8, 3, 256))->name().find("d=3"),
            std::string::npos);
}


TEST(MultipassSwitch, AlternatingTwoPassExhaustiveTinyShape) {
  // r = 8, s = 2: epsilon bound (s-1)^2 = 1; exhaustive over all 2^16
  // patterns, the alternating 2-pass switch (column-major read-out) stays
  // within it and honors the contract.
  const auto sw = multipass(8, 2, 2, 12, ReshapeSchedule::kAlternating);
  const auto full = multipass(8, 2, 2, 16, ReshapeSchedule::kAlternating);
  for (std::uint32_t p = 0; p < (1u << 16); ++p) {
    BitVec valid(16);
    for (std::size_t i = 0; i < 16; ++i) valid.set(i, (p >> i) & 1u);
    BitVec arr = full->nearsorted_valid_bits(valid);
    ASSERT_LE(sortnet::min_nearsort_epsilon(arr), 1u) << p;
    SwitchRouting r = sw->route(valid);
    ASSERT_TRUE(concentration_contract_holds(*sw, valid, r)) << p;
  }
}

}  // namespace
}  // namespace pcs::sw
