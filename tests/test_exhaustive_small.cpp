// Exhaustive verification at small sizes: every input pattern, every claim.
//
// These sweeps are the strongest correctness evidence in the suite -- at
// n = 16 there are only 65536 valid-bit patterns, so the partial-
// concentration contract, the epsilon bounds, the wiring equivalence, and
// the Lemma 2 derivation are checked on *all* of them, not a sample.
#include <gtest/gtest.h>

#include "core/lemmas.hpp"
#include "plan/plan_switch.hpp"
#include "sortnet/nearsort.hpp"
#include "switch/comparator_switch.hpp"
#include "switch/make_switch.hpp"
#include "switch_oracles.hpp"

namespace pcs::sw {
namespace {

BitVec pattern_bits(std::uint32_t pattern, std::size_t n) {
  BitVec v(n);
  for (std::size_t i = 0; i < n; ++i) v.set(i, (pattern >> i) & 1u);
  return v;
}

TEST(ExhaustiveSmall, RevsortSwitchAllPatterns) {
  const std::size_t n = 16;
  const plan::PlanSwitch full(make_switch_plan({"revsort", n, n}));
  const plan::PlanSwitch cut(make_switch_plan({"revsort", n, 10}));
  for (std::uint32_t p = 0; p < (1u << n); ++p) {
    BitVec valid = pattern_bits(p, n);
    // Epsilon bound (Theorem 3) on every pattern.
    BitVec arr = full.nearsorted_valid_bits(valid);
    ASSERT_LE(sortnet::min_nearsort_epsilon(arr), full.epsilon_bound()) << p;
    ASSERT_EQ(arr.count(), valid.count()) << p;
    // Contract on the restricted switch.
    SwitchRouting r = cut.route(valid);
    ASSERT_TRUE(concentration_contract_holds(cut, valid, r)) << p;
  }
}

TEST(ExhaustiveSmall, RevsortWiringEquivalenceAllPatterns) {
  const std::size_t n = 16;
  const plan::PlanSwitch sw(make_switch_plan({"revsort", n, 12}));
  const oracle::RevsortWiring wiring(n, 12);
  for (std::uint32_t p = 0; p < (1u << n); ++p) {
    BitVec valid = pattern_bits(p, n);
    ASSERT_EQ(sw.route(valid).output_of_input,
              wiring.route(valid).output_of_input)
        << p;
  }
}

TEST(ExhaustiveSmall, ColumnsortSwitchAllPatterns) {
  // r = 8, s = 2: epsilon bound (s-1)^2 = 1.
  const plan::PlanSwitch sw(
      make_switch_plan({.family = "columnsort", .m = 16, .r = 8, .s = 2}));
  const plan::PlanSwitch cut(
      make_switch_plan({.family = "columnsort", .m = 9, .r = 8, .s = 2}));
  for (std::uint32_t p = 0; p < (1u << 16); ++p) {
    BitVec valid = pattern_bits(p, 16);
    BitVec arr = sw.nearsorted_valid_bits(valid);
    ASSERT_LE(sortnet::min_nearsort_epsilon(arr), 1u) << p;
    SwitchRouting r = cut.route(valid);
    ASSERT_TRUE(concentration_contract_holds(cut, valid, r)) << p;
  }
}

TEST(ExhaustiveSmall, FullSortersAllPatterns) {
  const plan::PlanSwitch rev(make_switch_plan({"full-revsort", 16}));
  const plan::PlanSwitch col(
      make_switch_plan({.family = "full-columnsort", .r = 8, .s = 2}));
  for (std::uint32_t p = 0; p < (1u << 16); ++p) {
    BitVec valid = pattern_bits(p, 16);
    const std::size_t k = valid.count();
    SwitchRouting rr = rev.route(valid);
    ASSERT_EQ(rr.routed_count(), k) << p;
    ASSERT_GE(rr.input_of_output[k == 0 ? 0 : k - 1], k == 0 ? -1 : 0) << p;
    SwitchRouting rc = col.route(valid);
    ASSERT_EQ(rc.routed_count(), k) << p;
    for (std::size_t j = 0; j < 16; ++j) {
      ASSERT_EQ(rc.input_of_output[j] >= 0, j < k) << p;
      ASSERT_EQ(rr.input_of_output[j] >= 0, j < k) << p;
    }
  }
}

TEST(ExhaustiveSmall, Lemma2AllPatterns) {
  const plan::PlanSwitch sw(
      make_switch_plan({.family = "columnsort", .m = 12, .r = 8, .s = 2}));
  for (std::uint32_t p = 0; p < (1u << 16); ++p) {
    BitVec valid = pattern_bits(p, 16);
    pcs::core::Lemma2Check check = pcs::core::check_lemma2(sw, valid);
    ASSERT_TRUE(check.holds) << "pattern " << p << ": " << check.detail;
  }
}

TEST(ExhaustiveSmall, BatcherHyperAllPatterns) {
  ComparatorSwitch sw = ComparatorSwitch::batcher_hyper(16, 16);
  for (std::uint32_t p = 0; p < (1u << 16); ++p) {
    BitVec valid = pattern_bits(p, 16);
    const std::size_t k = valid.count();
    SwitchRouting r = sw.route(valid);
    ASSERT_EQ(r.routed_count(), k) << p;
    for (std::size_t j = 0; j < 16; ++j) {
      ASSERT_EQ(r.input_of_output[j] >= 0, j < k) << p;
    }
  }
}

}  // namespace
}  // namespace pcs::sw
