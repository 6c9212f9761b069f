// Bound-stress search: deterministic per seed, never below the paper's
// guaranteed floor, correct derived ratios, and genuinely adversarial --
// the worst pattern found routes no more than the structured family does.
#include "traffic/search.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "plan/plan_switch.hpp"
#include "switch/make_switch.hpp"
#include "traffic/pattern.hpp"
#include "util/assert.hpp"

namespace pcs::traffic {
namespace {

SearchOptions fast_opts(std::size_t k = 0) {
  SearchOptions o;
  o.k = k;
  o.restarts = 6;
  o.steps = 60;
  o.seed = 1987;
  return o;
}

TEST(TrafficSearch, DefaultsToJustPastTheGuarantee) {
  const plan::PlanSwitch s(make_switch_plan({"revsort", 64, 48}));
  const SearchResult r = worst_concentration_search(s, fast_opts());
  EXPECT_EQ(r.k, s.guaranteed_capacity() + 1);
  EXPECT_EQ(r.worst.count(), r.k);
  EXPECT_GT(r.evaluations, 0u);
}

TEST(TrafficSearch, NeverBeatsTheContractFloor) {
  const plan::PlanSwitch s(make_switch_plan({"revsort", 64, 48}));
  const std::size_t cap = s.guaranteed_capacity();
  for (std::size_t k : {cap + 1, cap + 3, std::size_t{48}, std::size_t{64}}) {
    const SearchResult r = worst_concentration_search(s, fast_opts(k));
    EXPECT_GE(r.routed, std::min(k, cap)) << "k=" << k;
    EXPECT_LE(r.routed, std::min(k, s.outputs())) << "k=" << k;
    const double denom = static_cast<double>(std::min(k, s.outputs()));
    EXPECT_DOUBLE_EQ(r.concentration, static_cast<double>(r.routed) / denom);
    EXPECT_DOUBLE_EQ(r.bound,
                     static_cast<double>(std::min(k, cap)) / denom);
    EXPECT_GE(r.concentration, r.bound - 1e-12) << "k=" << k;
  }
}

TEST(TrafficSearch, BelowCapacityEverythingRoutes) {
  const plan::PlanSwitch s(make_switch_plan({"revsort", 64, 48}));
  const std::size_t k = s.guaranteed_capacity();
  const SearchResult r = worst_concentration_search(s, fast_opts(k));
  EXPECT_EQ(r.routed, k);
  EXPECT_DOUBLE_EQ(r.concentration, 1.0);
}

TEST(TrafficSearch, DeterministicPerSeed) {
  const plan::PlanSwitch s(make_switch_plan({"revsort", 64, 48}));
  const SearchResult a = worst_concentration_search(s, fast_opts());
  const SearchResult b = worst_concentration_search(s, fast_opts());
  EXPECT_EQ(a.worst, b.worst);
  EXPECT_EQ(a.routed, b.routed);
  EXPECT_EQ(a.evaluations, b.evaluations);
}

TEST(TrafficSearch, AtLeastAsBadAsTheStructuredFamily) {
  // The restarts seed from the structured adversarial layouts, so the hill
  // climb can only improve (lower routed count) on the family's best.
  const plan::PlanSwitch s(make_switch_plan({"revsort", 64, 48}));
  SearchOptions o = fast_opts(s.outputs());
  const SearchResult r = worst_concentration_search(s, o);
  std::size_t family_best = s.outputs();
  for (std::size_t i = 0; i < kAdversarialFamilySize; ++i) {
    const BitVec layout = adversarial_layout(64, o.k, o.chip_w, i);
    family_best = std::min(family_best, s.route(layout).routed_count());
  }
  EXPECT_LE(r.routed, family_best);
}

TEST(TrafficSearch, RejectsImpossibleK) {
  const plan::PlanSwitch s(make_switch_plan({"revsort", 64, 48}));
  EXPECT_THROW(worst_concentration_search(s, fast_opts(65)), ContractViolation);
}

}  // namespace
}  // namespace pcs::traffic
