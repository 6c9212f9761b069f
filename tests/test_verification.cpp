#include "core/verification.hpp"

#include <gtest/gtest.h>

#include "plan/plan_switch.hpp"
#include "switch/comparator_switch.hpp"
#include "plan/compile.hpp"
#include "switch/make_switch.hpp"

namespace pcs::core {
namespace {

TEST(Verification, LibrarySwitchesPass) {
  const plan::PlanSwitch hyper(make_switch_plan({"hyper", 64, 32}));
  const plan::PlanSwitch rev(make_switch_plan({"revsort", 64, 48}));
  const plan::PlanSwitch col(
      make_switch_plan({.family = "columnsort", .m = 48, .r = 16, .s = 4}));
  for (const pcs::sw::ConcentratorSwitch* sw :
       std::initializer_list<const pcs::sw::ConcentratorSwitch*>{&hyper, &rev,
                                                                 &col}) {
    Rng rng(430);
    VerifyReport report = verify_switch(*sw, rng);
    EXPECT_TRUE(report.all_passed()) << sw->name() << "\n" << report.to_string();
    EXPECT_GT(report.patterns_tried, 200u);
  }
}

TEST(Verification, ReportListsAllChecks) {
  const plan::PlanSwitch sw(make_switch_plan({"hyper", 16, 8}));
  Rng rng(431);
  VerifyReport report = verify_switch(sw, rng);
  ASSERT_EQ(report.checks.size(), 6u);
  std::string s = report.to_string();
  EXPECT_NE(s.find("PASS"), std::string::npos);
  EXPECT_NE(s.find("partial-concentration contract"), std::string::npos);
}

TEST(Verification, CatchesAnOverclaimedEpsilon) {
  // A truncated Batcher prefix declared with epsilon far below reality must
  // fail the epsilon and contract checks -- the harness works as a lie
  // detector, not just a rubber stamp.
  auto net = pcs::sortnet::ComparatorNetwork::odd_even_mergesort(64).truncated(8);
  pcs::sw::ComparatorSwitch liar(net, 64, 1, "overclaimed");
  Rng rng(432);
  VerifyReport report = verify_switch(liar, rng);
  EXPECT_FALSE(report.all_passed());
  bool epsilon_failed = false;
  for (const CheckResult& c : report.checks) {
    if (c.name.find("epsilon") != std::string::npos && !c.passed) {
      epsilon_failed = true;
      EXPECT_FALSE(c.counterexample.empty());
    }
  }
  EXPECT_TRUE(epsilon_failed);
}

TEST(Verification, FaultySwitchPassesWithEpsilonCheckDisabled) {
  pcs::plan::SwitchPlan plan = pcs::plan::compile_revsort_plan(64, 48);
  pcs::plan::apply_chip_faults(plan, {pcs::plan::ChipFault{1, 2}});
  pcs::plan::PlanSwitch sw(std::move(plan));
  Rng rng(433);
  VerifyOptions opts;
  opts.check_epsilon_bound = false;  // faults void the guarantee
  VerifyReport report = verify_switch(sw, rng, opts);
  // Routing stays well-formed even with dead chips...
  EXPECT_TRUE(report.checks[0].passed) << report.to_string();
  // ...but conservation fails by design: the dead chip eats messages, which
  // the harness surfaces rather than hides.
  EXPECT_FALSE(report.checks[1].passed);
}

TEST(Verification, DeterministicPerSeed) {
  const plan::PlanSwitch sw(make_switch_plan({"revsort", 64, 48}));
  Rng a(434), b(434);
  VerifyReport ra = verify_switch(sw, a);
  VerifyReport rb = verify_switch(sw, b);
  EXPECT_EQ(ra.patterns_tried, rb.patterns_tried);
  EXPECT_EQ(ra.all_passed(), rb.all_passed());
}

}  // namespace
}  // namespace pcs::core
