// Tests for the invariant-checker library (core/invariants.hpp) itself:
// clean switches pass every check, and deliberately corrupted routings /
// arrangements are caught with messages that name the offending values.
// The differential fuzzer trusts these checkers; this file is what makes
// that trust earned.
#include "core/invariants.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "plan/compile.hpp"
#include "plan/plan_switch.hpp"
#include "switch/make_switch.hpp"
#include "util/rng.hpp"

namespace pcs::core {
namespace {

TEST(Invariants, CleanSwitchesPassEveryCheck) {
  const plan::PlanSwitch rev(make_switch_plan({"revsort", 64, 48}));
  const plan::PlanSwitch col(
      make_switch_plan({.family = "columnsort", .m = 40, .r = 16, .s = 4}));
  const plan::PlanSwitch hyper(make_switch_plan({"hyper", 64, 64}));
  const plan::PlanSwitch full(make_switch_plan({"full-revsort", 64}));
  const plan::PlanSwitch multi(
      make_switch_plan({.family = "multipass", .m = 48, .r = 16, .s = 4,
                        .passes = 2,
                        .schedule = plan::ReshapeSchedule::kAlternating}));
  const sw::ConcentratorSwitch* switches[] = {&rev, &col, &hyper, &full, &multi};
  Rng rng(1000);
  InvariantReport report;
  for (const sw::ConcentratorSwitch* s : switches) {
    for (int t = 0; t < 8; ++t) {
      EXPECT_TRUE(check_pattern(*s, rng.bernoulli_bits(s->inputs(), 0.4), report))
          << report.to_string();
    }
  }
  EXPECT_TRUE(report.ok());
  EXPECT_GT(report.checks_run, 0u);
  EXPECT_NE(report.to_string().find("passed"), std::string::npos);
}

TEST(Invariants, DescribePatternNamesSizeCountAndBits) {
  BitVec v(8);
  v.set(0, true);
  v.set(5, true);
  const std::string s = describe_pattern(v);
  EXPECT_NE(s.find("n=8"), std::string::npos);
  EXPECT_NE(s.find("k=2"), std::string::npos);
  EXPECT_NE(s.find("10000100"), std::string::npos);
}

TEST(Invariants, DescribePatternTruncatesLongPatterns) {
  const std::string s = describe_pattern(BitVec::prefix_ones(200, 200));
  EXPECT_NE(s.find("n=200"), std::string::npos);
  EXPECT_NE(s.find("(104 more)"), std::string::npos);
}

TEST(Invariants, PartialInjectionCatchesWrongSizes) {
  const plan::PlanSwitch sw(make_switch_plan({"revsort", 16, 16}));
  const BitVec valid = BitVec::prefix_ones(16, 5);
  sw::SwitchRouting routing = sw.route(valid);
  routing.input_of_output.pop_back();
  InvariantReport report;
  EXPECT_FALSE(check_partial_injection(sw, valid, routing, report));
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].invariant, "partial-injection");
  EXPECT_NE(report.violations[0].detail.find("16x15"), std::string::npos);
}

TEST(Invariants, PartialInjectionCatchesInvalidSource) {
  const plan::PlanSwitch sw(make_switch_plan({"revsort", 16, 16}));
  const BitVec valid = BitVec::prefix_ones(16, 5);
  sw::SwitchRouting routing = sw.route(valid);
  // Re-point an occupied output at an input whose valid bit is 0.
  for (std::size_t j = 0; j < routing.input_of_output.size(); ++j) {
    if (routing.input_of_output[j] < 0) continue;
    const std::int32_t old = routing.input_of_output[j];
    routing.input_of_output[j] = 10;  // valid.get(10) == false
    routing.output_of_input[10] = static_cast<std::int32_t>(j);
    routing.output_of_input[old] = -1;
    break;
  }
  InvariantReport report;
  EXPECT_FALSE(check_partial_injection(sw, valid, routing, report));
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.violations[0].detail.find("input 10"), std::string::npos);
}

TEST(Invariants, ConcentrationCatchesDroppedMessage) {
  const plan::PlanSwitch sw(make_switch_plan({"hyper", 32, 32}));
  const BitVec valid = BitVec::prefix_ones(32, 9);
  sw::SwitchRouting routing = sw.route(valid);
  // Vacate one occupied output: k <= capacity now routes only k - 1.
  const std::int32_t src = routing.input_of_output[3];
  ASSERT_GE(src, 0);
  routing.input_of_output[3] = -1;
  routing.output_of_input[src] = -1;
  InvariantReport report;
  EXPECT_FALSE(check_concentration(sw, valid, routing, report));
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations[0].invariant, "concentration");
  EXPECT_NE(report.violations[0].detail.find("k=9"), std::string::npos);
}

TEST(Invariants, ConcentrationCatchesPrefixHole) {
  // epsilon_bound() == 0 switches must fill exactly the first min(k, m)
  // outputs; moving a message past the prefix is a hole plus an overflow.
  const plan::PlanSwitch sw(make_switch_plan({"hyper", 32, 32}));
  const BitVec valid = BitVec::prefix_ones(32, 9);
  sw::SwitchRouting routing = sw.route(valid);
  const std::int32_t src = routing.input_of_output[2];
  ASSERT_GE(src, 0);
  routing.input_of_output[2] = -1;
  routing.input_of_output[20] = src;
  routing.output_of_input[src] = 20;
  InvariantReport report;
  EXPECT_FALSE(check_concentration(sw, valid, routing, report));
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.violations[0].detail.find("prefix"), std::string::npos);
}

TEST(Invariants, EpsilonBoundCatchesCountMismatch) {
  const plan::PlanSwitch sw(make_switch_plan({"revsort", 16, 16}));
  const BitVec valid = BitVec::prefix_ones(16, 6);
  InvariantReport report;
  EXPECT_FALSE(check_epsilon_bound(sw, valid, BitVec::prefix_ones(16, 5), report));
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations[0].invariant, "epsilon-bound");
  EXPECT_NE(report.violations[0].detail.find("5 ones"), std::string::npos);
}

TEST(Invariants, EpsilonBoundCatchesExcessEpsilon) {
  // advertised epsilon: (s-1)^2 = 9
  const plan::PlanSwitch sw(
      make_switch_plan({.family = "columnsort", .m = 64, .r = 16, .s = 4}));
  BitVec suffix(64);
  for (std::size_t i = 32; i < 64; ++i) suffix.set(i, true);
  BitVec valid(64);
  for (std::size_t i = 0; i < 32; ++i) valid.set(i, true);
  InvariantReport report;
  // A suffix-ones "arrangement" has maximal displacement -- far beyond any
  // advertised bound.
  EXPECT_FALSE(check_epsilon_bound(sw, valid, suffix, report));
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.violations[0].detail.find("exceeds advertised bound"),
            std::string::npos);
}

TEST(Invariants, EpsilonBoundSkipsUnboundedSwitches) {
  // Faulty switches advertise epsilon_bound() == n: any arrangement with the
  // right count passes (there is no guarantee to violate).
  plan::SwitchPlan p = plan::compile_revsort_plan(64, 64);
  plan::apply_chip_faults(p, {plan::ChipFault{1, 2}});
  const plan::PlanSwitch sw(std::move(p));
  BitVec arrangement(64);
  for (std::size_t i = 40; i < 50; ++i) arrangement.set(i, true);
  BitVec valid = BitVec::prefix_ones(64, 10);
  InvariantReport report;
  EXPECT_TRUE(check_epsilon_bound(sw, valid, arrangement, report));
}

TEST(Invariants, EpsilonBoundToleratesFaultLossButNoMore) {
  // Messages swallowed by dead chips never reach the arrangement; the
  // conservation clause must allow up to max_fault_loss() missing ones
  // (this is the runtime's per-epoch check on a `faults=` config) while
  // still rejecting losses the faults cannot explain.
  plan::SwitchPlan p = plan::compile_revsort_plan(64, 64);
  plan::apply_chip_faults(p, {plan::ChipFault{0, 3}});
  const plan::PlanSwitch sw(std::move(p));
  const BitVec valid = BitVec::prefix_ones(64, 20);
  {
    InvariantReport report;
    EXPECT_TRUE(check_epsilon_bound(
        sw, valid, sw.nearsorted_valid_bits(valid), report));
    EXPECT_TRUE(report.ok());
  }
  {
    // Losing more than max_fault_loss() is still a violation.
    InvariantReport report;
    const BitVec starved =
        BitVec::prefix_ones(64, 20 - sw.max_fault_loss() - 1);
    EXPECT_FALSE(check_epsilon_bound(sw, valid, starved, report));
    ASSERT_FALSE(report.ok());
    EXPECT_NE(report.violations[0].detail.find("max_fault_loss"),
              std::string::npos);
  }
  {
    // Creating messages is never allowed, faults or not.
    InvariantReport report;
    EXPECT_FALSE(
        check_epsilon_bound(sw, valid, BitVec::prefix_ones(64, 21), report));
  }
}

TEST(Invariants, BatchIdentityPassesAcrossLaneBoundaries) {
  const plan::PlanSwitch sw(
      make_switch_plan({.family = "columnsort", .m = 48, .r = 16, .s = 4}));
  Rng rng(1001);
  for (std::size_t b : {1u, 63u, 64u, 65u}) {
    std::vector<BitVec> valids;
    for (std::size_t i = 0; i < b; ++i) {
      valids.push_back(rng.bernoulli_bits(64, 0.5));
    }
    InvariantReport report;
    EXPECT_TRUE(check_batch_identity(sw, valids, report))
        << "batch=" << b << ": " << report.to_string();
  }
}

TEST(Invariants, FaultLossPassesRealFaultySwitch) {
  const std::size_t n = 64;
  plan::SwitchPlan p = plan::compile_revsort_plan(n, 48);
  plan::apply_chip_faults(p, {plan::ChipFault{0, 1}, plan::ChipFault{2, 3}});
  const plan::PlanSwitch faulty(std::move(p));
  const plan::PlanSwitch healthy(make_switch_plan({"revsort", n, 48}));
  Rng rng(1002);
  InvariantReport report;
  for (int t = 0; t < 16; ++t) {
    const BitVec valid = rng.bernoulli_bits(n, rng.uniform01());
    const sw::SwitchRouting routing = faulty.route(valid);
    const std::size_t baseline = healthy.route(valid).routed_count();
    EXPECT_TRUE(check_fault_loss(faulty, valid, routing, baseline,
                                 faulty.max_fault_loss(), report))
        << report.to_string();
  }
}

TEST(Invariants, FaultLossCatchesExcessLoss) {
  plan::SwitchPlan p = plan::compile_revsort_plan(64, 64);
  plan::apply_chip_faults(p, {plan::ChipFault{1, 2}});
  const plan::PlanSwitch faulty(std::move(p));
  const BitVec valid = BitVec::prefix_ones(64, 64);
  const sw::SwitchRouting routing = faulty.route(valid);
  InvariantReport report;
  // Demand an impossible baseline: more than routed + allowed loss.
  const std::size_t baseline = routing.routed_count() + faulty.max_fault_loss() + 1;
  EXPECT_FALSE(check_fault_loss(faulty, valid, routing, baseline,
                                faulty.max_fault_loss(), report));
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations[0].invariant, "fault-loss");
  EXPECT_NE(report.violations[0].detail.find("max_fault_loss="), std::string::npos);
}

TEST(Invariants, ReportAccumulatesAndFormats) {
  InvariantReport report;
  EXPECT_TRUE(report.ok());
  report.add("demo-invariant", "first detail");
  report.add("demo-invariant", "second detail");
  report.checks_run = 7;
  EXPECT_FALSE(report.ok());
  const std::string s = report.to_string();
  EXPECT_NE(s.find("2 violation(s) in 7 checks"), std::string::npos);
  EXPECT_NE(s.find("[demo-invariant] first detail"), std::string::npos);
  EXPECT_NE(s.find("second detail"), std::string::npos);
}

}  // namespace
}  // namespace pcs::core
