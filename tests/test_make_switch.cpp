
#include <gtest/gtest.h>

#include "core/invariants.hpp"
#include "plan/compile.hpp"
#include "plan/plan_switch.hpp"
#include "switch/make_switch.hpp"
#include "switch_oracles.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace pcs {
namespace {

// Routing equivalence on a handful of random patterns: the factory-built
// switch and the hardware-literal oracle must agree bit for bit.
template <class Oracle>
void expect_same_routing(const sw::ConcentratorSwitch& a, const Oracle& b,
                         std::size_t n, unsigned seed) {
  Rng rng(seed);
  for (std::size_t k : {std::size_t{0}, n / 8, n / 3, n / 2}) {
    BitVec valid = rng.exact_weight_bits(n, k);
    sw::SwitchRouting ra = a.route(valid);
    sw::SwitchRouting rb = b.route(valid);
    EXPECT_EQ(ra.output_of_input, rb.output_of_input);
    EXPECT_EQ(ra.input_of_output, rb.input_of_output);
  }
}

const plan::SwitchPlan& plan_of(const sw::ConcentratorSwitch& sw) {
  const auto* ps = dynamic_cast<const plan::PlanSwitch*>(&sw);
  EXPECT_NE(ps, nullptr);
  return ps->plan();
}

TEST(MakeSwitch, RevsortMatchesLegacyClass) {
  SwitchSpec spec;
  spec.family = "revsort";
  spec.n = 256;
  spec.m = 192;
  auto made = make_switch(spec);

  EXPECT_EQ(made->name(), "revsort(256,192)");
  EXPECT_EQ(made->inputs(), 256u);
  EXPECT_EQ(made->outputs(), 192u);
  EXPECT_EQ(made->epsilon_bound(), 112u);  // 7 dirty rows of 16
  EXPECT_EQ(plan_of(*made).digest(),
            plan::compile_revsort_plan(256, 192).digest());
  expect_same_routing(*made, oracle::RevsortWiring(256, 192), 256, 21);
}

TEST(MakeSwitch, ColumnsortExplicitShapeMatchesCompiler) {
  SwitchSpec spec;
  spec.family = "columnsort";
  spec.r = 64;
  spec.s = 8;
  spec.m = 384;
  auto made = make_switch(spec);

  EXPECT_EQ(made->name(), "columnsort(r=64,s=8,m=384)");
  EXPECT_EQ(made->epsilon_bound(), 49u);  // (s-1)^2
  EXPECT_EQ(plan_of(*made).digest(),
            plan::compile_columnsort_plan(64, 8, 384).digest());
  expect_same_routing(*made, oracle::ColumnsortWiring(64, 8, 384), 512, 22);
}

TEST(MakeSwitch, ColumnsortBetaShapeMatchesBetaCompiler) {
  SwitchSpec spec;
  spec.family = "columnsort";
  spec.n = 4096;
  spec.beta = 0.75;
  spec.m = 2048;
  auto made = make_switch(spec);
  EXPECT_EQ(plan_of(*made).digest(),
            plan::compile_columnsort_plan_beta(4096, 0.75, 2048).digest());
}

TEST(MakeSwitch, MultipassMatchesCompiler) {
  SwitchSpec spec;
  spec.family = "multipass";
  spec.r = 64;
  spec.s = 8;
  spec.passes = 3;
  spec.m = 384;
  spec.schedule = plan::ReshapeSchedule::kAlternating;
  auto made = make_switch(spec);
  EXPECT_EQ(plan_of(*made).digest(),
            plan::compile_multipass_plan(64, 8, 3, 384,
                                         plan::ReshapeSchedule::kAlternating)
                .digest());
}

TEST(MakeSwitch, FullSortingFamiliesMatchCompilers) {
  SwitchSpec fr;
  fr.family = "full-revsort";
  fr.n = 256;
  EXPECT_EQ(plan_of(*make_switch(fr)).digest(),
            plan::compile_full_revsort_plan(256).digest());

  SwitchSpec fc;
  fc.family = "full-columnsort";
  fc.r = 128;  // needs s | r and r >= 2(s-1)^2
  fc.s = 8;
  EXPECT_EQ(plan_of(*make_switch(fc)).digest(),
            plan::compile_full_columnsort_plan(128, 8).digest());
}

TEST(MakeSwitch, HyperReturnsSingleChipSwitch) {
  SwitchSpec spec;
  spec.family = "hyper";
  spec.n = 64;
  spec.m = 16;
  auto made = make_switch(spec);
  const oracle::HyperOracle chip(64, 16);
  EXPECT_EQ(made->name(), chip.name());
  EXPECT_EQ(made->epsilon_bound(), 0u);
  EXPECT_EQ(plan_of(*made).digest(), plan::compile_hyper_plan(64, 16).digest());
  EXPECT_EQ(plan_of(*made).chip_count(), 1u);
  expect_same_routing(*made, chip, 64, 23);
}

TEST(MakeSwitch, FaultedHyperLosesOnlyWithinMaxFaultLoss) {
  // The single chip dead: every message is lost, and the switch says so.
  SwitchSpec spec;
  spec.family = "hyper";
  spec.n = 64;
  spec.m = 16;
  spec.faults = {{0, 0}};
  const auto sw = make_switch(spec);
  SwitchSpec healthy_spec = spec;
  healthy_spec.faults.clear();
  const auto healthy = make_switch(healthy_spec);
  EXPECT_EQ(sw->max_fault_loss(), 64u);
  EXPECT_EQ(sw->epsilon_bound(), 64u);
  EXPECT_EQ(sw->guaranteed_capacity(), 0u);
  EXPECT_EQ(sw->name(), "faulty-hyperconcentrator(64,16,dead=1)");
  Rng rng(24);
  for (std::size_t k : {std::size_t{0}, std::size_t{5}, std::size_t{40}}) {
    const BitVec valid = rng.exact_weight_bits(64, k);
    const sw::SwitchRouting routing = sw->route(valid);
    EXPECT_EQ(routing.routed_count(), 0u) << "k=" << k;
    core::InvariantReport report;
    EXPECT_TRUE(core::check_pattern(*sw, valid, report)) << report.to_string();
    EXPECT_TRUE(core::check_fault_loss(*sw, valid, routing,
                                       healthy->route(valid).routed_count(),
                                       sw->max_fault_loss(), report))
        << report.to_string();
  }
}

TEST(MakeSwitch, ZeroOutputsMeansAllOutputs) {
  SwitchSpec all;
  all.family = "revsort";
  all.n = 256;  // m left 0
  SwitchSpec full;
  full.family = "revsort";
  full.n = 256;
  full.m = 256;
  EXPECT_EQ(make_switch_plan(all).digest(), make_switch_plan(full).digest());
  EXPECT_EQ(make_switch(all)->outputs(), 256u);
}

TEST(MakeSwitch, FaultsWeakenThePlan) {
  SwitchSpec spec;
  spec.family = "revsort";
  spec.n = 256;
  spec.m = 192;
  SwitchSpec faulty = spec;
  faulty.faults = {{0, 0}};

  plan::SwitchPlan reference = plan::compile_revsort_plan(256, 192);
  plan::apply_chip_faults(reference, {{0, 0}});
  EXPECT_EQ(make_switch_plan(faulty).digest(), reference.digest());
  EXPECT_GT(make_switch(faulty)->epsilon_bound(),
            make_switch(spec)->epsilon_bound());
}

TEST(MakeSwitch, BadSpecsThrowContractViolations) {
  SwitchSpec unknown;
  unknown.family = "quantum";
  unknown.n = 64;
  EXPECT_THROW(make_switch(unknown), ContractViolation);
  EXPECT_THROW(make_switch_plan(unknown), ContractViolation);

  SwitchSpec no_such_chip;
  no_such_chip.family = "hyper";
  no_such_chip.n = 64;
  no_such_chip.faults = {{0, 1}};  // the single chip is chip 0 of stage 0
  EXPECT_THROW(make_switch(no_such_chip), ContractViolation);

  SwitchSpec half_shape;
  half_shape.family = "columnsort";
  half_shape.r = 64;  // s left 0
  EXPECT_THROW(make_switch_plan(half_shape), ContractViolation);

  SwitchSpec shapeless_multipass;
  shapeless_multipass.family = "multipass";
  shapeless_multipass.n = 512;
  EXPECT_THROW(make_switch_plan(shapeless_multipass), ContractViolation);

  SwitchSpec partial_full;
  partial_full.family = "full-revsort";
  partial_full.n = 256;
  partial_full.m = 128;  // fully sorting family cannot drop outputs
  EXPECT_THROW(make_switch_plan(partial_full), ContractViolation);
}

}  // namespace
}  // namespace pcs
