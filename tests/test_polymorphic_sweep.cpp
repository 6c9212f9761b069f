// Cross-design sweeps through the common ConcentratorSwitch interface:
// every switch family in the library is driven through the same checks --
// partial injection, count conservation, contract, Lemma 2, and clocked
// payload integrity -- in one place.  New switch classes added to the
// factory list below get the whole battery for free.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/lemmas.hpp"
#include "message/clocked_sim.hpp"
#include "plan/compile.hpp"
#include "plan/plan_switch.hpp"
#include "switch/comparator_switch.hpp"
#include "switch/make_switch.hpp"
#include "switch/prefix_butterfly_switch.hpp"
#include "util/rng.hpp"

namespace pcs::sw {
namespace {

std::vector<std::unique_ptr<ConcentratorSwitch>> all_switches() {
  std::vector<std::unique_ptr<ConcentratorSwitch>> out;
  out.push_back(pcs::make_switch({"hyper", 64, 40}));
  out.push_back(std::make_unique<PrefixButterflyHyperSwitch>(64, 40));
  out.push_back(pcs::make_switch({"revsort", 64, 40}));
  out.push_back(pcs::make_switch({.family = "columnsort", .m = 40, .r = 16, .s = 4}));
  out.push_back(pcs::make_switch(
      {.family = "multipass", .m = 40, .r = 16, .s = 4, .passes = 2}));
  out.push_back(pcs::make_switch(
      {.family = "multipass", .m = 40, .r = 16, .s = 4, .passes = 3,
       .schedule = plan::ReshapeSchedule::kAlternating}));
  out.push_back(pcs::make_switch({"full-revsort", 64}));
  out.push_back(pcs::make_switch({.family = "full-columnsort", .r = 32, .s = 2}));
  out.push_back(
      std::make_unique<ComparatorSwitch>(ComparatorSwitch::batcher_hyper(64, 40)));
  plan::SwitchPlan faulty = plan::compile_revsort_plan(64, 40);
  plan::apply_chip_faults(faulty, {plan::ChipFault{1, 2}});
  out.push_back(std::make_unique<plan::PlanSwitch>(std::move(faulty)));
  return out;
}

TEST(PolymorphicSweep, RoutingInvariantsEverywhere) {
  auto switches = all_switches();
  Rng rng(360);
  for (const auto& sw : switches) {
    for (int t = 0; t < 15; ++t) {
      BitVec valid = rng.bernoulli_bits(sw->inputs(), rng.uniform01());
      SwitchRouting r = sw->route(valid);
      ASSERT_TRUE(r.is_partial_injection()) << sw->name();
      ASSERT_LE(r.routed_count(), valid.count()) << sw->name();
      ASSERT_EQ(r.output_of_input.size(), sw->inputs()) << sw->name();
      ASSERT_EQ(r.input_of_output.size(), sw->outputs()) << sw->name();
      // Every routed output points at a genuinely valid input.
      for (std::size_t j = 0; j < sw->outputs(); ++j) {
        std::int32_t src = r.input_of_output[j];
        if (src >= 0) {
          ASSERT_TRUE(valid.get(static_cast<std::size_t>(src))) << sw->name();
        }
      }
    }
  }
}

TEST(PolymorphicSweep, ArrangementConservesCount) {
  auto switches = all_switches();
  Rng rng(361);
  for (const auto& sw : switches) {
    // Fault-injected switches drop messages by design; skip conservation.
    if (sw->name().find("faulty") != std::string::npos) continue;
    for (int t = 0; t < 10; ++t) {
      BitVec valid = rng.bernoulli_bits(sw->inputs(), 0.5);
      EXPECT_EQ(sw->nearsorted_valid_bits(valid).count(), valid.count())
          << sw->name();
    }
  }
}

TEST(PolymorphicSweep, ContractWhereAdvertised) {
  auto switches = all_switches();
  Rng rng(362);
  for (const auto& sw : switches) {
    if (sw->epsilon_bound() >= sw->inputs()) continue;  // no guarantee (faulty)
    for (std::size_t k = 0; k <= sw->inputs(); k += 9) {
      BitVec valid = rng.exact_weight_bits(sw->inputs(), k);
      SwitchRouting r = sw->route(valid);
      EXPECT_TRUE(concentration_contract_holds(*sw, valid, r))
          << sw->name() << " k=" << k;
    }
  }
}

TEST(PolymorphicSweep, ClockedPayloadsIntactEverywhere) {
  auto switches = all_switches();
  Rng rng(363);
  for (const auto& sw : switches) {
    BitVec valid = rng.bernoulli_bits(sw->inputs(), 0.4);
    pcs::msg::MessageBatch batch = pcs::msg::random_batch(valid, 16, 4, rng);
    pcs::msg::ClockedSimResult result = pcs::msg::run_clocked(*sw, batch);
    EXPECT_TRUE(result.payloads_intact(batch)) << sw->name();
    EXPECT_EQ(result.delivered.size() + result.congested.size(), batch.count())
        << sw->name();
  }
}

TEST(PolymorphicSweep, Lemma2HoldsOnMeasuredEpsilon) {
  auto switches = all_switches();
  Rng rng(364);
  for (const auto& sw : switches) {
    if (sw->name().find("faulty") != std::string::npos) continue;
    for (int t = 0; t < 10; ++t) {
      BitVec valid = rng.bernoulli_bits(sw->inputs(), rng.uniform01());
      pcs::core::Lemma2Check check = pcs::core::check_lemma2(*sw, valid);
      EXPECT_TRUE(check.holds) << sw->name() << ": " << check.detail;
    }
  }
}

}  // namespace
}  // namespace pcs::sw
