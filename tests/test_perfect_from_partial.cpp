#include "switch/perfect_from_partial.hpp"

#include <gtest/gtest.h>

#include "plan/plan_switch.hpp"
#include "switch/make_switch.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace pcs::sw {
namespace {

TEST(PerfectFromPartial, ConstructorEnforcesCapacity) {
  // epsilon = 7*16 = 112, capacity = 88
  const plan::PlanSwitch inner(
      make_switch_plan({"revsort", 256, 200}));
  ASSERT_EQ(inner.guaranteed_capacity(), 88u);
  EXPECT_NO_THROW(PerfectFromPartial(inner, 128, 88));
  EXPECT_THROW(PerfectFromPartial(inner, 128, 89), pcs::ContractViolation);
  EXPECT_THROW(PerfectFromPartial(inner, 300, 50), pcs::ContractViolation);  // n too big
}

TEST(PerfectFromPartial, DeliversPerfectContract) {
  // Inner: Columnsort r=64, s=8 -> epsilon 49; with m_inner = 512,
  // capacity = 463.  Wrap as a 256-by-200 "perfect" concentrator.
  const plan::PlanSwitch inner(
      make_switch_plan({.family = "columnsort", .m = 512, .r = 64, .s = 8}));
  PerfectFromPartial perfect(inner, 256, 200);
  Rng rng(170);
  for (std::size_t k = 0; k <= 256; k += 16) {
    BitVec valid = rng.exact_weight_bits(256, k);
    SwitchRouting r = perfect.route(valid);
    EXPECT_TRUE(r.is_partial_injection());
    EXPECT_GE(r.routed_count(), perfect.guaranteed_routed(k)) << "k=" << k;
  }
}

TEST(PerfectFromPartial, GuaranteeFormula) {
  const plan::PlanSwitch inner(
      make_switch_plan({.family = "columnsort", .m = 512, .r = 64, .s = 8}));
  PerfectFromPartial perfect(inner, 256, 200);
  EXPECT_EQ(perfect.guaranteed_routed(0), 0u);
  EXPECT_EQ(perfect.guaranteed_routed(150), 150u);
  EXPECT_EQ(perfect.guaranteed_routed(201), 200u);
  EXPECT_EQ(perfect.guaranteed_routed(256), 200u);
}

TEST(PerfectFromPartial, OverheadFactor) {
  // The paper's 1/alpha wire overhead: inner inputs / wrapper inputs.
  const plan::PlanSwitch inner(
      make_switch_plan({.family = "columnsort", .m = 512, .r = 64, .s = 8}));
  PerfectFromPartial perfect(inner, 256, 200);
  EXPECT_DOUBLE_EQ(perfect.input_overhead(), 2.0);
}

TEST(PerfectFromPartial, UnusedInnerInputsStayInvalid) {
  // epsilon = 5*8=40 -> capacity 24
  const plan::PlanSwitch inner(
      make_switch_plan({"revsort", 64, 64}));
  PerfectFromPartial perfect(inner, 32, 24);
  BitVec valid(32, true);
  SwitchRouting r = perfect.route(valid);
  EXPECT_EQ(r.output_of_input.size(), 32u);
  // All 32 offered; at least 24 must be routed.
  EXPECT_GE(r.routed_count(), 24u);
}

}  // namespace
}  // namespace pcs::sw
