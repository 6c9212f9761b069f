#include "switch/gate_level_switch.hpp"

#include <gtest/gtest.h>

#include "plan/plan_switch.hpp"
#include "switch/make_switch.hpp"
#include "util/assert.hpp"
#include "util/mathutil.hpp"
#include "util/rng.hpp"

namespace pcs::sw {
namespace {

// The composed gate-level circuit must agree with the behavioural switch:
// the data bit observed at output position p equals the payload bit of the
// input routed there, and the valid arrangement matches.
template <typename GateSwitch, typename BehaviouralSwitch>
void expect_equivalent(const GateSwitch& gate, const BehaviouralSwitch& model,
                       const BitVec& valid, const BitVec& data) {
  GateLevelResult res = gate.evaluate(valid, data);
  EXPECT_EQ(res.valid, model.nearsorted_valid_bits(valid));
  SwitchRouting routing = model.route(valid);  // m = n: covers all outputs
  for (std::size_t p = 0; p < gate.n(); ++p) {
    std::int32_t src = routing.input_of_output[p];
    bool expected = (src >= 0) && data.get(static_cast<std::size_t>(src));
    EXPECT_EQ(res.data.get(p), expected) << "output " << p;
  }
}

TEST(GateLevelRevsort, MatchesBehaviouralSwitch) {
  Rng rng(260);
  for (std::size_t n : {4u, 16u, 64u}) {
    const GateLevelSwitch gate(make_switch_plan({"revsort", n}));
    const plan::PlanSwitch model(make_switch_plan({"revsort", n, n}));
    for (int trial = 0; trial < 15; ++trial) {
      BitVec valid = rng.bernoulli_bits(n, rng.uniform01());
      BitVec data = rng.bernoulli_bits(n, 0.5);
      expect_equivalent(gate, model, valid, data);
    }
  }
}

TEST(GateLevelRevsort, DataPathDepthIsThreeLgN) {
  // The composed circuit's measured message delay: 3 chips x 2 lg sqrt(n)
  // = 3 lg n, with wiring and hardwired shifters contributing zero.
  for (std::size_t side : {2u, 4u, 8u}) {
    const std::size_t n = side * side;
    const GateLevelSwitch gate(make_switch_plan({"revsort", n}));
    EXPECT_EQ(gate.data_path_depth(), 3 * 2 * exact_log2(side)) << "n=" << n;
  }
}

TEST(GateLevelRevsort, ShapeValidation) {
  EXPECT_THROW(GateLevelSwitch(make_switch_plan({"revsort", 32})),
               pcs::ContractViolation);
}

TEST(GateLevelColumnsort, MatchesBehaviouralSwitch) {
  Rng rng(261);
  for (auto [r, s] : {std::pair<std::size_t, std::size_t>{8, 2},
                      std::pair<std::size_t, std::size_t>{16, 4},
                      std::pair<std::size_t, std::size_t>{32, 4}}) {
    const GateLevelSwitch gate(
        make_switch_plan({.family = "columnsort", .r = r, .s = s}));
    const plan::PlanSwitch model(
        make_switch_plan({.family = "columnsort", .m = r * s, .r = r, .s = s}));
    for (int trial = 0; trial < 15; ++trial) {
      BitVec valid = rng.bernoulli_bits(r * s, rng.uniform01());
      BitVec data = rng.bernoulli_bits(r * s, 0.5);
      expect_equivalent(gate, model, valid, data);
    }
  }
}

TEST(GateLevelColumnsort, DataPathDepthIsFourLgR) {
  for (auto [r, s] : {std::pair<std::size_t, std::size_t>{8, 2},
                      std::pair<std::size_t, std::size_t>{16, 4},
                      std::pair<std::size_t, std::size_t>{64, 8}}) {
    const GateLevelSwitch gate(
        make_switch_plan({.family = "columnsort", .r = r, .s = s}));
    EXPECT_EQ(gate.data_path_depth(), 2 * 2 * ceil_log2(r)) << "r=" << r;
  }
}

TEST(GateLevelSwitch, ControlDepthExceedsDataDepth) {
  const GateLevelSwitch gate(
      make_switch_plan({.family = "columnsort", .r = 16, .s = 4}));
  EXPECT_GT(gate.control_path_depth(), gate.data_path_depth());
}

TEST(GateLevelSwitch, GateCountScalesWithStagesTimesChipArea) {
  // Revsort: 3 stages of v chips of ~c v^2 gates => ~3 c n v gates.
  const GateLevelSwitch g16(make_switch_plan({"revsort", 16}));   // v = 4
  const GateLevelSwitch g64(make_switch_plan({"revsort", 64}));   // v = 8
  double ratio = static_cast<double>(g64.gate_count()) /
                 static_cast<double>(g16.gate_count());
  // v^3 scaling: 8x, within a generous band.
  EXPECT_GT(ratio, 5.0);
  EXPECT_LT(ratio, 13.0);
}

TEST(GateLevelSwitch, ExhaustiveTinyRevsort) {
  const std::size_t n = 4;
  const GateLevelSwitch gate(make_switch_plan({"revsort", n}));
  const plan::PlanSwitch model(make_switch_plan({"revsort", n, n}));
  for (std::uint32_t vp = 0; vp < 16; ++vp) {
    for (std::uint32_t dp = 0; dp < 16; ++dp) {
      BitVec valid(n), data(n);
      for (std::size_t i = 0; i < n; ++i) {
        valid.set(i, (vp >> i) & 1u);
        data.set(i, (dp >> i) & 1u);
      }
      expect_equivalent(gate, model, valid, data);
    }
  }
}

}  // namespace
}  // namespace pcs::sw
