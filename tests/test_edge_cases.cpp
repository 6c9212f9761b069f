// Edge cases and error paths across modules, gathered in one sweep.
#include <gtest/gtest.h>

#include "hyper/hyper_circuit.hpp"
#include "label_mesh.hpp"
#include "network/multistage.hpp"
#include "plan/plan_switch.hpp"
#include "runtime/fabric_runtime.hpp"
#include "switch/make_switch.hpp"
#include "switch/wiring.hpp"
#include "traffic/traffic_source.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace pcs {
namespace {

TEST(EdgeCases, PermutationThenIsAssociative) {
  Rng rng(440);
  auto random_perm = [&](std::size_t n) {
    std::vector<std::uint32_t> d(n);
    for (std::size_t i = 0; i < n; ++i) d[i] = static_cast<std::uint32_t>(i);
    for (std::size_t i = n - 1; i > 0; --i) std::swap(d[i], d[rng.below(i + 1)]);
    return sw::Permutation(d);
  };
  sw::Permutation a = random_perm(12), b = random_perm(12), c = random_perm(12);
  EXPECT_EQ(a.then(b).then(c), a.then(b.then(c)));
}

TEST(EdgeCases, PermutationSizeMismatchThrows) {
  sw::Permutation a = sw::Permutation::identity(4);
  sw::Permutation b = sw::Permutation::identity(5);
  EXPECT_THROW(a.then(b), ContractViolation);
  EXPECT_THROW(a.apply(std::vector<std::int32_t>(5, -1)), ContractViolation);
}

TEST(EdgeCases, LabelMeshSizeMismatches) {
  EXPECT_THROW(sw::LabelMesh::from_row_major_valid(BitVec(7), 2, 3),
               ContractViolation);
  EXPECT_THROW(sw::LabelMesh::from_col_major_valid(BitVec(5), 2, 3),
               ContractViolation);
  sw::LabelMesh m(2, 3);
  EXPECT_THROW(m.get(2, 0), ContractViolation);
  EXPECT_THROW(m.rotate_row_right(5, 1), ContractViolation);
}

TEST(EdgeCases, HyperCircuitEmptyAndFull) {
  hyper::HyperCircuit hc(5);
  auto none = hc.evaluate(BitVec(5), BitVec(5, true));
  EXPECT_EQ(none.valid.count(), 0u);
  EXPECT_EQ(none.data.count(), 0u);  // no valid inputs: all outputs quiet
  auto all = hc.evaluate(BitVec(5, true), BitVec(5, true));
  EXPECT_EQ(all.valid.count(), 5u);
  EXPECT_EQ(all.data.count(), 5u);
}

TEST(EdgeCases, FullSorterArrangementIsSorted) {
  const plan::PlanSwitch sw(make_switch_plan({"full-revsort", 64}));
  Rng rng(441);
  for (int t = 0; t < 10; ++t) {
    BitVec valid = rng.bernoulli_bits(64, rng.uniform01());
    EXPECT_TRUE(sw.nearsorted_valid_bits(valid).is_sorted_nonincreasing());
  }
}

TEST(EdgeCases, MisroutePolicyWithEverythingBusy) {
  // All wires saturated, one queue slot each: every misrouted loser must
  // find a wire again (its own slot has just emptied), never overflow.
  const plan::PlanSwitch sw(make_switch_plan({"hyper", 8, 1}));
  rt::RuntimeOptions opts;
  opts.queue_depth = 1;
  opts.policy = rt::CongestionPolicy::kMisrouteRetry;
  opts.lanes = 1;
  opts.seed = 442;
  opts.warmup_epochs = 0;
  opts.measure_epochs = 100;
  opts.drain_epochs_max = 0;
  rt::FabricRuntime runtime(sw, opts, [](std::size_t) {
    return std::make_unique<traffic::ComposedSource>(
        traffic::PatternKind::kUniform,
        std::make_unique<traffic::BernoulliProcess>(8, 1.0), 0.125);
  });
  rt::MetricsRegistry metrics;
  runtime.run(metrics);
  EXPECT_EQ(metrics.counter("dropped").value(), 0u);
  // Exactly one per round through m = 1.
  EXPECT_EQ(metrics.counter("delivered").value(), 100u);
  EXPECT_GT(metrics.histogram("backlog").max(), 5u);
}

TEST(EdgeCases, TrafficValidation) {
  EXPECT_THROW(traffic::BernoulliProcess(8, 1.5), ContractViolation);
  EXPECT_THROW(traffic::OnOffProcess(8, 0.5, 0.5, 1.5, 0.1), ContractViolation);
  EXPECT_THROW(traffic::AdversarialSource(8, 3, 0), ContractViolation);
  traffic::ExactCountProcess zero(8, 0);
  Rng rng(443);
  EXPECT_EQ(zero.next(rng).count(), 0u);
}

TEST(EdgeCases, SingleLevelMultistageEqualsItsSwitch) {
  net::MultistageNetwork netw(16, {net::MultistageNetwork::LevelSpec{16, 8}},
                              net::hyper_factory());
  const plan::PlanSwitch direct(make_switch_plan({"hyper", 16, 8}));
  Rng rng(444);
  for (int t = 0; t < 10; ++t) {
    BitVec valid = rng.bernoulli_bits(16, 0.6);
    auto shot = netw.route_once(valid);
    auto r = direct.route(valid);
    EXPECT_EQ(shot.survivors[0], r.routed_count());
    for (std::size_t i = 0; i < 16; ++i) {
      EXPECT_EQ(shot.trunk_output_of_source[i], r.output_of_input[i]);
    }
  }
}

TEST(EdgeCases, WiringOnTinySides) {
  // side = 1: all wirings degenerate to the identity on one wire.
  EXPECT_EQ(sw::transpose_wiring(1), sw::Permutation::identity(1));
  EXPECT_EQ(sw::rev_rotate_transpose_wiring(1), sw::Permutation::identity(1));
  EXPECT_EQ(sw::cm_to_rm_wiring(1, 1), sw::Permutation::identity(1));
}

TEST(EdgeCases, RevsortSwitchMinimumSize) {
  // n = 4 (side 2) is the smallest legal Revsort switch.
  const plan::PlanSwitch sw(make_switch_plan({"revsort", 4, 4}));
  for (std::uint32_t p = 0; p < 16; ++p) {
    BitVec valid(4);
    for (std::size_t i = 0; i < 4; ++i) valid.set(i, (p >> i) & 1u);
    auto r = sw.route(valid);
    EXPECT_TRUE(r.is_partial_injection()) << p;
    EXPECT_EQ(r.routed_count(), valid.count()) << p;
  }
}

TEST(EdgeCases, HyperSwitchFullWidthIdentityOnSorted) {
  // An already-sorted valid pattern routes input i to output i.
  const plan::PlanSwitch sw(make_switch_plan({"hyper", 8, 8}));
  BitVec valid = BitVec::from_string("11110000");
  auto r = sw.route(valid);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(r.output_of_input[i], static_cast<std::int32_t>(i));
  }
}

}  // namespace
}  // namespace pcs
