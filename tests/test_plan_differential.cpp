// Bit-for-bit identity of the PlanExecutor against the pre-plan per-family
// LabelMesh recipes and the staged interpreter legacy::run_plan
// (tests/legacy_reference.hpp), across a structured pattern zoo, degenerate
// output counts, faulty plans, and the batch entry points.  This is the
// refactor's contract: compiling a family to the shared IR, and every
// executor optimisation since, must not move a single message.
#include "plan/plan_switch.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "legacy_reference.hpp"
#include "plan/compile.hpp"
#include "switch/columnsort_switch.hpp"
#include "switch/revsort_switch.hpp"
#include "util/rng.hpp"

namespace pcs::plan {
namespace {

// Structured patterns first (empty, full, prefix, suffix, alternating),
// then random at three densities.
std::vector<BitVec> pattern_zoo(std::size_t n, Rng& rng, int randoms = 12) {
  std::vector<BitVec> zoo;
  zoo.emplace_back(n);  // empty
  BitVec full(n);
  for (std::size_t i = 0; i < n; ++i) full.set(i, true);
  zoo.push_back(full);
  zoo.push_back(BitVec::prefix_ones(n, n / 2));
  BitVec suffix(n);
  for (std::size_t i = n - n / 2; i < n; ++i) suffix.set(i, true);
  zoo.push_back(suffix);
  BitVec alt(n);
  for (std::size_t i = 0; i < n; i += 2) alt.set(i, true);
  zoo.push_back(alt);
  BitVec one(n);
  one.set(rng.below(n), true);
  zoo.push_back(one);
  for (int t = 0; t < randoms; ++t) {
    zoo.push_back(rng.bernoulli_bits(n, (t % 3 + 1) * 0.25));
  }
  return zoo;
}

void expect_matches_legacy(const sw::ConcentratorSwitch& model, const BitVec& valid,
                           const legacy::Reference& ref, const char* what) {
  const sw::SwitchRouting got = model.route(valid);
  EXPECT_EQ(got.output_of_input, ref.routing.output_of_input)
      << what << " on " << model.name();
  EXPECT_EQ(got.input_of_output, ref.routing.input_of_output)
      << what << " on " << model.name();
  EXPECT_EQ(model.nearsorted_valid_bits(valid), ref.nearsorted)
      << what << " nearsorted on " << model.name();
}

/// Batch entry points must agree with the scalar walk lane for lane.  65
/// straddles the 64-lane word width.
void expect_batch_identity(const sw::ConcentratorSwitch& model,
                           const std::vector<BitVec>& batch) {
  const auto routed = model.route_batch(batch);
  const auto near = model.nearsorted_batch(batch);
  ASSERT_EQ(routed.size(), batch.size());
  ASSERT_EQ(near.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(routed[i].output_of_input, model.route(batch[i]).output_of_input)
        << model.name() << " lane " << i;
    EXPECT_EQ(near[i], model.nearsorted_valid_bits(batch[i]))
        << model.name() << " lane " << i;
  }
}

TEST(PlanDifferential, RevsortMatchesLegacyAcrossDegenerateM) {
  Rng rng(4201);
  for (std::size_t n : {4, 64, 256}) {
    for (std::size_t m : {std::size_t{1}, std::size_t{2}, n - 1, n}) {
      if (m < 1 || m > n) continue;
      PlanSwitch sw{compile_revsort_plan(n, m)};
      for (const BitVec& v : pattern_zoo(n, rng)) {
        expect_matches_legacy(sw, v, legacy::revsort(v, m), "revsort");
      }
    }
  }
}

TEST(PlanDifferential, ColumnsortMatchesLegacyAcrossDegenerateM) {
  Rng rng(4202);
  using Shape = std::pair<std::size_t, std::size_t>;
  for (auto [r, s] : std::vector<Shape>{{4, 2}, {16, 4}, {64, 8}}) {
    const std::size_t n = r * s;
    for (std::size_t m : {std::size_t{1}, std::size_t{2}, n - 1, n}) {
      PlanSwitch sw{compile_columnsort_plan(r, s, m)};
      for (const BitVec& v : pattern_zoo(n, rng)) {
        expect_matches_legacy(sw, v, legacy::columnsort(v, r, s, m), "columnsort");
      }
    }
  }
}

TEST(PlanDifferential, MultipassMatchesLegacyBothSchedules) {
  Rng rng(4203);
  const std::size_t r = 16, s = 4, n = r * s;
  for (std::size_t d = 1; d <= 4; ++d) {
    for (auto sched : {ReshapeSchedule::kSame, ReshapeSchedule::kAlternating}) {
      PlanSwitch sw{compile_multipass_plan(r, s, d, n / 2, sched)};
      for (const BitVec& v : pattern_zoo(n, rng, 8)) {
        expect_matches_legacy(sw, v, legacy::multipass(v, r, s, d, n / 2, sched),
                              "multipass");
      }
    }
  }
}

TEST(PlanDifferential, FullSortersMatchLegacy) {
  Rng rng(4204);
  for (std::size_t n : {4, 16, 64}) {
    PlanSwitch sw{compile_full_revsort_plan(n)};
    for (const BitVec& v : pattern_zoo(n, rng, 8)) {
      expect_matches_legacy(sw, v, legacy::full_revsort(v), "full-revsort");
    }
  }
  using Shape = std::pair<std::size_t, std::size_t>;
  for (auto [r, s] : std::vector<Shape>{{2, 1}, {8, 2}, {32, 4}}) {
    PlanSwitch sw{compile_full_columnsort_plan(r, s)};
    for (const BitVec& v : pattern_zoo(r * s, rng, 8)) {
      expect_matches_legacy(sw, v, legacy::full_columnsort(v, r, s),
                            "full-columnsort");
    }
  }
}

TEST(PlanDifferential, FaultyPlansMatchLegacyKillSemantics) {
  Rng rng(4205);
  {
    const std::size_t n = 64, m = n;
    SwitchPlan p = compile_revsort_plan(n, m);
    const std::vector<ChipFault> faults = {{0, 5}, {1, 3}, {2, 6}};
    apply_chip_faults(p, faults);
    PlanSwitch sw{std::move(p)};
    for (const BitVec& v : pattern_zoo(n, rng)) {
      expect_matches_legacy(sw, v, legacy::revsort(v, m, faults),
                            "faulty-revsort");
    }
  }
  {
    const std::size_t r = 16, s = 4, n = r * s, m = n / 2;
    SwitchPlan p = compile_columnsort_plan(r, s, m);
    const std::vector<ChipFault> faults = {{0, 1}, {1, 2}};
    apply_chip_faults(p, faults);
    PlanSwitch sw{std::move(p)};
    for (const BitVec& v : pattern_zoo(n, rng)) {
      expect_matches_legacy(sw, v, legacy::columnsort(v, r, s, m, faults),
                            "faulty-columnsort");
    }
  }
}

TEST(PlanDifferential, BatchPathsAreBitIdenticalToScalar) {
  Rng rng(4206);
  std::vector<std::unique_ptr<sw::ConcentratorSwitch>> switches;
  switches.push_back(std::make_unique<PlanSwitch>(compile_revsort_plan(256, 128)));
  switches.push_back(
      std::make_unique<PlanSwitch>(compile_columnsort_plan(64, 8, 256)));
  switches.push_back(std::make_unique<PlanSwitch>(
      compile_multipass_plan(16, 4, 2, 32, ReshapeSchedule::kAlternating)));
  switches.push_back(std::make_unique<PlanSwitch>(compile_full_revsort_plan(64)));
  switches.push_back(
      std::make_unique<PlanSwitch>(compile_full_columnsort_plan(32, 4)));
  {
    SwitchPlan p = compile_revsort_plan(64, 64);
    apply_chip_faults(p, {ChipFault{1, 2}});
    switches.push_back(std::make_unique<PlanSwitch>(std::move(p)));
  }
  for (const auto& sw : switches) {
    std::vector<BitVec> batch;
    for (int t = 0; t < 65; ++t) {
      batch.push_back(rng.bernoulli_bits(sw->inputs(), (t % 4 + 1) * 0.2));
    }
    expect_batch_identity(*sw, batch);
  }
}

// --- fused executor vs the staged interpreter ---------------------------
//
// The executor (gather-through-link chip kernels, dense-prefix counting
// kernels, sentinel-slot lane pipeline) must be bit-for-bit the two-pass
// interpreter legacy::run_plan on every entry point.

void expect_engines_agree(const SwitchPlan& plan,
                          const std::vector<std::size_t>& widths, Rng& rng) {
  PlanSwitch fused{SwitchPlan(plan)};
  for (const std::size_t width : widths) {
    std::vector<BitVec> batch;
    batch.reserve(width);
    for (std::size_t t = 0; t < width; ++t) {
      batch.push_back(
          rng.bernoulli_bits(plan.n, static_cast<double>(t % 5) * 0.25));
    }
    const auto fr = fused.route_batch(batch);
    const auto fn = fused.nearsorted_batch(batch);
    for (std::size_t i = 0; i < width; ++i) {
      const legacy::Reference ref = legacy::run_plan(plan, batch[i]);
      ASSERT_EQ(fr[i].output_of_input, ref.routing.output_of_input)
          << plan.name << " width " << width << " pattern " << i;
      ASSERT_EQ(fr[i].input_of_output, ref.routing.input_of_output)
          << plan.name << " width " << width << " pattern " << i;
      ASSERT_EQ(fn[i].count_diff(ref.nearsorted), 0u)
          << plan.name << " width " << width << " pattern " << i;
    }
    // Scalar entry points too (the batch paths may take kernels).
    ASSERT_EQ(fused.route(batch[0]).output_of_input,
              legacy::run_plan(plan, batch[0]).routing.output_of_input)
        << plan.name;
  }
}

TEST(PlanDifferential, FusedEngineMatchesLegacyEngineAcrossFamilies) {
  Rng rng(4208);
  // Batch widths straddling the 64-lane word: 1, 63, 64, 65, 128.
  const std::vector<std::size_t> widths = {1, 63, 64, 65, 128};
  expect_engines_agree(compile_revsort_plan(256, 128), widths, rng);
  expect_engines_agree(compile_columnsort_plan(64, 8, 256), widths, rng);
  expect_engines_agree(
      compile_multipass_plan(16, 4, 3, 32, ReshapeSchedule::kAlternating),
      widths, rng);
  expect_engines_agree(compile_full_revsort_plan(64), {1, 65}, rng);
  expect_engines_agree(compile_full_columnsort_plan(64, 4), {1, 65}, rng);
}

TEST(PlanDifferential, FusedEngineMatchesLegacyOnDegenerateM) {
  Rng rng(4209);
  for (const std::size_t n : {std::size_t{64}, std::size_t{256}}) {
    for (const std::size_t m : {std::size_t{1}, std::size_t{2}, n - 1, n}) {
      expect_engines_agree(compile_revsort_plan(n, m), {1, 64}, rng);
    }
  }
  for (const std::size_t m :
       {std::size_t{1}, std::size_t{2}, std::size_t{127}, std::size_t{128}}) {
    expect_engines_agree(compile_columnsort_plan(32, 4, m), {1, 64}, rng);
  }
}

TEST(PlanDifferential, FusedEngineMatchesLegacyOnFaultedPlans) {
  Rng rng(4210);
  {
    SwitchPlan p = compile_revsort_plan(256, 192);
    apply_chip_faults(p, {{0, 5}, {1, 3}, {2, 6}});
    expect_engines_agree(p, {1, 63, 65}, rng);
  }
  {
    SwitchPlan p = compile_columnsort_plan(64, 8, 256);
    apply_chip_faults(p, {{0, 1}, {1, 2}});
    expect_engines_agree(p, {1, 65}, rng);
  }
  {
    // Faulted full Columnsort: the widened pad stage runs through the lane
    // pipeline (sentinel pad slot).
    SwitchPlan p = compile_full_columnsort_plan(64, 4);
    apply_chip_faults(p, {{1, 0}, {3, 2}});
    expect_engines_agree(p, {1, 65}, rng);
  }
  {
    SwitchPlan p = compile_full_revsort_plan(64);
    apply_chip_faults(p, {{2, 1}});
    expect_engines_agree(p, {1, 65}, rng);
  }
}

TEST(PlanDifferential, DenseRevsortKernelMatchesLegacyAtLargeN) {
  // The dense-prefix kernel's decomposition shifts with the pattern: the
  // empty pattern has no dense rows at all, the full pattern is all dense
  // rows, prefix/bernoulli mix both.  The small-m cases (m < side, and m
  // straddling a dense row at side < m < 2*side) pin the boundary-row
  // emission, where only part of a dense row lies below m.
  Rng rng(4211);
  const std::size_t pairs[][2] = {
      {4096, 4096 - 1024}, {65536, 65536 - 16384},
      {65536, 1},          {65536, 300},          {65536, 256}};
  for (const auto& [n, m] : pairs) {
    const SwitchPlan plan = compile_revsort_plan(n, m);
    PlanSwitch fused{SwitchPlan(plan)};
    std::vector<BitVec> batch;
    batch.emplace_back(n);                      // empty
    BitVec full(n);
    for (std::size_t i = 0; i < n; ++i) full.set(i, true);
    batch.push_back(full);                      // every row dense
    batch.push_back(BitVec::prefix_ones(n, n / 3));
    batch.push_back(rng.bernoulli_bits(n, 0.5));
    batch.push_back(rng.bernoulli_bits(n, 0.97));  // nearly-full columns
    const auto fr = fused.route_batch(batch);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const legacy::Reference ref = legacy::run_plan(plan, batch[i]);
      ASSERT_EQ(fr[i].output_of_input, ref.routing.output_of_input)
          << "n=" << n << " m=" << m << " pattern " << i;
      ASSERT_EQ(fr[i].input_of_output, ref.routing.input_of_output)
          << "n=" << n << " m=" << m << " pattern " << i;
    }
  }
}

TEST(PlanDifferential, FamilySwitchesAreTheirCompiledPlans) {
  // The switch classes are thin compilers now; their routes must equal the
  // raw PlanSwitch over the same compiled plan.
  Rng rng(4207);
  sw::RevsortSwitch rev(256, 100);
  PlanSwitch rev_plan{compile_revsort_plan(256, 100)};
  sw::ColumnsortSwitch col(16, 4, 40);
  PlanSwitch col_plan{compile_columnsort_plan(16, 4, 40)};
  for (int t = 0; t < 25; ++t) {
    BitVec a = rng.bernoulli_bits(256, rng.uniform01());
    EXPECT_EQ(rev.route(a).output_of_input, rev_plan.route(a).output_of_input);
    BitVec b = rng.bernoulli_bits(64, rng.uniform01());
    EXPECT_EQ(col.route(b).output_of_input, col_plan.route(b).output_of_input);
  }
}

}  // namespace
}  // namespace pcs::plan
