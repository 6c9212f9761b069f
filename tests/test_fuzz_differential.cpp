// Differential fuzzing: randomly generated structures checked against
// independent reference implementations.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gates/circuit.hpp"
#include "gates/evaluator.hpp"
#include "legacy_reference.hpp"
#include "plan/compile.hpp"
#include "plan/counting_kernels.hpp"
#include "plan/plan_switch.hpp"
#include "sortnet/lane_batch.hpp"
#include "sortnet/mesh_ops.hpp"
#include "switch/make_switch.hpp"
#include "switch_oracles.hpp"
#include "util/bitvec.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace pcs {
namespace {

// --- BitVec vs std::vector<bool> reference ------------------------------

TEST(FuzzDifferential, BitVecAgainstReference) {
  Rng rng(380);
  for (int trial = 0; trial < 50; ++trial) {
    std::size_t n = 1 + rng.below(300);
    BitVec v(n);
    std::vector<bool> ref(n, false);
    for (int op = 0; op < 200; ++op) {
      std::size_t i = rng.below(n);
      switch (rng.below(3)) {
        case 0: {
          bool b = rng.chance(0.5);
          v.set(i, b);
          ref[i] = b;
          break;
        }
        case 1:
          v.flip(i);
          ref[i] = !ref[i];
          break;
        case 2:
          ASSERT_EQ(v.get(i), ref[i]);
          break;
      }
    }
    // Aggregate queries against the reference.
    std::size_t ones = 0;
    for (bool b : ref) ones += b;
    ASSERT_EQ(v.count(), ones);
    std::size_t prefix = rng.below(n + 1);
    std::size_t rank = 0;
    for (std::size_t i = 0; i < prefix; ++i) rank += ref[i];
    ASSERT_EQ(v.rank1_before(prefix), rank);
    bool sorted = true, seen_zero = false;
    for (bool b : ref) {
      if (!b) {
        seen_zero = true;
      } else if (seen_zero) {
        sorted = false;
      }
    }
    ASSERT_EQ(v.is_sorted_nonincreasing(), sorted);
  }
}

// --- random circuits: scalar evaluation vs 64-lane evaluation ------------

gates::Circuit random_circuit(std::size_t inputs, std::size_t gate_budget, Rng& rng,
                              std::vector<gates::NodeId>* input_ids) {
  gates::Circuit c;
  std::vector<gates::NodeId> pool;
  for (std::size_t i = 0; i < inputs; ++i) {
    gates::NodeId id = c.add_input();
    pool.push_back(id);
    input_ids->push_back(id);
  }
  pool.push_back(c.const_zero());
  pool.push_back(c.const_one());
  for (std::size_t g = 0; g < gate_budget; ++g) {
    gates::NodeId a = pool[rng.below(pool.size())];
    gates::NodeId b = pool[rng.below(pool.size())];
    gates::NodeId out = 0;
    switch (rng.below(4)) {
      case 0:
        out = c.add_and(a, b);
        break;
      case 1:
        out = c.add_or(a, b);
        break;
      case 2:
        out = c.add_xor(a, b);
        break;
      case 3:
        out = c.add_not(a);
        break;
    }
    pool.push_back(out);
  }
  // Expose a handful of random nodes as outputs.
  for (int o = 0; o < 8; ++o) c.mark_output(pool[rng.below(pool.size())]);
  return c;
}

TEST(FuzzDifferential, LaneEvaluationMatchesScalarOnRandomCircuits) {
  Rng rng(381);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<gates::NodeId> input_ids;
    gates::Circuit c = random_circuit(6 + rng.below(6), 60, rng, &input_ids);
    gates::Evaluator eval(c);
    // 64 random patterns packed into lanes.
    std::vector<std::uint64_t> lanes(c.input_count());
    for (auto& w : lanes) w = rng.next();
    auto lane_out = eval.evaluate_lanes(lanes);
    for (int lane = 0; lane < 64; lane += 7) {
      BitVec in(c.input_count());
      for (std::size_t i = 0; i < c.input_count(); ++i) {
        in.set(i, (lanes[i] >> lane) & 1u);
      }
      BitVec scalar = eval.evaluate(in);
      for (std::size_t o = 0; o < c.output_count(); ++o) {
        ASSERT_EQ(scalar.get(o), ((lane_out[o] >> lane) & 1u) != 0)
            << "trial " << trial << " lane " << lane << " output " << o;
      }
    }
  }
}

// --- batch routing engine vs per-pattern reference -----------------------

// Batch sizes straddling the 64-lane word width: a lone pattern, a partial
// word, exactly one word, and two words plus a tail.
constexpr std::size_t kBatchSizes[] = {1, 3, 64, 130};

std::vector<BitVec> make_patterns(std::size_t n, std::size_t count, Rng& rng) {
  // Mixed densities including the degenerate all-zero / all-one patterns.
  const double densities[] = {0.0, 0.13, 0.5, 0.9, 1.0};
  std::vector<BitVec> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    double d = densities[i % (sizeof(densities) / sizeof(densities[0]))];
    out.push_back(rng.bernoulli_bits(n, d));
  }
  return out;
}

void expect_batch_matches_sequential(const sw::ConcentratorSwitch& s, Rng& rng) {
  for (std::size_t batch : kBatchSizes) {
    std::vector<BitVec> patterns = make_patterns(s.inputs(), batch, rng);
    std::vector<sw::SwitchRouting> routes = s.route_batch(patterns);
    std::vector<BitVec> arrangements = s.nearsorted_batch(patterns);
    ASSERT_EQ(routes.size(), batch);
    ASSERT_EQ(arrangements.size(), batch);
    for (std::size_t i = 0; i < batch; ++i) {
      sw::SwitchRouting ref = s.route(patterns[i]);
      ASSERT_EQ(routes[i].output_of_input, ref.output_of_input)
          << s.name() << " batch " << batch << " pattern " << i;
      ASSERT_EQ(routes[i].input_of_output, ref.input_of_output)
          << s.name() << " batch " << batch << " pattern " << i;
      BitVec arr_ref = s.nearsorted_valid_bits(patterns[i]);
      ASSERT_EQ(arrangements[i].size(), arr_ref.size());
      ASSERT_EQ(arrangements[i].count_diff(arr_ref), 0u)
          << s.name() << " batch " << batch << " pattern " << i;
    }
  }
}

TEST(FuzzDifferential, HyperSwitchBatchMatchesSequential) {
  Rng rng(383);
  const plan::PlanSwitch s(make_switch_plan({"hyper", 64, 32}));
  expect_batch_matches_sequential(s, rng);
}

TEST(FuzzDifferential, RevsortSwitchBatchMatchesSequential) {
  Rng rng(384);
  const plan::PlanSwitch s(make_switch_plan({"revsort", 256, 128}));
  expect_batch_matches_sequential(s, rng);
}

TEST(FuzzDifferential, RevsortSwitchVectorKernelMatchesSequential) {
  // side >= 64 makes each matrix column a whole number of valid-words, the
  // shape where route_batch may take the AVX-512 kernel: side 64 (one word
  // per column, m not a multiple of side) and side 128 (two words).
  Rng rng(388);
  const plan::PlanSwitch s64(make_switch_plan({"revsort", 4096, 1900}));
  expect_batch_matches_sequential(s64, rng);
  const plan::PlanSwitch s128(make_switch_plan({"revsort", 16384, 5000}));
  std::vector<BitVec> patterns = make_patterns(16384, 8, rng);
  std::vector<sw::SwitchRouting> routes = s128.route_batch(patterns);
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    sw::SwitchRouting ref = s128.route(patterns[i]);
    ASSERT_EQ(routes[i].output_of_input, ref.output_of_input) << i;
    ASSERT_EQ(routes[i].input_of_output, ref.input_of_output) << i;
  }
}

TEST(FuzzDifferential, ColumnsortSwitchBatchMatchesSequential) {
  Rng rng(385);
  const plan::PlanSwitch s(
      make_switch_plan({.family = "columnsort", .m = 64, .r = 32, .s = 4}));
  expect_batch_matches_sequential(s, rng);
}

TEST(FuzzDifferential, FullSortHyperBatchMatchesSequential) {
  Rng rng(386);
  const plan::PlanSwitch rev(make_switch_plan({"full-revsort", 256}));
  expect_batch_matches_sequential(rev, rng);
  const plan::PlanSwitch col(
      make_switch_plan({.family = "full-columnsort", .r = 32, .s = 4}));
  expect_batch_matches_sequential(col, rng);
}

TEST(FuzzDifferential, MultipassSwitchBatchMatchesSequential) {
  Rng rng(387);
  const plan::PlanSwitch same(
      make_switch_plan({.family = "multipass", .m = 64, .r = 32, .s = 4,
                        .passes = 2, .schedule = plan::ReshapeSchedule::kSame}));
  expect_batch_matches_sequential(same, rng);
  const plan::PlanSwitch alt(
      make_switch_plan({.family = "multipass", .m = 64, .r = 32, .s = 4,
                        .passes = 3,
                        .schedule = plan::ReshapeSchedule::kAlternating}));
  expect_batch_matches_sequential(alt, rng);
}

// --- routed-input masks vs route()'s output_of_input ---------------------

/// Every mask bit must equal route()'s output_of_input[x] >= 0.
void expect_masks_match_route(const sw::ConcentratorSwitch& s,
                              const std::vector<BitVec>& patterns,
                              const std::vector<BitVec>& routed,
                              const std::string& what) {
  ASSERT_GE(routed.size(), patterns.size()) << what;
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    const sw::SwitchRouting ref = s.route(patterns[i]);
    ASSERT_EQ(routed[i].size(), s.inputs()) << what << " pattern " << i;
    for (std::size_t x = 0; x < s.inputs(); ++x) {
      ASSERT_EQ(routed[i].get(x), ref.output_of_input[x] >= 0)
          << what << " pattern " << i << " input " << x;
    }
  }
}

/// Batch sizes on both sides of kMinChunkWork, so the mask path runs inline
/// and as pooled chunks.  One recycled mask vector serves every dispatch,
/// large and small, as in the campaign engines.
void expect_mask_batches_match_route(const sw::ConcentratorSwitch& s, Rng& rng) {
  const std::size_t pooled = 2 * kMinChunkWork / s.inputs() + 3;
  std::vector<BitVec> routed;
  for (const std::size_t batch : {std::size_t{1}, std::size_t{3}, std::size_t{64},
                                  pooled, std::size_t{5}}) {
    const std::vector<BitVec> patterns = make_patterns(s.inputs(), batch, rng);
    s.route_batch_mask(patterns, routed);
    expect_masks_match_route(s, patterns, routed,
                             s.name() + " batch " + std::to_string(batch));
  }
}

std::unique_ptr<sw::ConcentratorSwitch> spec_switch(const std::string& family,
                                                    std::size_t n, std::size_t m,
                                                    std::vector<plan::ChipFault> faults = {}) {
  SwitchSpec spec;
  spec.family = family;
  spec.n = n;
  spec.m = m;
  spec.beta = 0.75;
  spec.faults = std::move(faults);
  return make_switch(spec);
}

TEST(FuzzDifferential, RouteBatchMaskMatchesRouteOnEveryFamily) {
  Rng rng(392);
  // Revsort below side 64 (the scalar kernel) and at side 64 (the
  // dense-prefix kernel, AVX-512 where the CPU has it), Columnsort, the
  // single chip's word scan, and faulted plans on the generic staged path.
  expect_mask_batches_match_route(*spec_switch("revsort", 256, 192), rng);
  expect_mask_batches_match_route(*spec_switch("revsort", 4096, 1900), rng);
  expect_mask_batches_match_route(*spec_switch("columnsort", 256, 192), rng);
  expect_mask_batches_match_route(*spec_switch("hyper", 256, 192), rng);
  expect_mask_batches_match_route(*spec_switch("revsort", 256, 192, {{0, 0}}),
                                  rng);
  expect_mask_batches_match_route(
      *spec_switch("columnsort", 256, 192, {{0, 1}, {1, 2}}), rng);
  expect_mask_batches_match_route(
      *make_switch({.family = "multipass", .m = 64, .r = 32, .s = 4,
                    .passes = 2}),
      rng);
}

// --- the single-chip plan vs the hyper oracle -----------------------------

/// make_switch({"hyper", n, m}) against oracle::HyperOracle (the chip routed
/// through hyper::Hyperconcentrator) on every ConcentratorSwitch entry
/// point, over batches on both sides of kMinChunkWork.
void expect_hyper_matches_oracle(const sw::ConcentratorSwitch& made,
                                 const oracle::HyperOracle& chip, Rng& rng) {
  const std::size_t n = chip.inputs();
  ASSERT_EQ(made.name(), chip.name());
  ASSERT_EQ(made.inputs(), n);
  ASSERT_EQ(made.outputs(), chip.outputs());
  ASSERT_EQ(made.epsilon_bound(), chip.epsilon_bound());
  ASSERT_EQ(made.guaranteed_capacity(), chip.guaranteed_capacity());
  const std::size_t pooled = 2 * kMinChunkWork / n + 3;
  std::vector<BitVec> routed;
  for (const std::size_t batch : {std::size_t{1}, std::size_t{7}, pooled}) {
    const std::vector<BitVec> patterns = make_patterns(n, batch, rng);
    const std::vector<sw::SwitchRouting> routes = made.route_batch(patterns);
    const std::vector<BitVec> arrangements = made.nearsorted_batch(patterns);
    made.route_batch_mask(patterns, routed);
    for (std::size_t i = 0; i < batch; ++i) {
      const sw::SwitchRouting ref = chip.route(patterns[i]);
      const sw::SwitchRouting one = made.route(patterns[i]);
      ASSERT_EQ(one.output_of_input, ref.output_of_input) << made.name() << " " << i;
      ASSERT_EQ(one.input_of_output, ref.input_of_output) << made.name() << " " << i;
      ASSERT_EQ(routes[i].output_of_input, ref.output_of_input)
          << made.name() << " batch " << batch << " pattern " << i;
      ASSERT_EQ(routes[i].input_of_output, ref.input_of_output)
          << made.name() << " batch " << batch << " pattern " << i;
      BitVec mask;
      sw::routed_inputs(ref, mask);
      ASSERT_EQ(routed[i], mask)
          << made.name() << " batch " << batch << " pattern " << i;
      const BitVec arr_ref = chip.nearsorted_valid_bits(patterns[i]);
      ASSERT_EQ(made.nearsorted_valid_bits(patterns[i]), arr_ref) << i;
      ASSERT_EQ(arrangements[i], arr_ref)
          << made.name() << " batch " << batch << " pattern " << i;
    }
  }
}

TEST(FuzzDifferential, HyperPlanMatchesHyperOracle) {
  Rng rng(394);
  for (const std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                              std::size_t{100}, std::size_t{256},
                              std::size_t{4096}}) {
    for (const std::size_t m : {std::size_t{1}, n - 1, n}) {
      if (m == 0) continue;  // n = 1 has no n - 1 outputs
      SCOPED_TRACE("n=" + std::to_string(n) + " m=" + std::to_string(m));
      expect_hyper_matches_oracle(*make_switch({"hyper", n, m}),
                                  oracle::HyperOracle(n, m), rng);
    }
  }
}

TEST(FuzzDifferential, HyperPlanSharedAcrossThreadsMatchesOracle) {
  // One switch, two threads routing at once through its batch paths: the
  // executor holds no mutable routing state, so both see the oracle.
  const auto made = make_switch({"hyper", 256, 192});
  const oracle::HyperOracle chip(256, 192);
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < 2; ++t) {
    workers.emplace_back([&made, &chip, t] {
      Rng rng(395 + t);
      expect_hyper_matches_oracle(*made, chip, rng);
    });
  }
  for (std::thread& w : workers) w.join();
}

TEST(FuzzDifferential, DensePrefixMaskKernelsMatchRouteWithAndWithoutAvx512) {
  // The executor picks the AVX-512 dense-prefix kernel whenever the CPU has
  // it, so the scalar dense-prefix body is driven here directly; both
  // variants must give route()'s masks (and, for the full output, route()'s
  // routing).
  Rng rng(393);
  for (const auto& [n, m] : {std::pair<std::size_t, std::size_t>{4096, 1900},
                             {16384, 5000}}) {
    const std::unique_ptr<sw::ConcentratorSwitch> s = spec_switch("revsort", n, m);
    const auto& ps = dynamic_cast<const plan::PlanSwitch&>(*s);
    const plan::SwitchPlan& p = ps.plan();
    ASSERT_GE(p.fp_side, 64u);
    const unsigned q = static_cast<unsigned>(std::countr_zero(p.fp_side));
    const std::vector<BitVec> patterns = make_patterns(n, 10, rng);
    std::vector<bool> variants{false};
    if (plan::cpu_has_avx512f()) variants.push_back(true);
    for (const bool vectorize : variants) {
      plan::RevsortScratch scratch;
      scratch.fit(p.fp_side, n);
      std::vector<BitVec> routed(patterns.size());
      for (std::size_t i = 0; i < patterns.size(); ++i) {
        plan::revsort_route_kernel_fused(patterns[i], m, p.fp_side, q, p.fp_rev,
                                         scratch, vectorize,
                                         plan::sink_for(routed[i], n, m));
        sw::SwitchRouting full;
        plan::revsort_route_kernel_fused(patterns[i], m, p.fp_side, q, p.fp_rev,
                                         scratch, vectorize,
                                         plan::sink_for(full, n, m));
        const sw::SwitchRouting ref = s->route(patterns[i]);
        ASSERT_EQ(full.output_of_input, ref.output_of_input) << n << " " << i;
        ASSERT_EQ(full.input_of_output, ref.input_of_output) << n << " " << i;
      }
      expect_masks_match_route(*s, patterns, routed,
                               s->name() + (vectorize ? " avx512" : " scalar"));
    }
  }
}

TEST(FuzzDifferential, ConcurrentMaskRoutesThroughOneSharedSwitch) {
  // The plan cache hands one switch instance to every connection thread;
  // kernel scratch is per thread, so concurrent dispatches (inline and
  // pooled) must neither race nor disturb each other's results.
  const std::unique_ptr<sw::ConcentratorSwitch> s = spec_switch("revsort", 256, 192);
  Rng rng(394);
  std::vector<std::vector<BitVec>> work;
  for (const std::size_t batch : {std::size_t{7}, 2 * kMinChunkWork / 256 + 1}) {
    work.push_back(make_patterns(256, batch, rng));
  }
  std::vector<std::vector<BitVec>> expected(work.size());
  for (std::size_t w = 0; w < work.size(); ++w) {
    s->route_batch_mask(work[w], expected[w]);
  }
  auto worker = [&](std::size_t first, bool& ok) {
    std::vector<BitVec> routed;
    ok = true;
    for (int round = 0; round < 20; ++round) {
      const std::size_t w = (first + static_cast<std::size_t>(round)) % work.size();
      s->route_batch_mask(work[w], routed);
      for (std::size_t i = 0; i < work[w].size(); ++i) {
        ok = ok && routed[i] == expected[w][i];
      }
    }
  };
  bool ok0 = false, ok1 = false;
  std::thread t0(worker, 0, std::ref(ok0));
  std::thread t1(worker, 1, std::ref(ok1));
  t0.join();
  t1.join();
  EXPECT_TRUE(ok0);
  EXPECT_TRUE(ok1);
  expect_masks_match_route(*s, work[0], expected[0], "shared revsort");
}

// --- plan executor vs the staged-interpreter oracle on random plans ------

// Every case is replayable from the printed (trial, seed) pair: the trial
// seed derives deterministically from the base seed, so one failing trial
// reruns in isolation by constructing Rng(seed) directly.
TEST(FuzzDifferential, FusedExecutorMatchesLegacyOracleOnRandomPlans) {
  const std::uint64_t base_seed = 391;
  for (int trial = 0; trial < 12; ++trial) {
    const std::uint64_t seed = base_seed * 1000 + static_cast<std::uint64_t>(trial);
    Rng rng(seed);
    // Random family, shape, output cut, and fault set.
    plan::SwitchPlan p = [&]() -> plan::SwitchPlan {
      switch (rng.below(5)) {
        case 0: {
          const std::size_t side = std::size_t{1} << (2 + rng.below(3));
          const std::size_t n = side * side;
          return plan::compile_revsort_plan(n, 1 + rng.below(n));
        }
        case 1: {
          const std::size_t s = std::size_t{1} << (1 + rng.below(3));
          const std::size_t r = s << (1 + rng.below(3));
          const std::size_t n = r * s;
          return plan::compile_columnsort_plan(r, s, 1 + rng.below(n));
        }
        case 2: {
          const std::size_t s = std::size_t{1} << (1 + rng.below(2));
          const std::size_t r = s << (1 + rng.below(2));
          const std::size_t n = r * s;
          const auto sched = rng.chance(0.5)
                                 ? plan::ReshapeSchedule::kSame
                                 : plan::ReshapeSchedule::kAlternating;
          return plan::compile_multipass_plan(r, s, 1 + rng.below(3),
                                              1 + rng.below(n), sched);
        }
        case 3: {
          const std::size_t side = std::size_t{1} << (1 + rng.below(3));
          return plan::compile_full_revsort_plan(side * side);
        }
        default: {
          const std::size_t s = std::size_t{1} << (1 + rng.below(2));
          const std::size_t r = s << (2 + rng.below(2));
          return plan::compile_full_columnsort_plan(r, s);
        }
      }
    }();
    if (rng.chance(0.5)) {
      std::vector<plan::ChipFault> faults;
      const std::size_t kills = 1 + rng.below(3);
      for (std::size_t k = 0; k < kills; ++k) {
        const std::size_t stage = rng.below(p.stages.size());
        faults.push_back(plan::ChipFault{
            stage, rng.below(p.stages[stage].chips)});
      }
      plan::apply_chip_faults(p, faults);
    }
    plan::PlanSwitch fused{plan::SwitchPlan(p)};
    const std::size_t width = 1 + rng.below(70);
    std::vector<BitVec> batch = make_patterns(fused.inputs(), width, rng);
    const auto fr = fused.route_batch(batch);
    const auto fn = fused.nearsorted_batch(batch);
    for (std::size_t i = 0; i < width; ++i) {
      const legacy::Reference ref = legacy::run_plan(p, batch[i]);
      ASSERT_EQ(fr[i].output_of_input, ref.routing.output_of_input)
          << fused.name() << " trial " << trial << " seed " << seed
          << " pattern " << i;
      ASSERT_EQ(fr[i].input_of_output, ref.routing.input_of_output)
          << fused.name() << " trial " << trial << " seed " << seed
          << " pattern " << i;
      ASSERT_EQ(fn[i].count_diff(ref.nearsorted), 0u)
          << fused.name() << " trial " << trial << " seed " << seed
          << " pattern " << i;
    }
  }
}

// --- LaneBatch primitives vs scalar reference ----------------------------

TEST(FuzzDifferential, LaneBatchConcentrateMatchesScalar) {
  Rng rng(388);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t seg = 1 + rng.below(16);
    const std::size_t segs = 1 + rng.below(8);
    const std::size_t n = seg * segs;
    const std::size_t count = 1 + rng.below(sortnet::LaneBatch::kLanes);
    std::vector<BitVec> patterns = make_patterns(n, count, rng);
    sortnet::LaneBatch lanes(n);
    lanes.load(patterns, 0, count);
    lanes.concentrate_segments(seg);
    for (std::size_t l = 0; l < count; ++l) {
      // Reference: per segment, ones sink to the low positions.
      BitVec expect(n);
      for (std::size_t g = 0; g < segs; ++g) {
        std::size_t ones = 0;
        for (std::size_t p = 0; p < seg; ++p) {
          ones += patterns[l].get(g * seg + p) ? 1 : 0;
        }
        for (std::size_t p = 0; p < ones; ++p) expect.set(g * seg + p, true);
      }
      ASSERT_EQ(lanes.extract(l).count_diff(expect), 0u)
          << "trial " << trial << " lane " << l;
    }
  }
}

TEST(FuzzDifferential, LaneBatchPermuteMatchesScalar) {
  Rng rng(389);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 2 + rng.below(200);
    std::vector<std::uint32_t> dest(n);
    for (std::size_t i = 0; i < n; ++i) dest[i] = static_cast<std::uint32_t>(i);
    for (std::size_t i = n; i > 1; --i) {
      std::swap(dest[i - 1], dest[rng.below(i)]);
    }
    // A wiring permutation is a bijective gather: position dest[i] reads
    // position i.
    std::vector<std::uint32_t> src(n);
    for (std::size_t i = 0; i < n; ++i) {
      src[dest[i]] = static_cast<std::uint32_t>(i);
    }
    const std::size_t count = 1 + rng.below(sortnet::LaneBatch::kLanes);
    std::vector<BitVec> patterns = make_patterns(n, count, rng);
    sortnet::LaneBatch lanes(n);
    lanes.load(patterns, 0, count);
    lanes.gather(src);
    for (std::size_t l = 0; l < count; ++l) {
      BitVec expect(n);
      for (std::size_t i = 0; i < n; ++i) {
        if (patterns[l].get(i)) expect.set(dest[i], true);
      }
      ASSERT_EQ(lanes.extract(l).count_diff(expect), 0u)
          << "trial " << trial << " lane " << l;
    }
  }
}

// --- BitVec word-level helpers vs bit-level reference --------------------

TEST(FuzzDifferential, BitVecWordHelpersAgainstReference) {
  Rng rng(390);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 1 + rng.below(300);
    BitVec a = rng.bernoulli_bits(n, rng.uniform01());
    BitVec b = rng.bernoulli_bits(n, rng.uniform01());
    // count_diff == Hamming distance.
    std::size_t dist = 0;
    for (std::size_t i = 0; i < n; ++i) dist += a.get(i) != b.get(i);
    ASSERT_EQ(a.count_diff(b), dist);
    // prefix_ones: k ones then zeros.
    const std::size_t k = rng.below(n + 1);
    BitVec p = BitVec::prefix_ones(n, k);
    ASSERT_EQ(p.size(), n);
    ASSERT_EQ(p.count(), k);
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(p.get(i), i < k);
    // from_words(words()) round-trips.
    BitVec round = BitVec::from_words(a.words(), n);
    ASSERT_EQ(round.count_diff(a), 0u);
  }
}

// --- mesh sorts vs std::sort reference -----------------------------------

TEST(FuzzDifferential, ColumnSortAgainstStdSort) {
  Rng rng(382);
  for (int trial = 0; trial < 30; ++trial) {
    std::size_t rows = 2 + rng.below(12);
    std::size_t cols = 2 + rng.below(12);
    BitMatrix m = BitMatrix::from_row_major(
        rng.bernoulli_bits(rows * cols, rng.uniform01()), rows, cols);
    BitMatrix sorted = m;
    sortnet::sort_columns(sorted);
    for (std::size_t j = 0; j < cols; ++j) {
      std::vector<bool> ref = m.col(j).to_bools();
      std::sort(ref.begin(), ref.end(), std::greater<bool>());
      ASSERT_EQ(sorted.col(j).to_bools(), ref) << "col " << j;
    }
  }
}

}  // namespace
}  // namespace pcs
