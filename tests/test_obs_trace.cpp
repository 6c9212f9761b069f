#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "plan/compile.hpp"
#include "plan/plan_switch.hpp"
#include "runtime/fabric_runtime.hpp"
#include "runtime/metrics.hpp"
#include "runtime/trace_bridge.hpp"
#include "switch/make_switch.hpp"
#include "traffic/traffic_source.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace pcs::obs {
namespace {

// Restores the parallelism clamp and leaves the global tracer quiescent and
// empty, whatever the test body did.
struct TracerSandbox {
  ~TracerSandbox() {
    Tracer::instance().disable();
    Tracer::instance().clear();
    pcs::set_max_parallelism(0);
  }
};

rt::FabricRuntime::TrafficFactory bernoulli(std::size_t width, double p) {
  return [width, p](std::size_t) -> std::unique_ptr<pcs::traffic::TrafficSource> {
    return std::make_unique<pcs::traffic::ComposedSource>(
        pcs::traffic::PatternKind::kUniform,
        std::make_unique<pcs::traffic::BernoulliProcess>(width, p), 0.125);
  };
}

// The pinned CI configuration: a faulted Revsort(256 -> 192) switch.  The
// fault clears the counting fast path, so route() walks the staged plan and
// every chip evaluation gets a span.
std::unique_ptr<sw::ConcentratorSwitch> pinned_switch() {
  SwitchSpec spec;
  spec.family = "revsort";
  spec.n = 256;
  spec.m = 192;
  spec.faults = {{0, 0}};
  return make_switch(spec);
}

rt::RuntimeOptions pinned_opts() {
  rt::RuntimeOptions opts;
  opts.lanes = 1;
  opts.seed = 7;
  opts.warmup_epochs = 4;
  opts.measure_epochs = 32;
  opts.drain_epochs_max = 64;
  opts.check_invariants = false;
  return opts;
}

TEST(ObsTrace, NeverEnabledTracerDrainsEmpty) {
  TracerSandbox sandbox;
  {
    SpanGuard span("test.span", cat::kPlan);
    span.arg("k", 1);
    PCS_TRACE_COUNTER("test.counter", 5);
  }
  TraceSnapshot snap = Tracer::instance().drain();
  EXPECT_TRUE(snap.empty());
  EXPECT_FALSE(Tracer::enabled());
}

TEST(ObsTrace, DisableMakesLaterSpansInert) {
  if (!kCompiledIn) GTEST_SKIP() << "tracing compiled out";
  TracerSandbox sandbox;
  Tracer::instance().enable(ClockMode::kLogical);
  { SpanGuard span("test.before", cat::kPlan); }
  Tracer::instance().disable();
  { SpanGuard span("test.after", cat::kPlan); }
  PCS_TRACE_COUNTER("test.after", 1);
  TraceSnapshot snap = Tracer::instance().drain();
  ASSERT_EQ(snap.spans.size(), 1u);
  EXPECT_STREQ(snap.spans[0].name, "test.before");
  EXPECT_TRUE(snap.counters.empty());
}

TEST(ObsTrace, InternReturnsStablePointers) {
  if (!kCompiledIn) GTEST_SKIP() << "tracing compiled out";
  const char* a = Tracer::instance().intern("obs.test.interned");
  const char* b = Tracer::instance().intern("obs.test.interned");
  EXPECT_EQ(a, b);
  EXPECT_STREQ(a, "obs.test.interned");
}

TEST(ObsTrace, LogicalClockTicksAreUniqueAndOrdered) {
  if (!kCompiledIn) GTEST_SKIP() << "tracing compiled out";
  TracerSandbox sandbox;
  Tracer::instance().enable(ClockMode::kLogical);
  {
    SpanGuard outer("test.outer", cat::kPlan);
    { SpanGuard inner("test.inner", cat::kPlan); }
  }
  TraceSnapshot snap = Tracer::instance().drain();
  ASSERT_EQ(snap.spans.size(), 2u);
  EXPECT_EQ(snap.clock, ClockMode::kLogical);
  // Inner closes first, so it drains first within the thread buffer.
  const SpanRecord& inner = snap.spans[0];
  const SpanRecord& outer = snap.spans[1];
  EXPECT_STREQ(inner.name, "test.inner");
  EXPECT_STREQ(outer.name, "test.outer");
  EXPECT_LT(outer.begin, inner.begin);
  EXPECT_LT(inner.begin, inner.end);
  EXPECT_LT(inner.end, outer.end);
}

// Acceptance: chip spans per route() call equal stages x chips for the
// pinned faulted Revsort plan -- 3 stages of 16 chips = 48.
TEST(ObsTrace, ChipSpanCountMatchesPlanStructure) {
  if (!kCompiledIn) GTEST_SKIP() << "tracing compiled out";
  TracerSandbox sandbox;
  auto sw = pinned_switch();
  const auto* ps = dynamic_cast<const plan::PlanSwitch*>(sw.get());
  ASSERT_NE(ps, nullptr);
  std::size_t expected = 0;
  for (const auto& st : ps->plan().stages) expected += st.chips;
  EXPECT_EQ(expected, 48u);

  Rng rng(3);
  Tracer::instance().enable(ClockMode::kLogical);
  sw->route(rng.exact_weight_bits(256, 100));
  TraceSnapshot snap = Tracer::instance().drain();

  std::size_t chip_spans = 0;
  for (const SpanRecord& rec : snap.spans) {
    if (std::string(rec.cat) == cat::kChip) ++chip_spans;
  }
  EXPECT_EQ(chip_spans, expected);
  EXPECT_EQ(snap.counters.at("plan.chips_evaluated"), expected);
}

// Stage spans carry the semantic labels the compiler attached.
TEST(ObsTrace, StageSpansUseSemanticLabels) {
  if (!kCompiledIn) GTEST_SKIP() << "tracing compiled out";
  TracerSandbox sandbox;
  auto sw = pinned_switch();
  Rng rng(4);
  Tracer::instance().enable(ClockMode::kLogical);
  sw->route(rng.exact_weight_bits(256, 64));
  TraceSnapshot snap = Tracer::instance().drain();

  std::vector<std::string> stage_names;
  for (const SpanRecord& rec : snap.spans) {
    if (std::string(rec.cat) == cat::kStage) stage_names.emplace_back(rec.name);
  }
  ASSERT_EQ(stage_names.size(), 3u);
  EXPECT_EQ(stage_names[0], "revsort.s0.columns");
  EXPECT_EQ(stage_names[1], "revsort.s1.rows+shift");
  EXPECT_EQ(stage_names[2], "revsort.s2.columns");
}

// Spans on each thread must nest strictly: sorted by begin tick, every span
// either contains or is disjoint from its successors.  Logical-clock ticks
// are globally unique, so the check is exact.
TEST(ObsTrace, SpansNestStrictlyPerThread) {
  if (!kCompiledIn) GTEST_SKIP() << "tracing compiled out";
  TracerSandbox sandbox;
  pcs::set_max_parallelism(1);

  auto sw = pinned_switch();
  rt::FabricRuntime runtime(*sw, pinned_opts(), bernoulli(256, 0.3));
  rt::MetricsRegistry metrics;
  Tracer::instance().enable(ClockMode::kLogical);
  runtime.run(metrics);
  Tracer::instance().disable();
  TraceSnapshot snap = Tracer::instance().drain();
  ASSERT_FALSE(snap.spans.empty());

  std::map<std::uint32_t, std::vector<const SpanRecord*>> by_tid;
  for (const SpanRecord& rec : snap.spans) by_tid[rec.tid].push_back(&rec);
  for (auto& [tid, spans] : by_tid) {
    std::sort(spans.begin(), spans.end(),
              [](const SpanRecord* a, const SpanRecord* b) {
                return a->begin < b->begin;
              });
    std::vector<std::uint64_t> open_ends;  // stack of enclosing span ends
    for (const SpanRecord* rec : spans) {
      ASSERT_LT(rec->begin, rec->end);
      while (!open_ends.empty() && open_ends.back() < rec->begin) {
        open_ends.pop_back();
      }
      if (!open_ends.empty()) {
        // Enclosing span must fully contain this one -- no partial overlap.
        ASSERT_LT(rec->end, open_ends.back())
            << "span " << rec->name << " straddles its enclosing span on tid "
            << tid;
      }
      open_ends.push_back(rec->end);
    }
  }
}

// Acceptance: two identical single-threaded logical-clock campaigns produce
// byte-identical Chrome trace JSON.
TEST(ObsTrace, LogicalClockTraceIsByteIdenticalAcrossRuns) {
  if (!kCompiledIn) GTEST_SKIP() << "tracing compiled out";
  TracerSandbox sandbox;
  pcs::set_max_parallelism(1);

  auto run_once = [] {
    auto sw = pinned_switch();
    rt::FabricRuntime runtime(*sw, pinned_opts(), bernoulli(256, 0.3));
    rt::MetricsRegistry metrics;
    Tracer::instance().enable(ClockMode::kLogical);
    runtime.run(metrics);
    Tracer::instance().disable();
    return chrome_trace_json({Tracer::instance().drain()});
  };
  const std::string first = run_once();
  const std::string second = run_once();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  // Normalized origin: some event starts at ts 0.
  EXPECT_NE(first.find("\"ts\": 0,"), std::string::npos);
}

// Acceptance: the plan executor's words_routed tally reconciles with the
// runtime's delivered-message count -- every routed word delivers exactly
// one queued message under the buffer-retry policy.
TEST(ObsTrace, WordsRoutedReconcilesWithDeliveredMessages) {
  if (!kCompiledIn) GTEST_SKIP() << "tracing compiled out";
  TracerSandbox sandbox;
  auto sw = pinned_switch();
  rt::FabricRuntime runtime(*sw, pinned_opts(), bernoulli(256, 0.3));
  rt::MetricsRegistry metrics;
  Tracer::instance().enable(ClockMode::kLogical);
  runtime.run(metrics);
  Tracer::instance().disable();
  TraceSnapshot snap = Tracer::instance().drain();

  ASSERT_NE(snap.counters.count("plan.words_routed"), 0u);
  EXPECT_EQ(snap.counters.at("plan.words_routed"),
            metrics.counter("total.delivered").value());

  // Epoch spans line up one-to-one with route_batch dispatches.
  std::size_t epoch_spans = 0;
  for (const SpanRecord& rec : snap.spans) {
    if (std::string(rec.name) == "runtime.epoch") ++epoch_spans;
  }
  EXPECT_EQ(epoch_spans, metrics.counter("route_batch_dispatches").value());
}

// The fast-path tally must agree with the scalar path: a clean Revsort
// switch routed through the counting kernel reports the same words_routed.
TEST(ObsTrace, FastPathCountsWordsRoutedToo) {
  if (!kCompiledIn) GTEST_SKIP() << "tracing compiled out";
  TracerSandbox sandbox;
  SwitchSpec spec;
  spec.family = "revsort";
  spec.n = 256;
  spec.m = 192;
  auto sw = make_switch(spec);

  Rng rng(11);
  std::vector<BitVec> patterns;
  std::size_t expected = 0;
  for (int i = 0; i < 8; ++i) {
    patterns.push_back(rng.exact_weight_bits(256, 40 + 5 * i));
  }
  for (const auto& routing : sw->route_batch(patterns)) {
    expected += routing.routed_count();
  }

  Tracer::instance().enable(ClockMode::kLogical);
  auto routings = sw->route_batch(patterns);
  TraceSnapshot snap = Tracer::instance().drain();
  ASSERT_EQ(routings.size(), patterns.size());
  ASSERT_NE(snap.counters.count("plan.route.fastpath"), 0u);
  EXPECT_EQ(snap.counters.at("plan.route.fastpath"), patterns.size());
  EXPECT_EQ(snap.counters.at("plan.words_routed"), expected);
}

TEST(ObsTrace, AggregateSpansRollsUpByName) {
  if (!kCompiledIn) GTEST_SKIP() << "tracing compiled out";
  TracerSandbox sandbox;
  Tracer::instance().enable(ClockMode::kLogical);
  { SpanGuard a("test.a", cat::kPlan); }
  { SpanGuard a("test.a", cat::kPlan); }
  { SpanGuard b("test.b", cat::kPlan); }
  TraceSnapshot snap = Tracer::instance().drain();
  auto stats = aggregate_spans(snap);
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats.at("test.a").count, 2u);
  EXPECT_EQ(stats.at("test.b").count, 1u);
  EXPECT_GT(stats.at("test.a").total_ticks, 0u);
}

TEST(ObsTrace, MergeProfileExportsSpansAndCounters) {
  TraceSnapshot snap;
  snap.clock = ClockMode::kLogical;
  SpanRecord rec;
  rec.name = "stage.x";
  rec.cat = cat::kStage;
  rec.begin = 10;
  rec.end = 25;
  snap.spans = {rec, rec};
  snap.counters["plan.words_routed"] = 99;

  rt::MetricsRegistry metrics;
  rt::merge_profile(snap, metrics);
  EXPECT_EQ(metrics.histogram("profile.span.stage.x").count(), 2u);
  EXPECT_EQ(metrics.histogram("profile.span.stage.x").sum(), 30u);
  EXPECT_EQ(metrics.counter("profile.plan.words_routed").value(), 99u);
}

}  // namespace
}  // namespace pcs::obs
