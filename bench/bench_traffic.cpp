// Traffic-subsystem performance (experiment T1): cost of the composable
// sources on the campaign hot path.  Valid-bit epochs per second for each
// injection process, destination draws per second for the uniform /
// permutation / hotspot maps, the trace recorder's wrap overhead, and one
// bound-stress search timing (the search is a setup-time cost, but its
// price decides how large a worstcase campaign can reasonably ask for).
#include "bench_common.hpp"
#include "plan/plan_switch.hpp"
#include "switch/make_switch.hpp"
#include "traffic/factory.hpp"
#include "traffic/search.hpp"
#include "traffic/trace.hpp"
#include "util/rng.hpp"

namespace {

constexpr std::size_t kWidth = 4096;

void print_artifacts() {
  pcs::bench::artifact_header("T1", "composable traffic sources (timings below)");
}

pcs::traffic::TrafficSpec spec_of(const char* pattern, const char* injection) {
  pcs::traffic::TrafficSpec spec;
  spec.width = kWidth;
  spec.pattern = pattern;
  spec.injection = injection;
  spec.intensity = 0.5;
  return spec;
}

void next_valid_loop(benchmark::State& state,
                     const pcs::traffic::TrafficSpec& spec) {
  auto src = pcs::traffic::make_source(spec);
  pcs::Rng rng(7200);
  std::size_t bits = 0;
  for (auto _ : state) {
    bits += src->next_valid(rng).count();
    benchmark::DoNotOptimize(bits);
  }
  // items = wires sampled per epoch.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kWidth));
}

void BM_NextValidBernoulli(benchmark::State& state) {
  next_valid_loop(state, spec_of("uniform", "bernoulli"));
}
BENCHMARK(BM_NextValidBernoulli);

void BM_NextValidOnOff(benchmark::State& state) {
  next_valid_loop(state, spec_of("uniform", "onoff"));
}
BENCHMARK(BM_NextValidOnOff);

void BM_NextValidExact(benchmark::State& state) {
  next_valid_loop(state, spec_of("uniform", "exact"));
}
BENCHMARK(BM_NextValidExact);

void BM_NextValidHotspot(benchmark::State& state) {
  next_valid_loop(state, spec_of("hotspot", "bernoulli"));
}
BENCHMARK(BM_NextValidHotspot);

void BM_NextValidAdversarial(benchmark::State& state) {
  next_valid_loop(state, spec_of("adversarial", "bernoulli"));
}
BENCHMARK(BM_NextValidAdversarial);

void dest_loop(benchmark::State& state, const char* pattern) {
  auto src = pcs::traffic::make_source(spec_of(pattern, "bernoulli"));
  pcs::Rng rng(7201);
  std::uint64_t sum = 0;
  std::size_t srcw = 0;
  for (auto _ : state) {
    sum += src->dest_for(rng, srcw, kWidth);
    srcw = (srcw + 1) % kWidth;
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_DestUniform(benchmark::State& state) { dest_loop(state, "uniform"); }
BENCHMARK(BM_DestUniform);

void BM_DestTranspose(benchmark::State& state) {
  dest_loop(state, "transpose");  // 4096 = 4^6: addressable
}
BENCHMARK(BM_DestTranspose);

void BM_DestHotspot(benchmark::State& state) { dest_loop(state, "hotspot"); }
BENCHMARK(BM_DestHotspot);

void BM_TraceRecordWrapOverhead(benchmark::State& state) {
  // Same epoch loop as BM_NextValidBernoulli, through the recorder; the
  // delta is the wrap cost (append + copy per epoch).
  pcs::traffic::TraceRecorder recorder(kWidth, 1);
  auto src = recorder.wrap(
      pcs::traffic::make_source(spec_of("uniform", "bernoulli")), 0);
  pcs::Rng rng(7200);
  std::size_t bits = 0;
  for (auto _ : state) {
    bits += src->next_valid(rng).count();
    benchmark::DoNotOptimize(bits);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kWidth));
}
BENCHMARK(BM_TraceRecordWrapOverhead);

void BM_WorstCaseSearch(benchmark::State& state) {
  // Setup-time price of pattern=worstcase on the paper's Revsort shape.
  const pcs::plan::PlanSwitch sw(pcs::make_switch_plan({"revsort", 256, 192}));
  std::size_t evals = 0;
  for (auto _ : state) {
    pcs::traffic::SearchOptions opts;
    opts.restarts = static_cast<std::size_t>(state.range(0));
    opts.steps = 50;
    opts.seed = 7202;
    const auto r = pcs::traffic::worst_concentration_search(sw, opts);
    evals += r.evaluations;
    benchmark::DoNotOptimize(evals);
  }
  // items = switch evaluations (route() calls) the search performed.
  state.SetItemsProcessed(static_cast<std::int64_t>(evals));
}
BENCHMARK(BM_WorstCaseSearch)->Arg(2)->Arg(8);

}  // namespace

PCS_BENCH_MAIN(print_artifacts)
