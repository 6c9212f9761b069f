// Multi-hop fabric serving performance (experiment FB1): epochs per second
// of the fabric campaign loop as the hop count grows.  Every hop adds one
// fused route_batch dispatch per epoch plus the credit/VOQ bookkeeping, so
// the sweep shows how close the composition comes to the ideal 1/hops
// scaling over the single-switch loop.  The allocator axis (rr vs islip)
// isolates the arbitration cost from the routing cost.
//
// The pipelined twins (experiment F2) run a 4-hop fabric of columnsort
// (64 -> 32) nodes with epochs_in_flight in {1, 2, 4, 8}: the wavefront
// scheduler fuses the ready units of several in-flight epochs into ONE
// route_batch dispatch per switch kind.  The fusion amortizes the fixed
// per-dispatch cost (chunk setup, per-chunk routing scratch, trace
// bookkeeping), so the win is largest where the per-pattern kernel is
// small -- hence the small columnsort node, the shape every hop of a large
// multichip fabric actually has.  On kernel-dominated nodes (the revsort
// 256 sweep above) pipelining is wash, by design: patterns route
// independently, so fusing cannot shrink the kernel work itself.
#include "bench_common.hpp"
#include "fabric/fabric_sim.hpp"
#include "runtime/metrics.hpp"
#include "traffic/traffic_source.hpp"

namespace {

void print_artifacts() {
  pcs::bench::artifact_header(
      "FB1", "multi-hop fabric campaign loop, hop-count sweep (timings below)");
}

pcs::fabric::FabricSpec fabric_spec(std::size_t hops, const char* alloc) {
  pcs::fabric::FabricSpec spec;
  spec.topology =
      hops == 1 ? pcs::fabric::Topology::kSingle : pcs::fabric::Topology::kOmega;
  spec.hops = hops;
  spec.radix = 2;
  // Revsort(256 -> 192): guaranteed capacity 80 per node, so a moderate
  // load keeps every hop busy without saturating the drain phase.
  spec.node.family = "revsort";
  spec.node.n = 256;
  spec.node.m = 192;
  spec.credits = 8;
  spec.alloc = alloc;
  return spec;
}

pcs::fabric::FabricOptions bench_opts() {
  pcs::fabric::FabricOptions opts;
  opts.queue_depth = 4;
  opts.seed = 7200;
  opts.warmup_epochs = 4;
  opts.measure_epochs = 32;
  opts.drain_epochs_max = 256;
  opts.check_invariants = false;  // measure the loop, not the checker
  return opts;
}

pcs::fabric::FabricSpec pipelined_spec(std::size_t hops) {
  pcs::fabric::FabricSpec spec = fabric_spec(hops, "rr");
  // Columnsort(64 -> 32): the per-pattern routing kernel is cheap, so the
  // per-dispatch fixed costs the pipeline amortizes dominate the route time.
  spec.node.family = "columnsort";
  spec.node.n = 64;
  spec.node.m = 32;
  return spec;
}

void campaign_loop(benchmark::State& state, pcs::fabric::FabricSpec spec,
                   std::size_t epochs_in_flight = 1) {
  std::uint64_t dispatches = 0;
  for (auto _ : state) {
    pcs::fabric::FabricOptions opts = bench_opts();
    opts.epochs_in_flight = epochs_in_flight;
    pcs::fabric::FabricSim sim(
        spec, opts, [](std::size_t width) {
          return std::unique_ptr<pcs::traffic::TrafficSource>(
              std::make_unique<pcs::traffic::ComposedSource>(
                  pcs::traffic::PatternKind::kUniform,
                  std::make_unique<pcs::traffic::BernoulliProcess>(width, 0.5),
                  0.125));
        });
    pcs::rt::MetricsRegistry metrics;
    sim.run(metrics);
    dispatches += metrics.counter("route_batch_dispatches").value();
    benchmark::DoNotOptimize(dispatches);
  }
  // items = logical route_batch dispatches resolved across all hops (the
  // pipeline merges their physical execution but resolves the same units).
  state.SetItemsProcessed(static_cast<std::int64_t>(dispatches));
}

void BM_FabricHops1(benchmark::State& state) {
  campaign_loop(state, fabric_spec(1, "rr"));
}
void BM_FabricHops2(benchmark::State& state) {
  campaign_loop(state, fabric_spec(2, "rr"));
}
void BM_FabricHops3(benchmark::State& state) {
  campaign_loop(state, fabric_spec(3, "rr"));
}
void BM_FabricHops3ISlip(benchmark::State& state) {
  campaign_loop(state, fabric_spec(3, "islip"));
}

// F2 pipelined twins: the identical 4-hop campaign at increasing pipeline
// depth.  Serial (epochs_in_flight=1) is the baseline the others must beat.
void BM_FabricHops4Pipe1(benchmark::State& state) {
  campaign_loop(state, pipelined_spec(4), 1);
}
void BM_FabricHops4Pipe2(benchmark::State& state) {
  campaign_loop(state, pipelined_spec(4), 2);
}
void BM_FabricHops4Pipe4(benchmark::State& state) {
  campaign_loop(state, pipelined_spec(4), 4);
}
void BM_FabricHops4Pipe8(benchmark::State& state) {
  campaign_loop(state, pipelined_spec(4), 8);
}

BENCHMARK(BM_FabricHops1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FabricHops2)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FabricHops3)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FabricHops3ISlip)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FabricHops4Pipe1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FabricHops4Pipe2)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FabricHops4Pipe4)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FabricHops4Pipe8)->Unit(benchmark::kMillisecond);

}  // namespace

PCS_BENCH_MAIN(print_artifacts)
