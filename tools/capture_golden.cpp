// Throwaway: capture pre-refactor golden hashes for the fabric pipeline
// bit-identity pin (test_fabric_pipeline.cpp).  Not built by CMake.
#include <cstdio>
#include <memory>
#include <string>

#include "fabric/fabric_sim.hpp"
#include "obs/trace.hpp"
#include "runtime/metrics.hpp"
#include "traffic/traffic_source.hpp"
#include "util/digest.hpp"
#include "util/parallel.hpp"

using namespace pcs;
using namespace pcs::fabric;

static FabricSim::TrafficFactory bernoulli(double p) {
  return [p](std::size_t width) -> std::unique_ptr<traffic::TrafficSource> {
    return std::make_unique<traffic::ComposedSource>(
        traffic::PatternKind::kUniform,
        std::make_unique<traffic::BernoulliProcess>(width, p), 0.125);
  };
}

static FabricOptions fast_opts() {
  FabricOptions opts;
  opts.queue_depth = 2;
  opts.seed = 7;
  opts.warmup_epochs = 4;
  opts.measure_epochs = 24;
  opts.drain_epochs_max = 128;
  opts.check_invariants = true;
  return opts;
}

static std::uint64_t hash_str(const std::string& s) {
  Digest d;
  for (char c : s) d.mix_byte(static_cast<std::uint8_t>(c));
  return d.value();
}

static FabricSpec base_spec(Topology t, std::size_t hops, std::size_t radix) {
  FabricSpec spec;
  spec.topology = t;
  spec.hops = hops;
  spec.radix = radix;
  spec.node.family = "columnsort";
  spec.node.n = 64;
  spec.node.m = 32;
  spec.credits = 4;
  return spec;
}

int main() {
  {
    FabricSpec spec = base_spec(Topology::kOmega, 3, 2);
    FabricSim sim(spec, fast_opts(), bernoulli(0.6));
    rt::MetricsRegistry m;
    sim.run(m);
    std::printf("G1 omega rr      : 0x%016llx\n",
                (unsigned long long)hash_str(m.to_json()));
  }
  {
    FabricSpec spec = base_spec(Topology::kButterfly, 3, 2);
    spec.alloc = "islip";
    FabricSim sim(spec, fast_opts(), bernoulli(0.5));
    rt::MetricsRegistry m;
    sim.run(m);
    std::printf("G2 butterfly isl : 0x%016llx\n",
                (unsigned long long)hash_str(m.to_json()));
  }
  {
    FabricSpec spec = base_spec(Topology::kFatTree, 3, 2);
    spec.alloc = "islip";
    spec.node.faults = {{0, 0}};
    spec.fault_hop = 1;
    FabricSim sim(spec, fast_opts(), bernoulli(0.7));
    rt::MetricsRegistry m;
    sim.run(m);
    std::printf("G3 fattree fault : 0x%016llx\n",
                (unsigned long long)hash_str(m.to_json()));
  }
  {
    set_max_parallelism(1);
    obs::Tracer::instance().enable(obs::ClockMode::kLogical);
    FabricSpec spec = base_spec(Topology::kOmega, 3, 2);
    FabricSim sim(spec, fast_opts(), bernoulli(0.6));
    rt::MetricsRegistry m;
    sim.run(m);
    obs::TraceSnapshot snap = obs::Tracer::instance().drain();
    obs::Tracer::instance().disable();
    const std::string json = obs::chrome_trace_json({snap});
    std::printf("T1 trace logical : 0x%016llx (spans=%zu)\n",
                (unsigned long long)hash_str(json), snap.spans.size());
  }
  return 0;
}
