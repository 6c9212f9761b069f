// The per-layer budget of a traced run, read from obs::Tracer snapshots of
// the spans src/ already emits (runtime.*, fabric.*, plan.*) plus the
// benchmark's own probe span, bench.traffic, around every traffic draw.
//
// One campaign thread (fabric_omega): add_exact() partitions
// each epoch's wall time.  Every instant inside an epoch span belongs to the
// deepest layer span covering it -- plan kernel chunks on pool workers cover
// part of their dispatch -- and what no layer covers is `other` (epoch and
// hop bookkeeping, source-queue moves), so the shares plus other sum to 1.
//
// The daemon (serve_mix) runs campaigns on several connection threads that
// all record as thread 0, so their spans cannot be told apart in time;
// add_totals() divides summed span durations by summed epoch durations, and
// there the route shares include the kernel time inside them.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

enum Layer : std::size_t {
  kTraffic,
  kRuntimeInject,
  kRuntimePresent,
  kRuntimeRoute,
  kRuntimeResolve,
  kFabricAlloc,
  kFabricRoute,
  kFabricResolve,
  kKernel,
  kOther,
  kLayerCount
};

/// The per-layer metric that reports layer `l`'s share of epoch time.
const char* layer_share_metric(Layer l);

/// Span name of the benchmark's traffic probe (category "bench").
inline constexpr const char* kTrafficSpan = "bench.traffic";

struct LayerBudget {
  std::array<double, kLayerCount> self_us{};
  double epoch_us = 0.0;        ///< summed epoch spans
  double route_us = 0.0;        ///< summed route dispatch spans, kernel included
  std::uint64_t dispatches = 0;      ///< fabric.route + runtime.route spans
  std::uint64_t kernel_chunks = 0;   ///< plan.fastpath.* spans
  std::uint64_t kernel_patterns = 0; ///< their "patterns" args
  std::vector<double> epoch_span_us; ///< epoch span durations (totals mode)

  void add_exact(const pcs::obs::TraceSnapshot& snap);
  void add_totals(const pcs::obs::TraceSnapshot& snap);

  /// Layer self time over epoch time.  In totals mode `other` is the epoch
  /// time no engine layer span covers.
  double share(Layer l) const;

 private:
  bool totals_mode_ = false;
};

}  // namespace perfbench
