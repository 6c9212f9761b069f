// The workloads and the metric sets every one of them reports.
//
// Every workload prints every end-to-end metric (untraced run) and every
// per-layer metric (traced run), in the fixed order emit_* gives them, so
// the names here and in BENCHMARK.json are one list.  README.md says what
// each metric means on each workload.
#pragma once

#include "common.hpp"
#include "layers.hpp"

namespace perfbench {

Result run_fabric_omega(const Args& args);
Result run_serve_mix(const Args& args);

struct EndToEnd {
  double msgs_per_s = 0.0;
  double cpu_s_per_mmsg = 0.0;
  double reply_ms_p50 = 0.0;
  double reply_ms_p99 = 0.0;
  double setup_s = 0.0;
  double peak_rss_mb = 0.0;
};

struct PerLayer {
  LayerBudget budget;
  bool epoch_from_spans = false;  ///< serve_mix: epoch times come from spans
  double traffic_calls = 0.0;     ///< per traced campaign
  double traffic_dest_calls = 0.0;
  double compile_ms = 0.0;
  double epoch_us_p50 = 0.0;
  double epoch_us_p99 = 0.0;
  double campaign_ms_mean = 0.0;
  double cache_hit_ratio = 0.0;
  double outside_campaign_share = 0.0;
  double rejected = 0.0;
  double scrape_ms_p50 = 0.0;
  double cpu_per_wall = 0.0;
  double minflt_per_kmsg = 0.0;
  double trace_overhead = 0.0;
  double lag_ms_max = 0.0;
  double sim_delivered = 0.0;
  double sim_dropped = 0.0;
  double sim_retries = 0.0;
  double sim_credit_stalls = 0.0;
  double sim_latency_epochs_mean = 0.0;
  double sim_dispatches = 0.0;
};

void emit_end_to_end(Result& res, const EndToEnd& e);
/// With tracing compiled out, the span-derived metrics go to
/// res.not_taken instead of being printed as zeros.
void emit_per_layer(Result& res, const PerLayer& p);

}  // namespace perfbench
