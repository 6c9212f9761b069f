// Shared pieces of the benchmark program: the result record printed as the
// last line of standard output, process resource readings, order
// statistics, and the correctness gate every campaign and reply passes.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "runtime/metrics.hpp"
#include "serve/protocol.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Parsed command line.  `tiny` shrinks every workload for the self-test.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports.  A run is correct when it attempted something and
/// nothing failed; perfbench exits nonzero otherwise.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Metrics a build without tracing cannot take (named, never zeroed).
  std::vector<std::string> not_taken;
  /// Sample counts and other context, printed on the line before the result.
  std::vector<std::pair<std::string, double>> info;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  /// Count one failed operation and say why on stderr.
  void fail(const std::string& why);
  bool correct() const noexcept { return attempted > 0 && failed == 0; }
};

double seconds_between(Clock::time_point a, Clock::time_point b);

/// Process CPU time (user + system) and minor page faults so far.
struct ProcSample {
  double cpu_s = 0.0;
  std::uint64_t minflt = 0;
  Clock::time_point wall{};
};
ProcSample proc_now();
/// Peak resident set of this process, in MiB.
double peak_rss_mb();

/// Nearest-rank quantile of `v` (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);
double mean(const std::vector<double>& v);

/// The p99 a run reports: split `v` (in time order) into windows of at
/// least 1000 consecutive samples, so each window's p99 has ten beyond it,
/// and take the median of the windows' p99s.  A host stall lifts the p99 of
/// the window it lands in; the median moves only when stalls fill most
/// windows.
double windowed_p99(const std::vector<double>& v);

// --- correctness gate ----------------------------------------------------

/// "" when offered == delivered + dropped + residual, else the imbalance.
std::string conservation_error(std::uint64_t offered, std::uint64_t delivered,
                               std::uint64_t dropped, std::uint64_t residual);

/// "" when a campaign registry balances its total.* counters.
std::string registry_error(const pcs::rt::MetricsRegistry& reg);

/// "" when a daemon reply is OK and balanced.
std::string reply_error(const pcs::serve::CampaignReply& rep);

/// FNV-1a over the simulated part of a campaign registry: every counter,
/// gauge and histogram except names containing "wall" or starting with
/// "profile." or "fabric.pipeline." (schedule artifacts, not model events).
std::uint64_t simulated_digest(const pcs::rt::MetricsRegistry& reg);

/// FNV-1a over every simulated field of a reply (not cache_hit, which says
/// how the daemon found the plan, not what the campaign did).
std::uint64_t reply_digest(const pcs::serve::CampaignReply& rep);

/// Counter value or 0 when absent.
std::uint64_t counter_or_zero(const pcs::rt::MetricsRegistry& reg,
                              const std::string& name);

}  // namespace perfbench
