// Telemetry for the fabric runtime and the round simulators: named counters,
// gauges, and log2-bucketed histograms collected in a registry and exported
// as deterministic JSON.
//
// The campaign engines (runtime/fabric_runtime, fabric/fabric_sim) and the
// serving daemon all report through this one schema.
// Export is byte-deterministic for identical measurements: names are emitted
// in sorted order (std::map) and doubles are printed with std::to_chars
// shortest round-trip form, so a fixed-seed campaign can be diffed in CI.
//
// Two tiers:
//  * MetricsRegistry is safe for concurrent writers plus concurrent readers:
//    the serving daemon aggregates finished campaigns into its global
//    registry and scrapes it from other threads.  Counters and gauges are
//    single atomics (relaxed -- they are statistics, not synchronization);
//    histograms guard their buckets with a mutex and hand readers a coherent
//    Snapshot.  Metric creation and to_json() serialize on a registry mutex;
//    references returned by counter()/gauge()/histogram() stay valid and
//    lock-free to hold.
//  * CampaignTally is the campaign engines' write side: plain integers and
//    lock-free histograms owned by the one thread running the campaign,
//    folded into the caller's registry once when the campaign ends.  An
//    epoch therefore takes no lock and no atomic for its metrics, and the
//    registry JSON is byte-identical to recording every event directly.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace pcs::rt {

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written instantaneous value.
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  double value() const noexcept { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// The log2 bucket of `value`: bucket 0 holds the value 0, bucket b >= 1
/// holds [2^(b-1), 2^b - 1].  Histogram and CampaignTally::Hist share it.
inline std::size_t histogram_bucket(std::uint64_t value) noexcept {
  return static_cast<std::size_t>(std::bit_width(value));
}

/// Histogram over nonnegative integer samples with logarithmic buckets
/// (histogram_bucket), so a latency or occupancy distribution of any range
/// fits in 65 buckets while keeping exact count, sum, min, and max.
class Histogram {
 public:
  /// A coherent copy of the histogram's state, taken under the lock; the
  /// scrape path formats from this so a concurrent record() can never tear
  /// the count/sum/buckets relationship.
  struct Snapshot {
    std::vector<std::uint64_t> buckets;
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    double mean() const noexcept {
      return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
    }
  };

  void record(std::uint64_t value) { record_n(value, 1); }
  /// Record `weight` samples of `value` at once (bulk import of a
  /// per-value histogram vector).
  void record_n(std::uint64_t value, std::uint64_t weight);

  /// Merge another histogram's snapshot into this one (bucket-wise add);
  /// the daemon folds per-campaign registries into its global one with this.
  void merge(const Snapshot& other);

  Snapshot snapshot() const;

  std::uint64_t count() const noexcept;
  std::uint64_t sum() const noexcept;
  std::uint64_t min() const noexcept;
  std::uint64_t max() const noexcept;
  double mean() const noexcept;

  /// Bucket occupancy copy; prefer snapshot() when more than one field is
  /// needed coherently.
  std::vector<std::uint64_t> buckets() const;

  /// Largest value bucket b admits: 0 for b = 0, 2^b - 1 otherwise.
  static std::uint64_t bucket_upper_bound(std::size_t b) noexcept;

 private:
  mutable std::mutex mu_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

/// Named metrics, created on first access and exported in sorted-name order.
/// References returned by counter()/gauge()/histogram() stay valid for the
/// registry's lifetime (node-based map storage) and may be used concurrently
/// with other accessors and with to_json().
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    return counters_[name];
  }
  Gauge& gauge(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    return gauges_[name];
  }
  Histogram& histogram(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    return histograms_[name];
  }

  // Read-side iteration.  NOT safe against concurrent metric *creation*;
  // single-threaded analysis code (stats bridges, tests) uses these, the
  // daemon scrape goes through to_json()/for_each_* which lock.
  const std::map<std::string, Counter>& counters() const noexcept { return counters_; }
  const std::map<std::string, Gauge>& gauges() const noexcept { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const noexcept {
    return histograms_;
  }

  /// Locked iteration helpers for cross-registry aggregation while writers
  /// may still be creating metrics in `this`.
  void for_each_counter(
      const std::function<void(const std::string&, std::uint64_t)>& fn) const;
  void for_each_gauge(
      const std::function<void(const std::string&, double)>& fn) const;
  void for_each_histogram(
      const std::function<void(const std::string&, const Histogram::Snapshot&)>& fn)
      const;

  /// Pretty-printed JSON object {"counters": {...}, "gauges": {...},
  /// "histograms": {...}}, every line prefixed by `indent` spaces (the
  /// opening brace included), so it can be embedded in a larger document.
  /// Safe to call while other threads record; sees each metric's value at
  /// some point during the call.
  std::string to_json(std::size_t indent = 0) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

/// Campaign-local metrics with no synchronization (see the header comment).
/// An engine registers its series once at campaign start, keeps the
/// returned references, records from its one thread, and calls fold_into()
/// once at the end.  Registration allocates; recording never does.
class CampaignTally {
 public:
  /// A histogram with Histogram's buckets, for one writer and no lock.
  class Hist {
   public:
    void record(std::uint64_t value) noexcept {
      ++buckets_[histogram_bucket(value)];
      if (count_ == 0 || value < min_) min_ = value;
      if (value > max_) max_ = value;
      ++count_;
      sum_ += value;
    }
    /// What Histogram would hold after the same records: buckets up to the
    /// highest occupied one.
    Histogram::Snapshot snapshot() const;

   private:
    std::array<std::uint64_t, 65> buckets_{};
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = 0;
    std::uint64_t max_ = 0;
  };

  /// A counter folded into the registry as `name`, which the fold creates
  /// even when the count is zero (a stable scrape key set).
  std::uint64_t& counter(std::string name) { return add_counter(std::move(name), false); }
  /// A counter folded only when nonzero: an optional series (deflections)
  /// appears in the registry only on campaigns that use it.
  std::uint64_t& optional_counter(std::string name) {
    return add_counter(std::move(name), true);
  }
  /// A histogram folded as `name` (created even when empty).
  Hist& histogram(std::string name);

  /// Add every counter to, and merge every histogram into, `metrics`.
  void fold_into(MetricsRegistry& metrics) const;

 private:
  std::uint64_t& add_counter(std::string name, bool optional);

  struct CounterSlot {
    std::string name;
    std::uint64_t value = 0;
    bool optional = false;
  };
  // Deques keep the references handed out stable as series are added.
  std::deque<CounterSlot> counters_;
  std::deque<std::pair<std::string, Hist>> histograms_;
};

/// `v` rendered for JSON: shortest round-trip decimal via std::to_chars,
/// with a trailing ".0" added to integral values so the token stays a JSON
/// number that parses back to double.  Non-finite values render as 0 (JSON
/// has no NaN/Inf); producers are expected to guard.
std::string format_json_double(double v);

/// `s` as a JSON string literal, quotes included.
std::string json_escape(const std::string& s);

}  // namespace pcs::rt
