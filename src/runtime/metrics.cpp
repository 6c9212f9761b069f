#include "runtime/metrics.hpp"

#include <charconv>
#include <cmath>
#include <sstream>

#include "util/assert.hpp"

namespace pcs::rt {

void Histogram::record_n(std::uint64_t value, std::uint64_t weight) {
  if (weight == 0) return;
  const std::size_t b = histogram_bucket(value);
  std::lock_guard<std::mutex> lock(mu_);
  if (buckets_.size() <= b) buckets_.resize(b + 1, 0);
  buckets_[b] += weight;
  if (count_ == 0 || value < min_) min_ = value;
  if (value > max_) max_ = value;
  count_ += weight;
  sum_ += value * weight;
}

void Histogram::merge(const Snapshot& other) {
  if (other.count == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (buckets_.size() < other.buckets.size()) buckets_.resize(other.buckets.size(), 0);
  for (std::size_t b = 0; b < other.buckets.size(); ++b) buckets_[b] += other.buckets[b];
  if (count_ == 0 || other.min < min_) min_ = other.min;
  if (other.max > max_) max_ = other.max;
  count_ += other.count;
  sum_ += other.sum;
}

Histogram::Snapshot Histogram::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot s;
  s.buckets = buckets_;
  s.count = count_;
  s.sum = sum_;
  s.min = count_ == 0 ? 0 : min_;
  s.max = max_;
  return s;
}

std::uint64_t Histogram::count() const noexcept {
  std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

std::uint64_t Histogram::sum() const noexcept {
  std::lock_guard<std::mutex> lock(mu_);
  return sum_;
}

std::uint64_t Histogram::min() const noexcept {
  std::lock_guard<std::mutex> lock(mu_);
  return count_ == 0 ? 0 : min_;
}

std::uint64_t Histogram::max() const noexcept {
  std::lock_guard<std::mutex> lock(mu_);
  return max_;
}

double Histogram::mean() const noexcept {
  std::lock_guard<std::mutex> lock(mu_);
  return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
}

std::vector<std::uint64_t> Histogram::buckets() const {
  std::lock_guard<std::mutex> lock(mu_);
  return buckets_;
}

std::uint64_t Histogram::bucket_upper_bound(std::size_t b) noexcept {
  if (b == 0) return 0;
  if (b >= 64) return ~std::uint64_t{0};
  return (std::uint64_t{1} << b) - 1;
}

Histogram::Snapshot CampaignTally::Hist::snapshot() const {
  Histogram::Snapshot s;
  if (count_ == 0) return s;
  std::size_t used = buckets_.size();
  while (buckets_[used - 1] == 0) --used;
  s.buckets.assign(buckets_.begin(), buckets_.begin() + static_cast<std::ptrdiff_t>(used));
  s.count = count_;
  s.sum = sum_;
  s.min = min_;
  s.max = max_;
  return s;
}

std::uint64_t& CampaignTally::add_counter(std::string name, bool optional) {
  counters_.push_back(CounterSlot{std::move(name), 0, optional});
  return counters_.back().value;
}

CampaignTally::Hist& CampaignTally::histogram(std::string name) {
  histograms_.emplace_back(std::move(name), Hist{});
  return histograms_.back().second;
}

void CampaignTally::fold_into(MetricsRegistry& metrics) const {
  for (const CounterSlot& c : counters_) {
    if (c.optional && c.value == 0) continue;
    metrics.counter(c.name).add(c.value);
  }
  for (const auto& [name, h] : histograms_) metrics.histogram(name).merge(h.snapshot());
}

std::string format_json_double(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  PCS_REQUIRE(ec == std::errc{}, "double formatting failed");
  std::string s(buf, ptr);
  // "1" -> "1.0" so the token reads as a real; exponent forms already do.
  if (s.find_first_of(".eEn") == std::string::npos) s += ".0";
  return s;
}

std::string json_escape(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

void MetricsRegistry::for_each_counter(
    const std::function<void(const std::string&, std::uint64_t)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, c] : counters_) fn(name, c.value());
}

void MetricsRegistry::for_each_gauge(
    const std::function<void(const std::string&, double)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, g] : gauges_) fn(name, g.value());
}

void MetricsRegistry::for_each_histogram(
    const std::function<void(const std::string&, const Histogram::Snapshot&)>& fn)
    const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, h] : histograms_) fn(name, h.snapshot());
}

namespace {

std::string spaces(std::size_t n) { return std::string(n, ' '); }

template <typename Map, typename Emit>
void emit_map(std::ostringstream& os, const std::string& key, const Map& map,
              std::size_t indent, bool trailing_comma, Emit emit_value) {
  os << spaces(indent + 2) << json_escape(key) << ": {";
  bool first = true;
  for (const auto& [name, metric] : map) {
    os << (first ? "\n" : ",\n") << spaces(indent + 4) << json_escape(name) << ": ";
    emit_value(os, metric, indent + 4);
    first = false;
  }
  if (!first) os << "\n" << spaces(indent + 2);
  os << "}" << (trailing_comma ? "," : "") << "\n";
}

}  // namespace

std::string MetricsRegistry::to_json(std::size_t indent) const {
  std::ostringstream os;
  // Holding the registry mutex for the whole walk pins the name sets; each
  // histogram is additionally snapshotted under its own lock so its fields
  // stay coherent with each other.
  std::lock_guard<std::mutex> lock(mu_);
  os << spaces(indent) << "{\n";
  emit_map(os, "counters", counters_, indent, true,
           [](std::ostringstream& o, const Counter& c, std::size_t) { o << c.value(); });
  emit_map(os, "gauges", gauges_, indent, true,
           [](std::ostringstream& o, const Gauge& g, std::size_t) {
             o << format_json_double(g.value());
           });
  emit_map(os, "histograms", histograms_, indent, false,
           [](std::ostringstream& o, const Histogram& h, std::size_t ind) {
             const Histogram::Snapshot s = h.snapshot();
             o << "{\"count\": " << s.count << ", \"sum\": " << s.sum
               << ", \"min\": " << s.min << ", \"max\": " << s.max
               << ", \"mean\": " << format_json_double(s.mean()) << ",\n"
               << spaces(ind + 1) << "\"buckets\": [";
             for (std::size_t b = 0; b < s.buckets.size(); ++b) {
               if (b) o << ", ";
               o << "[" << Histogram::bucket_upper_bound(b) << ", " << s.buckets[b]
                 << "]";
             }
             o << "]}";
           });
  os << spaces(indent) << "}";
  return os.str();
}

}  // namespace pcs::rt
