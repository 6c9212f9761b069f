#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "util/digest.hpp"

namespace perfbench {

void Result::fail(const std::string& why) {
  ++failed;
  std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

ProcSample proc_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  ProcSample s;
  s.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
  s.minflt = static_cast<std::uint64_t>(ru.ru_minflt);
  s.wall = Clock::now();
  return s;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[idx];
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double windowed_p99(const std::vector<double>& v) {
  constexpr std::size_t kWindow = 1000;
  const std::size_t windows = std::max<std::size_t>(1, v.size() / kWindow);
  const std::size_t per = v.size() / windows;
  std::vector<double> p99;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto first = v.begin() + static_cast<std::ptrdiff_t>(w * per);
    p99.push_back(
        quantile(std::vector<double>(first, first + static_cast<std::ptrdiff_t>(per)),
                 0.99));
  }
  return median(std::move(p99));
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

std::string conservation_error(std::uint64_t offered, std::uint64_t delivered,
                               std::uint64_t dropped, std::uint64_t residual) {
  if (offered == delivered + dropped + residual) return "";
  return "conservation broken: offered " + std::to_string(offered) +
         " != delivered " + std::to_string(delivered) + " + dropped " +
         std::to_string(dropped) + " + residual " + std::to_string(residual);
}

std::uint64_t counter_or_zero(const pcs::rt::MetricsRegistry& reg,
                              const std::string& name) {
  const auto& counters = reg.counters();
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second.value();
}

std::string registry_error(const pcs::rt::MetricsRegistry& reg) {
  if (counter_or_zero(reg, "total.offered") == 0) {
    return "campaign offered no messages";
  }
  return conservation_error(counter_or_zero(reg, "total.offered"),
                            counter_or_zero(reg, "total.delivered"),
                            counter_or_zero(reg, "total.dropped"),
                            counter_or_zero(reg, "total.residual"));
}

std::string reply_error(const pcs::serve::CampaignReply& rep) {
  if (rep.status != pcs::serve::Status::kOk) {
    return std::string(rep.status == pcs::serve::Status::kRejected ? "rejected"
                                                                   : "error") +
           " reply: " + rep.reason;
  }
  return conservation_error(rep.offered, rep.delivered, rep.dropped,
                            rep.residual);
}

namespace {

bool simulated_name(const std::string& name) {
  return name.find("wall") == std::string::npos &&
         name.rfind("profile.", 0) != 0 && name.rfind("fabric.pipeline.", 0) != 0;
}

void mix_string(pcs::Digest& d, const std::string& s) {
  d.mix_u64(s.size());
  for (const char c : s) d.mix_byte(static_cast<std::uint8_t>(c));
}

}  // namespace

std::uint64_t simulated_digest(const pcs::rt::MetricsRegistry& reg) {
  pcs::Digest d;
  for (const auto& [name, c] : reg.counters()) {
    if (!simulated_name(name)) continue;
    mix_string(d, name);
    d.mix_u64(c.value());
  }
  for (const auto& [name, g] : reg.gauges()) {
    if (!simulated_name(name)) continue;
    mix_string(d, name);
    d.mix_u64(std::bit_cast<std::uint64_t>(g.value()));
  }
  for (const auto& [name, h] : reg.histograms()) {
    if (!simulated_name(name)) continue;
    const pcs::rt::Histogram::Snapshot s = h.snapshot();
    mix_string(d, name);
    d.mix_u64(s.count);
    d.mix_u64(s.sum);
    d.mix_u64(s.min);
    d.mix_u64(s.max);
    for (const std::uint64_t b : s.buckets) d.mix_u64(b);
  }
  return d.value();
}

std::uint64_t reply_digest(const pcs::serve::CampaignReply& rep) {
  pcs::Digest d;
  d.mix_u64(static_cast<std::uint64_t>(rep.status));
  mix_string(d, rep.reason);
  d.mix_u64(rep.drained ? 1 : 0);
  d.mix_u64(rep.saturated ? 1 : 0);
  d.mix_u64(rep.offered);
  d.mix_u64(rep.delivered);
  d.mix_u64(rep.dropped);
  d.mix_u64(rep.residual);
  d.mix_u64(std::bit_cast<std::uint64_t>(rep.delivery_rate));
  d.mix_u64(std::bit_cast<std::uint64_t>(rep.mean_latency_epochs));
  d.mix_u64(rep.spec_digest);
  return d.value();
}

}  // namespace perfbench
