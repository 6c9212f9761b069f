#include "serve/plan_cache.hpp"

#include <limits>
#include <utility>

#include "util/assert.hpp"

namespace pcs::serve {

std::size_t approx_switch_bytes(const plan::PlanSwitch& sw) {
  const plan::SwitchPlan& p = sw.plan();
  std::size_t bytes = sizeof(plan::PlanSwitch);
  auto stage_bytes = [](const plan::PlanStage& st) {
    return st.in_src.size() * sizeof(std::int32_t) + st.dead.size() +
           st.label.size();
  };
  for (const plan::PlanStage& st : p.stages) bytes += stage_bytes(st);
  for (const plan::PlanStage& st : p.safety_stages) bytes += stage_bytes(st);
  bytes += p.readout.size() * sizeof(std::uint32_t);
  bytes += p.fp_rev.size() * sizeof(std::uint32_t);
  bytes += p.faults.size() * sizeof(plan::ChipFault);
  // The analysis pass materializes one dense uint32 source table per
  // inter-stage link plus lane-granularity mirrors -- empirically ~2x the
  // plan's own wiring, so budget 3x total.
  return 3 * bytes;
}

PlanCache::PlanCache(std::size_t byte_budget) : byte_budget_(byte_budget) {}

PlanCache::Checkout PlanCache::checkout(const SwitchSpec& spec) {
  const std::uint64_t key = spec.digest();
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      ++stats_.hits;
      it->second.last_use = ++tick_;
      return Checkout{it->second.sw, true, key, it->second.bytes};
    }
    ++stats_.misses;
  }

  // Compile outside the lock: a cold build must not block other tenants'
  // hits.  make_switch_plan throws on bad specs before anything is shared.
  auto built = std::make_shared<const plan::PlanSwitch>(make_switch_plan(spec));
  const std::size_t bytes = approx_switch_bytes(*built);

  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = entries_.try_emplace(key);
  if (!inserted) {
    // Another thread built and inserted this key first; adopt its entry.
    ++stats_.rebuild_races;
    it->second.last_use = ++tick_;
    return Checkout{it->second.sw, true, key, it->second.bytes};
  }
  if (byte_budget_ == 0) {
    // Caching disabled: hand the freshly built switch out uncached.
    entries_.erase(it);
    return Checkout{std::move(built), false, key, bytes};
  }
  it->second.sw = std::move(built);
  it->second.bytes = bytes;
  it->second.last_use = ++tick_;
  stats_.bytes += bytes;
  stats_.entries = entries_.size();
  // Copy the caller's reference BEFORE evicting: holding it pins this
  // entry's use_count above 1, so eviction can reclaim older entries but
  // never the one being handed out.
  Checkout out{it->second.sw, false, key, bytes};
  evict_locked();
  return out;
}

void PlanCache::evict_locked() {
  while (stats_.bytes > byte_budget_ && entries_.size() > 1) {
    auto victim = entries_.end();
    std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      // use_count == 1 means only the cache holds it: safe to drop without
      // recompiling under a running campaign.
      if (it->second.sw.use_count() == 1 && it->second.last_use < oldest) {
        oldest = it->second.last_use;
        victim = it;
      }
    }
    if (victim == entries_.end()) break;  // everything in use; overshoot
    stats_.bytes -= victim->second.bytes;
    entries_.erase(victim);
    ++stats_.evictions;
  }
  stats_.entries = entries_.size();
}

PlanCache::Stats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void PlanCache::set_byte_budget(std::size_t budget) {
  std::lock_guard<std::mutex> lock(mu_);
  byte_budget_ = budget;
  if (byte_budget_ > 0) evict_locked();
}

std::size_t PlanCache::byte_budget() const {
  std::lock_guard<std::mutex> lock(mu_);
  return byte_budget_;
}

}  // namespace pcs::serve
