// Shared switch/plan cache for the serving daemon, keyed by
// SwitchSpec::digest(exec).  Tenants asking for the same (family, shape,
// faults, exec engine) share ONE compiled SwitchPlan and its analysis
// tables behind a single plan::PlanSwitch -- PlanExecutor::route /
// route_batch are const with per-call scratch (the only mutable member is
// an atomic safety counter), so one instance serves any number of
// concurrent campaigns.
//
// Entries are ref-counted via shared_ptr: eviction drops the cache's
// reference, never an in-use tenant's -- a campaign holding a checkout
// keeps its switch alive however the cache churns.  Eviction is LRU by a
// logical tick under a byte budget (an *estimate* of the plan + analysis
// footprint; see approx_switch_bytes), and entries still checked out are
// skipped -- the budget can transiently overshoot rather than strand a
// running campaign's plan or recompile it seconds later.
//
// Concurrency: the map and stats sit behind one mutex, but plan
// COMPILATION runs outside it -- a cold n=2^16 compile must not stall every
// other tenant's hit path.  Two threads missing the same key concurrently
// both compile; the loser adopts the winner's entry and its build is
// discarded (counted in stats().rebuild_races).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>

#include "plan/plan_switch.hpp"
#include "switch/make_switch.hpp"

namespace pcs::serve {

/// Deterministic estimate of the resident footprint of a compiled switch:
/// the plan's wiring/readout/fast-path tables plus a fixed multiplier for
/// the executor's analysis tables (dense gather sources mirror the wiring).
std::size_t approx_switch_bytes(const plan::PlanSwitch& sw);

class PlanCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    /// Concurrent misses on one key: builds discarded in favor of the
    /// first-inserted entry.
    std::uint64_t rebuild_races = 0;
    std::size_t entries = 0;
    std::size_t bytes = 0;  ///< estimated resident bytes of cached entries
  };

  struct Checkout {
    std::shared_ptr<const plan::PlanSwitch> sw;
    bool hit = false;
    std::uint64_t key = 0;      ///< SwitchSpec::digest()
    std::size_t bytes = 0;      ///< this entry's footprint estimate
  };

  /// `byte_budget` bounds the estimated bytes of cached entries; 0 means
  /// "cache nothing" (every checkout compiles, for A/B runs).
  explicit PlanCache(std::size_t byte_budget);

  /// Return the shared switch for `spec`, compiling on miss.  Throws
  /// ContractViolation for specs that cannot compile (unknown family, bad
  /// shape) -- nothing is inserted on throw.
  Checkout checkout(const SwitchSpec& spec);

  Stats stats() const;

  /// Validated live update (SIGHUP reload).  Shrinking evicts immediately
  /// (LRU, in-use entries skipped).
  void set_byte_budget(std::size_t budget);
  std::size_t byte_budget() const;

 private:
  struct Entry {
    std::shared_ptr<const plan::PlanSwitch> sw;
    std::size_t bytes = 0;
    std::uint64_t last_use = 0;  ///< logical tick of the latest checkout
  };

  /// Drop LRU entries (use_count == 1, i.e. cache-only) until within
  /// budget or nothing is evictable.  Caller holds mu_.
  void evict_locked();

  mutable std::mutex mu_;
  std::size_t byte_budget_;
  std::uint64_t tick_ = 0;
  std::map<std::uint64_t, Entry> entries_;
  Stats stats_;
};

}  // namespace pcs::serve
