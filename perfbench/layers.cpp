#include "layers.hpp"

#include <algorithm>
#include <cstring>

namespace perfbench {

namespace {

using pcs::obs::SpanRecord;

// Spans that can cover an instant of an epoch, deepest first: the first
// active slot in this order owns the instant.
enum Slot : int {
  sKernel,
  sTraffic,
  sFabricAlloc,
  sFabricRoute,
  sFabricResolve,
  sRuntimeRoute,
  sRuntimeInject,
  sRuntimePresent,
  sRuntimeResolve,
  sHop,
  sEpoch,
  kSlots
};

constexpr Layer kSlotLayer[kSlots] = {
    kKernel,        kTraffic,       kFabricAlloc,    kFabricRoute,
    kFabricResolve, kRuntimeRoute,  kRuntimeInject,  kRuntimePresent,
    kRuntimeResolve, kOther,        kOther};

struct NamedSlot {
  const char* name;
  Slot slot;
};

constexpr NamedSlot kNamedSlots[] = {
    {kTrafficSpan, sTraffic},
    {"fabric.alloc", sFabricAlloc},
    {"fabric.route", sFabricRoute},
    {"fabric.resolve", sFabricResolve},
    {"fabric.hop", sHop},
    {"fabric.epoch", sEpoch},
    {"runtime.route", sRuntimeRoute},
    {"runtime.inject", sRuntimeInject},
    {"runtime.present", sRuntimePresent},
    {"runtime.resolve", sRuntimeResolve},
    {"runtime.epoch", sEpoch},
};

bool is_plan_span(const SpanRecord& s) {
  return s.cat != nullptr && std::strncmp(s.cat, "plan", 4) == 0;
}

bool is_fastpath(const SpanRecord& s) {
  return std::strncmp(s.name, "plan.fastpath.", 14) == 0;
}

bool is_dispatch(const SpanRecord& s) {
  return std::strcmp(s.name, "fabric.route") == 0 ||
         std::strcmp(s.name, "runtime.route") == 0;
}

int slot_of(const SpanRecord& s) {
  if (is_plan_span(s)) return sKernel;
  for (const NamedSlot& ns : kNamedSlots) {
    if (std::strcmp(s.name, ns.name) == 0) return ns.slot;
  }
  return -1;
}

std::uint64_t patterns_arg(const SpanRecord& s) {
  for (std::uint32_t a = 0; a < s.arg_count; ++a) {
    if (std::strcmp(s.arg_key[a], "patterns") == 0) return s.arg_val[a];
  }
  return 0;
}

}  // namespace

const char* layer_share_metric(Layer l) {
  static constexpr const char* kNames[kLayerCount] = {
      "traffic.busy_share",    "runtime.inject_share", "runtime.present_share",
      "runtime.route_share",   "runtime.resolve_share", "fabric.alloc_share",
      "fabric.route_share",    "fabric.resolve_share", "plan.kernel_share",
      "engine.other_share"};
  return kNames[l];
}

void LayerBudget::add_exact(const pcs::obs::TraceSnapshot& snap) {
  struct Event {
    std::uint64_t t;
    int slot;
    int delta;
  };
  std::vector<Event> events;
  events.reserve(snap.spans.size() * 2);
  const double us_per_tick = 1.0 / snap.ticks_per_us;
  for (const SpanRecord& s : snap.spans) {
    const int slot = slot_of(s);
    if (slot < 0) continue;
    // Engine and probe spans come from the campaign's own thread; only
    // kernel chunks run on pool workers.
    if (slot != sKernel && s.tid != 0) continue;
    if (is_dispatch(s)) {
      ++dispatches;
      route_us += static_cast<double>(s.end - s.begin) * us_per_tick;
    }
    if (is_fastpath(s)) {
      ++kernel_chunks;
      kernel_patterns += patterns_arg(s);
    }
    events.push_back(Event{s.begin, slot, +1});
    events.push_back(Event{s.end, slot, -1});
  }
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return a.t < b.t; });

  std::array<int, kSlots> active{};
  std::array<std::uint64_t, kLayerCount> ticks{};
  std::uint64_t epoch_ticks = 0;
  std::uint64_t prev = events.empty() ? 0 : events.front().t;
  for (const Event& e : events) {
    if (e.t > prev && active[sEpoch] > 0) {
      const std::uint64_t dt = e.t - prev;
      epoch_ticks += dt;
      for (int s = 0; s < kSlots; ++s) {
        if (active[s] > 0) {
          ticks[kSlotLayer[s]] += dt;
          break;
        }
      }
    }
    active[e.slot] += e.delta;
    prev = e.t;
  }
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    self_us[l] += static_cast<double>(ticks[l]) * us_per_tick;
  }
  epoch_us += static_cast<double>(epoch_ticks) * us_per_tick;
}

void LayerBudget::add_totals(const pcs::obs::TraceSnapshot& snap) {
  totals_mode_ = true;
  const double us_per_tick = 1.0 / snap.ticks_per_us;
  for (const SpanRecord& s : snap.spans) {
    const double dur_us = static_cast<double>(s.end - s.begin) * us_per_tick;
    if (is_plan_span(s)) {
      // Stage and chip spans nest inside a fast-path chunk or a scalar
      // walk; count only the fast-path chunks so nothing counts twice.
      if (!is_fastpath(s)) continue;
      self_us[kKernel] += dur_us;
      ++kernel_chunks;
      kernel_patterns += patterns_arg(s);
      continue;
    }
    const int slot = slot_of(s);
    if (slot < 0 || slot == sHop) continue;
    if (slot == sEpoch) {
      epoch_us += dur_us;
      epoch_span_us.push_back(dur_us);
      continue;
    }
    if (is_dispatch(s)) {
      ++dispatches;
      route_us += dur_us;
    }
    self_us[kSlotLayer[slot]] += dur_us;
  }
}

double LayerBudget::share(Layer l) const {
  if (epoch_us <= 0.0) return 0.0;
  if (totals_mode_ && l == kOther) {
    double covered = 0.0;
    for (std::size_t k = 0; k < kLayerCount; ++k) {
      if (k != kKernel && k != kOther) covered += self_us[k];
    }
    return std::max(0.0, epoch_us - covered) / epoch_us;
  }
  return self_us[l] / epoch_us;
}

}  // namespace perfbench
