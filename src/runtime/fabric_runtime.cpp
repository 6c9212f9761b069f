#include "runtime/fabric_runtime.hpp"

#include <algorithm>
#include <deque>
#include <vector>

#include "core/invariants.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace pcs::rt {

namespace {

// SplitMix64 step: decorrelated per-lane seeds from the master seed.
std::uint64_t split_seed(std::uint64_t master, std::uint64_t lane) {
  std::uint64_t z = master + (lane + 1) * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

struct QueuedMsg {
  std::uint64_t born = 0;  ///< epoch the message entered its queue
  bool measured = false;   ///< born inside the measurement window
};

struct Lane {
  std::vector<std::deque<QueuedMsg>> queues;
  std::unique_ptr<traffic::TrafficSource> traffic;
  Rng rng;

  explicit Lane(std::size_t n, std::unique_ptr<traffic::TrafficSource> src,
                std::uint64_t seed)
      : queues(n), traffic(std::move(src)), rng(seed) {}

  std::size_t backlog() const {
    std::size_t total = 0;
    for (const auto& q : queues) total += q.size();
    return total;
  }
};

}  // namespace

std::string policy_name(CongestionPolicy p) {
  switch (p) {
    case CongestionPolicy::kDrop:
      return "drop";
    case CongestionPolicy::kBufferRetry:
      return "buffer-retry";
    case CongestionPolicy::kMisrouteRetry:
      return "misroute-retry";
  }
  return "unknown";
}

FabricRuntime::FabricRuntime(const sw::ConcentratorSwitch& sw, RuntimeOptions opts,
                             TrafficFactory traffic_factory)
    : sw_(sw), opts_(opts), traffic_factory_(std::move(traffic_factory)) {
  PCS_REQUIRE(opts_.queue_depth >= 1, "queue_depth must be >= 1");
  PCS_REQUIRE(opts_.lanes >= 1, "lanes must be >= 1");
  PCS_REQUIRE(opts_.measure_epochs >= 1, "measure_epochs must be >= 1");
  PCS_REQUIRE(static_cast<bool>(traffic_factory_), "traffic factory is empty");
}

RuntimeReport FabricRuntime::run(MetricsRegistry& metrics) {
  const std::size_t n = sw_.inputs();

  std::vector<Lane> lanes;
  lanes.reserve(opts_.lanes);
  for (std::size_t l = 0; l < opts_.lanes; ++l) {
    auto gen = traffic_factory_(l);
    PCS_REQUIRE(gen != nullptr && gen->width() == n,
                "traffic generator for lane " << l << " has width "
                                              << (gen ? gen->width() : 0)
                                              << ", switch has " << n << " inputs");
    lanes.emplace_back(n, std::move(gen), split_seed(opts_.seed, l));
  }

  Counter& offered = metrics.counter("offered");
  Counter& delivered = metrics.counter("delivered");
  Counter& dropped = metrics.counter("dropped");
  Counter& misroute_overflow = metrics.counter("dropped.misroute_overflow");
  Counter& rejected = metrics.counter("rejected_queue_full");
  Counter& retries = metrics.counter("retries");
  Counter& total_offered = metrics.counter("total.offered");
  Counter& total_delivered = metrics.counter("total.delivered");
  Counter& total_dropped = metrics.counter("total.dropped");
  Counter& total_rejected = metrics.counter("total.rejected_queue_full");
  Counter& dispatches = metrics.counter("route_batch_dispatches");
  Histogram& latency = metrics.histogram("latency_epochs");
  Histogram& backlog_hist = metrics.histogram("backlog");
  Histogram& presented_hist = metrics.histogram("presented_k");

  const std::size_t measure_begin = opts_.warmup_epochs;
  const std::size_t measure_end = opts_.warmup_epochs + opts_.measure_epochs;

  RuntimeReport report;
  std::vector<BitVec> patterns(opts_.lanes, BitVec(n));
  std::uint64_t epoch = 0;

  // One iteration = one epoch; loop covers warmup, measurement, and drain.
  while (true) {
    const bool in_measure = epoch >= measure_begin && epoch < measure_end;
    const bool in_drain = epoch >= measure_end;

    if (in_drain) {
      bool all_empty = true;
      for (const Lane& lane : lanes) {
        if (lane.backlog() != 0) {
          all_empty = false;
          break;
        }
      }
      if (all_empty) {
        report.drained = true;
        break;
      }
      if (epoch - measure_end >= opts_.drain_epochs_max) break;  // saturated
      // Count the drain epoch at the moment it commits to executing: after
      // BOTH break checks, before the epoch span opens.  Whichever way the
      // drain ends, drain_epochs_used == drain epochs that dispatched a
      // route_batch == the `epochs.drain` counter == the trace's epoch-span
      // count minus warmup and measurement (the saturated-campaign
      // regression tests pin all three identities).
      ++report.drain_epochs_used;
    }

    // The epoch span opens after the drain-break checks, so the span count
    // equals route_batch_dispatches exactly (the trace checker relies on it).
    obs::SpanGuard epoch_span("runtime.epoch", obs::cat::kRuntime);
    epoch_span.arg("epoch", epoch);

    // Admission: fresh arrivals join their input's queue unless it is full
    // (backpressure: the arrival is rejected at the door, never offered).
    if (!in_drain) {
      obs::SpanGuard inject_span("runtime.inject", obs::cat::kRuntime);
      std::uint64_t stalls = 0;
      for (Lane& lane : lanes) {
        const BitVec fresh = lane.traffic->next_valid(lane.rng);
        for (std::size_t i = 0; i < n; ++i) {
          if (!fresh.get(i)) continue;
          if (lane.queues[i].size() < opts_.queue_depth) {
            lane.queues[i].push_back(QueuedMsg{epoch, in_measure});
            total_offered.add();
            if (in_measure) offered.add();
          } else {
            total_rejected.add();
            if (in_measure) rejected.add();
            ++stalls;
          }
        }
      }
      if (stalls != 0) PCS_TRACE_COUNTER("runtime.backpressure_stalls", stalls);
    }

    // One setup per lane: the heads of the non-empty queues.
    {
      obs::SpanGuard present_span("runtime.present", obs::cat::kRuntime);
      for (std::size_t l = 0; l < opts_.lanes; ++l) {
        BitVec& valid = patterns[l];
        std::size_t k = 0;
        for (std::size_t i = 0; i < n; ++i) {
          const bool occupied = !lanes[l].queues[i].empty();
          valid.set(i, occupied);
          k += occupied ? 1 : 0;
        }
        if (in_measure) {
          presented_hist.record(k);
          backlog_hist.record(lanes[l].backlog());
        }
      }
    }

    // The epoch's single thread-pool dispatch: all lanes at once.
    std::vector<sw::SwitchRouting> routings;
    {
      obs::SpanGuard route_span("runtime.route", obs::cat::kRuntime);
      route_span.arg("lanes", opts_.lanes);
      routings = sw_.route_batch(patterns);
      dispatches.add();
    }

    obs::SpanGuard resolve_span("runtime.resolve", obs::cat::kRuntime);
    for (std::size_t l = 0; l < opts_.lanes; ++l) {
      Lane& lane = lanes[l];
      const sw::SwitchRouting& routing = routings[l];

      if (opts_.check_invariants) {
        core::InvariantReport rep;
        core::check_partial_injection(sw_, patterns[l], routing, rep);
        core::check_concentration(sw_, patterns[l], routing, rep);
        core::check_epsilon_bound(sw_, patterns[l],
                                  sw_.nearsorted_valid_bits(patterns[l]), rep);
        PCS_REQUIRE(rep.ok(), "epoch " << epoch << " lane " << l << ": "
                                       << rep.to_string());
      }

      std::vector<QueuedMsg> misrouted;  // losers looking for another queue
      for (std::size_t i = 0; i < n; ++i) {
        if (!patterns[l].get(i)) continue;
        if (routing.output_of_input[i] >= 0) {
          const QueuedMsg head = lane.queues[i].front();
          lane.queues[i].pop_front();
          total_delivered.add();
          if (head.measured) {
            delivered.add();
            latency.record(epoch - head.born);
          }
          continue;
        }
        switch (opts_.policy) {
          case CongestionPolicy::kDrop: {
            const QueuedMsg head = lane.queues[i].front();
            lane.queues[i].pop_front();
            total_dropped.add();
            if (head.measured) dropped.add();
            break;
          }
          case CongestionPolicy::kBufferRetry:
            // Loser keeps its queue slot and is re-presented next epoch.
            // Retries are attributed by event time (the epoch the retry
            // happens in), not the message's birth window: under sustained
            // overload the losing heads are typically warmup-born.
            if (in_measure) retries.add();
            break;
          case CongestionPolicy::kMisrouteRetry: {
            misrouted.push_back(lane.queues[i].front());
            lane.queues[i].pop_front();
            break;
          }
        }
      }

      // Misrouted losers re-enter on a random input with queue space; with
      // every queue full the re-injection wire would stall forever, so the
      // message is dropped explicitly (and accounted).
      for (const QueuedMsg& m : misrouted) {
        const std::size_t start = static_cast<std::size_t>(lane.rng.below(n));
        bool placed = false;
        for (std::size_t off = 0; off < n && !placed; ++off) {
          std::size_t w = (start + off) % n;
          if (lane.queues[w].size() < opts_.queue_depth) {
            lane.queues[w].push_back(m);
            placed = true;
          }
        }
        if (placed) {
          if (in_measure) retries.add();
        } else {
          total_dropped.add();
          if (m.measured) {
            dropped.add();
            misroute_overflow.add();
          }
        }
      }
    }

    ++epoch;
  }
  report.saturated = !report.drained;
  if (report.saturated) PCS_TRACE_COUNTER("runtime.saturation", 1);

  std::size_t residual = 0;
  std::size_t residual_measured = 0;
  for (const Lane& lane : lanes) {
    for (const auto& q : lane.queues) {
      residual += q.size();
      for (const QueuedMsg& m : q) residual_measured += m.measured ? 1 : 0;
    }
  }
  report.residual_backlog = residual;

  // The residual backlog is a first-class term of the conservation identity,
  // so it is exported as counters (not just report fields): a saturated
  // campaign's metrics document must balance on its own, without the reader
  // reaching for the RuntimeReport.  `total.residual` covers every queued
  // message at exit; `residual` only those born in the measurement window.
  metrics.counter("total.residual").add(residual);
  metrics.counter("residual").add(residual_measured);

  // Conservation: every accepted message is delivered, explicitly dropped,
  // or still sitting in a queue -- for the whole campaign and for the
  // measurement window alone.  Both identities hold in the drained AND the
  // saturated exit: residual is exactly the backlog left at whichever exit
  // was taken.
  PCS_REQUIRE(total_offered.value() ==
                  total_delivered.value() + total_dropped.value() + residual,
              "conservation: offered=" << total_offered.value() << " delivered="
                                       << total_delivered.value() << " dropped="
                                       << total_dropped.value() << " residual="
                                       << residual);
  PCS_REQUIRE(offered.value() ==
                  delivered.value() + dropped.value() + residual_measured,
              "measured conservation: offered="
                  << offered.value() << " delivered=" << delivered.value()
                  << " dropped=" << dropped.value() << " residual="
                  << residual_measured);

  metrics.counter("epochs.warmup").add(opts_.warmup_epochs);
  metrics.counter("epochs.measure").add(opts_.measure_epochs);
  metrics.counter("epochs.drain").add(report.drain_epochs_used);

  const double measured_offered = static_cast<double>(offered.value());
  metrics.gauge("delivery_rate")
      .set(measured_offered == 0.0
               ? 1.0
               : static_cast<double>(delivered.value()) / measured_offered);
  metrics.gauge("mean_latency_epochs").set(latency.mean());
  metrics.gauge("throughput_per_epoch")
      .set(static_cast<double>(delivered.value()) /
           static_cast<double>(opts_.measure_epochs));
  metrics.gauge("offered_load")
      .set(measured_offered /
           (static_cast<double>(opts_.lanes) *
            static_cast<double>(opts_.measure_epochs) * static_cast<double>(n)));
  metrics.gauge("backlog.residual").set(static_cast<double>(residual));
  metrics.gauge("saturated").set(report.saturated ? 1.0 : 0.0);

  return report;
}

}  // namespace pcs::rt
