#include "runtime/fabric_runtime.hpp"

#include <vector>

#include "core/invariants.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/ring_queues.hpp"
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

/// One closed-loop replica.  Its n injection queues are rings of
/// queue_depth slots, and `occupied` (bit i set iff input i's queue is
/// non-empty) is kept on every push and pop, so presenting the heads is a
/// mask copy and both admission and resolution walk set bits.
struct Lane {
  std::unique_ptr<traffic::TrafficSource> traffic;
  Rng rng;
  RingQueues<QueuedMsg> queues;
  BitVec occupied;
  std::size_t backlog = 0;
  std::vector<QueuedMsg> misrouted;  ///< this epoch's re-entering losers

  Lane(std::size_t n, std::size_t depth,
       std::unique_ptr<traffic::TrafficSource> src, std::uint64_t seed)
      : traffic(std::move(src)), rng(seed), occupied(n) {
    queues.reset(n, depth);
  }

  void push(std::size_t i, const QueuedMsg& m) {
    queues.push(i, m);
    occupied.mark(i);
    ++backlog;
  }
  QueuedMsg pop(std::size_t i) {
    const QueuedMsg m = queues.pop(i);
    if (queues.empty(i)) occupied.unmark(i);
    --backlog;
    return m;
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
    lanes.emplace_back(n, opts_.queue_depth, std::move(gen),
                       split_seed(opts_.seed, l));
  }

  // Campaign-local series: the epochs record into plain integers, and the
  // tally folds into `metrics` once, after the last epoch.
  CampaignTally tally;
  std::uint64_t& offered = tally.counter("offered");
  std::uint64_t& delivered = tally.counter("delivered");
  std::uint64_t& dropped = tally.counter("dropped");
  std::uint64_t& misroute_overflow = tally.counter("dropped.misroute_overflow");
  std::uint64_t& rejected = tally.counter("rejected_queue_full");
  std::uint64_t& retries = tally.counter("retries");
  std::uint64_t& total_offered = tally.counter("total.offered");
  std::uint64_t& total_delivered = tally.counter("total.delivered");
  std::uint64_t& total_dropped = tally.counter("total.dropped");
  std::uint64_t& total_rejected = tally.counter("total.rejected_queue_full");
  std::uint64_t& dispatches = tally.counter("route_batch_dispatches");
  CampaignTally::Hist& latency = tally.histogram("latency_epochs");
  CampaignTally::Hist& backlog_hist = tally.histogram("backlog");
  CampaignTally::Hist& presented_hist = tally.histogram("presented_k");

  const std::size_t measure_begin = opts_.warmup_epochs;
  const std::size_t measure_end = opts_.warmup_epochs + opts_.measure_epochs;

  RuntimeReport report;
  std::vector<BitVec> patterns(opts_.lanes, BitVec(n));
  std::vector<BitVec> routed;                // routed-input masks, recycled
  std::vector<sw::SwitchRouting> routings;  // full routings, invariant checks only
  std::uint64_t epoch = 0;

  // One iteration = one epoch; loop covers warmup, measurement, and drain.
  while (true) {
    const bool in_measure = epoch >= measure_begin && epoch < measure_end;
    const bool in_drain = epoch >= measure_end;

    if (in_drain) {
      bool all_empty = true;
      for (const Lane& lane : lanes) {
        if (lane.backlog != 0) {
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
        for_each_set_bit(fresh, [&](std::size_t i) {
          if (!lane.queues.full(i)) {
            lane.push(i, QueuedMsg{epoch, in_measure});
            ++total_offered;
            if (in_measure) ++offered;
          } else {
            ++total_rejected;
            if (in_measure) ++rejected;
            ++stalls;
          }
        });
      }
      if (stalls != 0) PCS_TRACE_COUNTER("runtime.backpressure_stalls", stalls);
    }

    // One setup per lane: the heads of the non-empty queues.
    {
      obs::SpanGuard present_span("runtime.present", obs::cat::kRuntime);
      for (std::size_t l = 0; l < opts_.lanes; ++l) {
        patterns[l] = lanes[l].occupied;
        if (in_measure) {
          presented_hist.record(patterns[l].count());
          backlog_hist.record(lanes[l].backlog);
        }
      }
    }

    // The epoch's single thread-pool dispatch: all lanes at once.
    {
      obs::SpanGuard route_span("runtime.route", obs::cat::kRuntime);
      route_span.arg("lanes", opts_.lanes);
      if (opts_.check_invariants) {
        routings = sw_.route_batch(patterns);
        routed.resize(routings.size());
        for (std::size_t l = 0; l < routings.size(); ++l) {
          sw::routed_inputs(routings[l], routed[l]);
        }
      } else {
        sw_.route_batch_mask(patterns, routed);
      }
      ++dispatches;
    }

    obs::SpanGuard resolve_span("runtime.resolve", obs::cat::kRuntime);
    for (std::size_t l = 0; l < opts_.lanes; ++l) {
      Lane& lane = lanes[l];

      if (opts_.check_invariants) {
        const sw::SwitchRouting& routing = routings[l];
        core::InvariantReport rep;
        core::check_partial_injection(sw_, patterns[l], routing, rep);
        core::check_concentration(sw_, patterns[l], routing, rep);
        core::check_epsilon_bound(sw_, patterns[l],
                                  sw_.nearsorted_valid_bits(patterns[l]), rep);
        PCS_REQUIRE(rep.ok(), "epoch " << epoch << " lane " << l << ": "
                                       << rep.to_string());
      }

      const BitVec& won = routed[l];
      lane.misrouted.clear();  // losers looking for another queue
      for_each_set_bit(patterns[l], [&](std::size_t i) {
        if (won.test(i)) {
          const QueuedMsg head = lane.pop(i);
          ++total_delivered;
          if (head.measured) {
            ++delivered;
            latency.record(epoch - head.born);
          }
          return;
        }
        switch (opts_.policy) {
          case CongestionPolicy::kDrop: {
            const QueuedMsg head = lane.pop(i);
            ++total_dropped;
            if (head.measured) ++dropped;
            break;
          }
          case CongestionPolicy::kBufferRetry:
            // Loser keeps its queue slot and is re-presented next epoch.
            // Retries are attributed by event time (the epoch the retry
            // happens in), not the message's birth window: under sustained
            // overload the losing heads are typically warmup-born.
            if (in_measure) ++retries;
            break;
          case CongestionPolicy::kMisrouteRetry:
            lane.misrouted.push_back(lane.pop(i));
            break;
        }
      });

      // Misrouted losers re-enter on a random input with queue space; with
      // every queue full the re-injection wire would stall forever, so the
      // message is dropped explicitly (and accounted).
      for (const QueuedMsg& m : lane.misrouted) {
        const std::size_t start = static_cast<std::size_t>(lane.rng.below(n));
        bool placed = false;
        for (std::size_t off = 0; off < n && !placed; ++off) {
          const std::size_t w = (start + off) % n;
          if (!lane.queues.full(w)) {
            lane.push(w, m);
            placed = true;
          }
        }
        if (placed) {
          if (in_measure) ++retries;
        } else {
          ++total_dropped;
          if (m.measured) {
            ++dropped;
            ++misroute_overflow;
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
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t k = 0; k < lane.queues.size(i); ++k) {
        residual_measured += lane.queues.at(i, k).measured ? 1 : 0;
      }
    }
    residual += lane.backlog;
  }
  report.residual_backlog = residual;

  // Conservation: every accepted message is delivered, explicitly dropped,
  // or still sitting in a queue -- for the whole campaign and for the
  // measurement window alone.  Both identities hold in the drained AND the
  // saturated exit: residual is exactly the backlog left at whichever exit
  // was taken.
  PCS_REQUIRE(total_offered == total_delivered + total_dropped + residual,
              "conservation: offered=" << total_offered << " delivered="
                                       << total_delivered << " dropped="
                                       << total_dropped << " residual="
                                       << residual);
  PCS_REQUIRE(offered == delivered + dropped + residual_measured,
              "measured conservation: offered="
                  << offered << " delivered=" << delivered << " dropped="
                  << dropped << " residual=" << residual_measured);

  tally.fold_into(metrics);

  // The residual backlog is a first-class term of the conservation identity,
  // so it is exported as counters (not just report fields): a saturated
  // campaign's metrics document must balance on its own, without the reader
  // reaching for the RuntimeReport.  `total.residual` covers every queued
  // message at exit; `residual` only those born in the measurement window.
  metrics.counter("total.residual").add(residual);
  metrics.counter("residual").add(residual_measured);
  metrics.counter("epochs.warmup").add(opts_.warmup_epochs);
  metrics.counter("epochs.measure").add(opts_.measure_epochs);
  metrics.counter("epochs.drain").add(report.drain_epochs_used);

  // Gauges read the registry, so a registry shared across campaigns reports
  // its running totals.
  const double measured_offered =
      static_cast<double>(metrics.counter("offered").value());
  const double measured_delivered =
      static_cast<double>(metrics.counter("delivered").value());
  metrics.gauge("delivery_rate")
      .set(measured_offered == 0.0 ? 1.0 : measured_delivered / measured_offered);
  metrics.gauge("mean_latency_epochs")
      .set(metrics.histogram("latency_epochs").mean());
  metrics.gauge("throughput_per_epoch")
      .set(measured_delivered / static_cast<double>(opts_.measure_epochs));
  metrics.gauge("offered_load")
      .set(measured_offered /
           (static_cast<double>(opts_.lanes) *
            static_cast<double>(opts_.measure_epochs) * static_cast<double>(n)));
  metrics.gauge("backlog.residual").set(static_cast<double>(residual));
  metrics.gauge("saturated").set(report.saturated ? 1.0 : 0.0);

  return report;
}

}  // namespace pcs::rt
