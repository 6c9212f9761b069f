// Closed-loop multi-hop fabric simulator: many plan-compiled concentrator
// switches composed into a MIN (omega / butterfly / fat-tree / single) with
// credit-based flow control on every inter-hop channel and per-hop virtual
// output queues.  This is ROADMAP item 1: the paper builds one efficient
// multichip switch; the fabric shows what a network of them sustains.
//
// Model, per epoch (one fabric cycle):
//   * Every node holds, per in-link, a buffer POOL of `credits` slots
//     organized as radix VOQ FIFOs (one per out-link) sharing the pool.
//     A pool is fed by exactly one upstream channel, so the channel's
//     credit counter mirrors the pool's free space exactly -- classic
//     credit-based flow control with the invariant
//     credits == capacity - occupancy (checked under check_invariants).
//   * A pluggable allocator (round robin or iSLIP-style separable matching,
//     see allocator.hpp) picks which queued messages each node presents:
//     row budgets are the in-block port widths, column budgets are
//     min(out-block width, the node's guaranteed concentration capacity,
//     remaining downstream credits).
//   * Grants toward one out-link form one valid-bit pattern on the node's
//     switch -- knockout-style per-output-group concentration -- and ALL
//     patterns of a hop are resolved by a single route_batch() call through
//     the fused PlanExecutor, preserving the one-dispatch-per-epoch-per-hop
//     batching discipline of the single-switch runtime.
//   * Hops are served downstream-first, so a forwarded message waits at
//     least one epoch per hop; then source-queue heads move into hop 0's
//     pools (injection gated by pool space), then fresh arrivals enter the
//     bounded per-source queues (door rejection counts as a drop).
//   * The out-link a message departs on is chosen ONCE, when it enters a
//     hop's pool, by the spec's RoutePolicy (route_policy.hpp):
//     "deterministic" destination-digit self-routing, or minimal-"adaptive"
//     over the topology's equal-cost candidates with bounded deflection.
//
// Pipelined execution (epochs_in_flight > 1): the per-(epoch, hop) unit of
// work -- allocate, route, resolve -- obeys a wavefront dependency order
// (unit(e, k) needs unit(e, k+1), unit(e-1, k), and unit(e-1, k-1)), so up
// to min(epochs_in_flight, ceil(hops / 2)) units from successive epochs are
// independent at any instant.  The scheduler tracks per-hop sequence
// tickets (resolved-epoch watermarks), runs every ready unit's allocation,
// then fuses ALL their route_batch dispatches into one batch per switch
// kind -- widening the 64-pattern word lanes the executor vectorizes over
// and amortizing per-dispatch cost -- and resolves in ascending epoch
// order.  All bookkeeping stays on the caller's thread in deterministic
// order; worker threads only ever run inside route_batch itself.  Campaign
// counters are bit-identical for every epochs_in_flight value, and
// epochs_in_flight=1 short-circuits to the serial schedule, bit-identical
// (including traces) to the pre-pipeline loop.
//
// Grant budgets never exceed the HEALTHY plan's guaranteed capacity, so on
// healthy hops every granted message must route (PCS_REQUIRE enforces the
// concentration contract live).  The hop carrying chip faults routes the
// fault-rewritten plan: granted messages that land on dead chips are lost
// and accounted as fabric.hop<k>.dropped.fault -- never silently.  Under
// adaptive routing, deflected messages that exhaust their misroute budget
// drain through fabric.hop<k>.dropped.deflect the same way.
//
// Steady-state epochs take no lock, no atomic and no heap allocation beyond
// the traffic draw's BitVec: VOQs and source queues are fixed-capacity rings
// (util/ring_queues.hpp), dispatches return routed-input masks into
// recycled buffers (ConcentratorSwitch::route_batch_mask), and every
// series records into a campaign-local rt::CampaignTally that run() folds
// into the caller's registry once, at the end.  run() starts each campaign
// from empty queues, full credits and reset allocator pointers, so one
// simulator may run any number of campaigns.
//
// Conservation is enforced every epoch:
//   total.offered == total.delivered + total.dropped + in_flight
// and at exit with the residual backlog as an explicit term (the same
// identity the single-switch runtime exports; see fabric_runtime.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fabric/allocator.hpp"
#include "fabric/route_policy.hpp"
#include "fabric/topology.hpp"
#include "traffic/traffic_source.hpp"
#include "runtime/fabric_runtime.hpp"
#include "runtime/metrics.hpp"
#include "switch/concentrator.hpp"
#include "util/ring_queues.hpp"
#include "util/rng.hpp"

namespace pcs::fabric {

struct FabricOptions {
  std::size_t queue_depth = 4;  ///< per-source injection queue bound (>= 1)
  std::uint64_t seed = 1;
  std::size_t warmup_epochs = 32;
  std::size_t measure_epochs = 256;
  std::size_t drain_epochs_max = 1024;  ///< drain cap; exceeding it = saturated
  bool check_invariants = false;  ///< credit/pool mirror + allocator checks
  /// Epochs simultaneously resident in the pipelined scheduler.  0 resolves
  /// the default at construction: PCS_FABRIC_EPOCHS_IN_FLIGHT when set,
  /// else 1.  1 is the serial schedule (bit-identical to the pre-pipeline
  /// loop); campaign counters are identical for every value.
  std::size_t epochs_in_flight = 0;
};

class FabricSim {
 public:
  /// Produces the arrival process over the fabric's sources() wires; called
  /// once at the start of run().  Destinations are drawn uniformly over
  /// sinks() from the campaign RNG (split from opts.seed), so runs are
  /// deterministic per seed.
  using TrafficFactory =
      std::function<std::unique_ptr<traffic::TrafficSource>(std::size_t width)>;

  FabricSim(FabricSpec spec, FabricOptions opts, TrafficFactory traffic);

  /// Run one warmup -> measurement -> drain campaign (same phase and drain
  /// accounting semantics as rt::FabricRuntime::run).  Unprefixed counters
  /// cover messages born in the measurement window; "total.*" counters
  /// cover the whole campaign and satisfy
  ///   total.offered == total.delivered + total.dropped + total.residual.
  /// Per-hop series live under "fabric.hop<k>.*" (indices zero-padded to
  /// the campaign's widest hop, so scrapes order numerically) and satisfy
  ///   accepted == sent|delivered + dropped.fault + dropped.deflect
  ///              + residual.
  rt::RuntimeReport run(rt::MetricsRegistry& metrics);

  const FabricGraph& graph() const noexcept { return graph_; }
  const FabricOptions& options() const noexcept { return opts_; }
  /// The resolved pipeline depth (options().epochs_in_flight or the
  /// PCS_FABRIC_EPOCHS_IN_FLIGHT / 1 default).
  std::size_t epochs_in_flight() const noexcept { return epochs_in_flight_; }
  /// "omega(hops=3, radix=2) of Revsort(256->192)" -- for reports.
  std::string name() const;

 private:
  struct Msg {
    std::uint32_t dest = 0;
    std::uint32_t born = 0;         ///< injection epoch
    std::uint32_t hop_entered = 0;  ///< epoch it entered the current pool
    std::uint16_t deflections = 0;  ///< misroutes absorbed (adaptive only)
    bool measured = false;
  };

  /// One hop's buffers.  In-link pool p = node * radix + inlink holds
  /// `radix` VOQ rings -- queue p * radix + out-link -- that share the
  /// pool's `credits` slots.
  struct HopBuffers {
    RingQueues<Msg> voq;
    std::vector<std::uint32_t> occupancy;  ///< per pool
  };

  struct EpochContext;  // per-run mutable accounting (defined in .cpp)
  struct Unit;          // one (epoch, hop) allocate/route/resolve stage

  rt::RuntimeReport run_serial(rt::MetricsRegistry& metrics, EpochContext& ctx,
                               Rng& rng, traffic::TrafficSource& traffic);
  rt::RuntimeReport run_pipelined(rt::MetricsRegistry& metrics,
                                  EpochContext& ctx, Rng& rng,
                                  traffic::TrafficSource& traffic);

  void alloc_unit(Unit& u, EpochContext& ctx);
  void resolve_unit(Unit& u, EpochContext& ctx);
  void serve_hop_serial(Unit& u, std::size_t hop, std::size_t epoch,
                        EpochContext& ctx);
  RouteChoice choose_entry(std::size_t hop, std::size_t node, std::size_t pool,
                           const Msg& msg);
  void move_source_heads(std::size_t epoch, EpochContext& ctx);
  void admit_arrivals(std::size_t epoch, bool in_measure, EpochContext& ctx,
                      Rng& rng, traffic::TrafficSource& traffic);
  /// Fold epoch `epoch`'s attributed tallies, record the derived backlog
  /// (schedule-independent, so it matches the serial loop bit for bit), and
  /// enforce the structural conservation identity.  Returns the backlog.
  std::uint64_t epoch_bookkeeping(std::size_t epoch, bool in_measure,
                                  EpochContext& ctx);
  rt::RuntimeReport finish_run(rt::RuntimeReport report, EpochContext& ctx,
                               rt::MetricsRegistry& metrics);

  /// Empty every queue, refill every credit and reset every allocator.
  void reset_state();
  std::string hop_metric(std::size_t hop, const char* leaf) const;
  std::size_t in_flight() const;
  void check_credit_mirror() const;

  FabricGraph graph_;
  FabricOptions opts_;
  TrafficFactory traffic_factory_;

  std::unique_ptr<sw::ConcentratorSwitch> healthy_;
  std::unique_ptr<sw::ConcentratorSwitch> faulted_;  ///< null when no faults
  std::size_t healthy_capacity_ = 0;
  std::unique_ptr<RoutePolicy> policy_;
  std::size_t epochs_in_flight_ = 1;  ///< resolved from opts / env
  std::vector<std::uint32_t> voq_scratch_;  ///< per-choice VOQ depth view

  // Campaign state, sized and emptied by run() (reset_state).
  RingQueues<Msg> source_q_;  ///< one ring of queue_depth per source
  std::vector<HopBuffers> hop_buf_;
  /// credits_[hop][node * radix + link], hop < hops() - 1
  std::vector<std::vector<std::uint32_t>> credits_;
  /// alloc_[hop * nodes + node]: pointer state persists across epochs
  std::vector<std::unique_ptr<Allocator>> alloc_;
};

}  // namespace pcs::fabric
