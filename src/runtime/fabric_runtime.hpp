// Closed-loop serving layer around a ConcentratorSwitch: the one engine
// behind every single-switch campaign.  Messages arrive into bounded
// per-input injection queues, a congestion policy (Section 1's three
// treatments, CongestionPolicy below) decides what happens to routing
// losers, and the campaign runs booksim-style phases:
// warmup (queues fill, nothing recorded) -> measurement (every event
// attributed) -> drain (arrivals stop; either the backlog empties or the
// drain cap trips and the run is declared saturated).
//
// The runtime serves `lanes` independent closed-loop replicas of the same
// switch.  Each epoch, every lane contributes one valid-bit setup (the heads
// of its non-empty queues) and all of them are resolved by a single
// route_batch_mask() call -- one dispatch through the word-parallel batch
// engine per epoch, rather than one route() per replica, returning only the
// routed-input masks the resolver reads.  Lanes model independent fabric
// cells behind a load balancer; batching across them is what makes a sweep
// of long campaigns cheap.  A steady-state epoch takes no lock and no
// atomic and allocates only the traffic draw: queues are fixed rings, masks
// and setups are recycled, and metrics go to a campaign-local tally folded
// into the caller's registry at the end (DESIGN.md section 9).
//
// Everything is deterministic per seed: lane RNGs are split from the master
// seed, route_batch is bit-identical to route(), and metrics export is
// byte-stable, so two runs of the same config produce identical JSON.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "runtime/metrics.hpp"
#include "switch/concentrator.hpp"
#include "traffic/traffic_source.hpp"

namespace pcs::rt {

/// Section 1's treatments of a message the switch could not route this
/// epoch.  The paper's third option, drop and let an acknowledgement
/// protocol resend, is kDrop at this layer: the resend lives above it.
enum class CongestionPolicy : std::uint8_t {
  kDrop,           ///< the loser is discarded (an accounted drop)
  kBufferRetry,    ///< the loser keeps its queue slot and retries next epoch
  kMisrouteRetry,  ///< the loser re-enters on a random input with queue room
};

/// The policy's config slug: drop | buffer-retry | misroute-retry
/// (policy_from_string in runtime/config.hpp is its inverse).
std::string policy_name(CongestionPolicy p);

struct RuntimeOptions {
  std::size_t queue_depth = 4;  ///< per-input injection queue bound (>= 1)
  CongestionPolicy policy = CongestionPolicy::kBufferRetry;
  std::size_t lanes = 4;        ///< independent replicas batched per epoch
  std::uint64_t seed = 1;
  std::size_t warmup_epochs = 32;
  std::size_t measure_epochs = 256;
  std::size_t drain_epochs_max = 1024;  ///< drain cap; exceeding it = saturated
  bool check_invariants = false;  ///< core/invariants on every (setup, routing)
};

struct RuntimeReport {
  bool drained = false;     ///< backlog emptied within drain_epochs_max
  bool saturated = false;   ///< !drained: offered load exceeded service rate
  std::size_t drain_epochs_used = 0;
  std::size_t residual_backlog = 0;  ///< messages still queued at exit
};

class FabricRuntime {
 public:
  /// Per-lane traffic construction; called once per lane at start of run()
  /// so stateful sources (on-off Markov chains) never couple lanes.
  using TrafficFactory =
      std::function<std::unique_ptr<traffic::TrafficSource>(std::size_t lane)>;

  /// `sw` must outlive the runtime.  The factory must produce sources of
  /// width sw.inputs().
  FabricRuntime(const sw::ConcentratorSwitch& sw, RuntimeOptions opts,
                TrafficFactory traffic_factory);

  /// Run one warmup -> measurement -> drain campaign, reporting into
  /// `metrics` (see DESIGN.md section 9 for the schema).  Counters without a
  /// prefix cover messages born in the measurement window (except `retries`,
  /// which counts retry events occurring during measurement); "total.*"
  /// counters cover the whole campaign and satisfy exact conservation:
  ///   total.offered == total.delivered + total.dropped + total.residual
  /// where `total.residual` (== residual_backlog) counts the messages still
  /// queued at exit -- nonzero exactly when the campaign saturated, and
  /// exported as a counter so the metrics document balances on its own.
  /// Throws pcs::ContractViolation if conservation or (when enabled) a
  /// routing invariant fails.
  RuntimeReport run(MetricsRegistry& metrics);

  const sw::ConcentratorSwitch& fabric() const noexcept { return sw_; }
  const RuntimeOptions& options() const noexcept { return opts_; }

 private:
  const sw::ConcentratorSwitch& sw_;
  RuntimeOptions opts_;
  TrafficFactory traffic_factory_;
};

}  // namespace pcs::rt
