// Config-driven construction for the fabric runtime: a small key=value file
// format (one `key = value` per line, `#` comments) describing the switch
// family, shape, traffic, queueing discipline, and campaign phases, plus
// factories that turn a parsed config into the concrete switch and traffic
// generators.  pcs_serve (examples/pcs_serve.cpp) is the CLI face; tests
// drive the same parser so a config that passes them runs everywhere.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "plan/switch_plan.hpp"
#include "runtime/fabric_runtime.hpp"
#include "switch/concentrator.hpp"
#include "traffic/factory.hpp"

namespace pcs::rt {

struct RuntimeConfig {
  /// Switch family: comma-separated list of revsort | columnsort | hyper.
  std::string family = "revsort";
  std::size_t n = 256;   ///< input wires
  std::size_t m = 128;   ///< output wires
  double beta = 0.75;    ///< Columnsort shape parameter (Table 1 continuum)

  /// Dead chips to inject: `faults = stage:chip,stage:chip,...`.  Applied
  /// to the compiled plan via plan::apply_chip_faults, so it works for any
  /// plan-compiled family (not "hyper").
  std::vector<plan::ChipFault> faults;

  /// Arrival process: bernoulli | exact | bursty | hotspot.  All derive
  /// their intensity from arrival_p (see make_traffic); exact presents
  /// round(arrival_p * n) messages per epoch.
  std::string arrival = "bernoulli";
  double arrival_p = 0.25;

  /// Composable traffic model (src/traffic).  When empty, both keys derive
  /// from `arrival` (bernoulli/exact/bursty -> uniform pattern with the
  /// matching process, hotspot -> hotspot pattern x bernoulli), so legacy
  /// configs keep their bit-identical streams.  Explicit values override:
  /// pattern = uniform|transpose|bitcomp|bitrev|shuffle|tornado|hotspot|
  /// adversarial|worstcase, injection = bernoulli|onoff|exact.
  std::string pattern;
  std::string injection;
  /// Hot block fraction for the hotspot pattern, in (0,1].
  double hotspot_fraction = 0.125;

  /// Offered-stream trace capture/replay (src/traffic/trace.hpp).  `record`
  /// writes the campaign's offered stream to this path (single-campaign
  /// configs only); `replay` substitutes a recorded stream for the
  /// generator, reproducing it byte for byte.
  std::string record;
  std::string replay;

  /// Offered-load sweep: arrival_p values to campaign over; when empty the
  /// single point `arrival_p` is run.
  std::vector<double> loads;

  std::size_t queue_depth = 4;  ///< per-input injection queue bound
  std::string policy = "buffer-retry";  ///< drop | buffer-retry | misroute-retry
  std::uint64_t seed = 1;
  std::size_t lanes = 4;  ///< independent closed-loop replicas batched per epoch

  std::size_t warmup_epochs = 32;
  std::size_t measure_epochs = 256;
  std::size_t drain_epochs_max = 1024;

  bool check_invariants = false;  ///< run core/invariants on every setup
  std::string out = "runtime_metrics.json";

  /// Clamp on worker threads for every parallel dispatch (see
  /// pcs::set_max_parallelism).  0 = no clamp; 1 = deterministic order.
  std::size_t threads = 0;
  /// When non-empty, trace every campaign and write one Chrome trace-event
  /// JSON (Perfetto-loadable) to this path; the per-campaign profile rollup
  /// appears in the metrics document either way.
  std::string trace;
  /// Trace clock: "tsc" (wall-calibrated ticks) or "logical" (deterministic
  /// sequence numbers; byte-identical traces with threads = 1).
  std::string trace_clock = "tsc";

  // --- multi-hop fabric campaigns (src/fabric) ---------------------------
  // When `topology` is non-empty, pcs_serve composes `hops` stages of
  // plan-compiled switches of the configured family/shape into that
  // topology and runs the closed-loop fabric campaign instead of the
  // single-switch one.  See fabric/fabric_config.hpp for the translation.

  /// "" (single-switch campaigns) | single | omega | butterfly | fattree.
  std::string topology;
  std::size_t fabric_hops = 3;    ///< switch stages a message traverses
  std::size_t fabric_radix = 2;   ///< links per node (the MIN digit base)
  std::string fabric_alloc = "rr";     ///< VOQ allocator: rr | islip
  std::size_t fabric_credits = 8;      ///< per-channel credit pool depth
  /// Pool-entry link choice: deterministic | adaptive (route= key).
  std::string fabric_route = "deterministic";
  /// Adaptive routing's per-message misroute budget (deflect_max= key);
  /// requires route=adaptive when nonzero.
  std::size_t fabric_deflect_max = 0;
  /// Pipelined fabric scheduler depth (epochs_in_flight= key).  0 defers to
  /// PCS_FABRIC_EPOCHS_IN_FLIGHT (else 1); campaign counters are identical
  /// for every value, 1 is the bit-identical serial schedule.
  std::size_t fabric_epochs_in_flight = 0;
  /// Hop whose plan receives `faults` in fabric campaigns (single-switch
  /// campaigns apply them to the one switch regardless).
  std::size_t fault_hop = 0;

  // --- serving daemon (src/serve, examples/pcs_served) -------------------
  // Read by pcs_served; the batch pcs_serve CLI ignores them.  All four hot
  // reload on SIGHUP through the validate-then-swap path.

  /// Unix-domain socket path the daemon listens on.
  std::string serve_socket = "pcs_served.sock";
  /// Daemon-wide cap on concurrently running campaigns.
  std::size_t serve_max_inflight = 8;
  /// Per-tenant cap on concurrently running campaigns.
  std::size_t serve_tenant_quota = 4;
  /// Plan-cache byte budget in MiB (estimated footprint; 0 disables
  /// caching so every request compiles cold).
  std::size_t serve_cache_mb = 64;
};

/// Parse a whole config file body.  Unknown keys, malformed values, keys
/// with embedded whitespace, and out-of-range settings throw
/// pcs::ContractViolation naming the line.  Duplicate keys take the LAST
/// occurrence -- the same rule CLI overrides follow, so "file then
/// overrides" and "file with a repeated key" agree.
RuntimeConfig parse_config_text(const std::string& text);

/// parse_config_text over a file's contents; throws if unreadable.
RuntimeConfig load_config_file(const std::string& path);

/// Apply `key=value` overrides (the CLI's trailing arguments) in order,
/// then validate once: the settings are judged together, so "n=64 m=32"
/// shrinks a switch just as "m=32 n=64" does.
void apply_overrides(RuntimeConfig& cfg, const std::vector<std::string>& assignments);

/// Throw ContractViolation naming the first out-of-range or unknown setting.
/// The one check every entry point runs: parse_config_text, apply_overrides
/// and the daemon's per-request resolve.
void validate(const RuntimeConfig& cfg);

/// The parsed config echoed as a JSON object (sorted keys, deterministic),
/// every line prefixed by `indent` spaces, for embedding in reports.
std::string config_to_json(const RuntimeConfig& cfg, std::size_t indent = 0);

/// Split a comma-separated list, trimming blanks; "a,b" -> {"a", "b"}.
std::vector<std::string> split_csv(const std::string& s);

/// Parse a size-valued config entry: a non-empty run of decimal digits that
/// fits in std::size_t.  Signs, blanks and trailing bytes throw
/// ContractViolation naming `key` and the value.
std::size_t parse_size(const std::string& key, const std::string& value);

/// Parse a `stage:chip,stage:chip,...` fault list (the faults= key, and the
/// faults field of a daemon campaign request).  Each coordinate goes
/// through parse_size; a missing colon or a bad coordinate throws
/// ContractViolation naming the offending text.
std::vector<plan::ChipFault> parse_faults(const std::string& value);

/// Congestion policy from its policy_name() slug; throws on unknown names.
CongestionPolicy policy_from_string(const std::string& s);

/// Queue bound, policy, lanes, seed, campaign phases and invariant checking
/// lifted straight from the config (fabric::fabric_options_from's twin).
RuntimeOptions runtime_options_from(const RuntimeConfig& cfg);

/// Build one switch of `family` (a single name, not a list) with the
/// config's shape: revsort -> RevsortSwitch(n, m), columnsort ->
/// ColumnsortSwitch::from_beta(n, beta, m), hyper -> HyperSwitch(n, m).
/// With cfg.faults set, revsort/columnsort compile their plan, apply the
/// faults, and return the fault-rewritten plan behind plan::PlanSwitch.
std::unique_ptr<sw::ConcentratorSwitch> make_switch(const std::string& family,
                                                    const RuntimeConfig& cfg);

/// Translate the config's traffic keys into a traffic::TrafficSpec over
/// `width` wires.  With pattern=/injection= empty the spec derives from
/// `arrival` exactly as the legacy generators did: bursty uses a two-state
/// Markov chain with p_on = min(1, 3p), p_off = p/3 and 0.05 transition
/// probabilities; hotspot concentrates on floor(width * hotspot_fraction)
/// wires (`arrival_p` is the nominal *per-input* intensity, front-loaded
/// onto the hot block at min(1, 4p) with the cold wires at p/2).
traffic::TrafficSpec traffic_spec_from(const RuntimeConfig& cfg,
                                       std::size_t width);

/// Build a traffic source for the config over `width` wires via the
/// src/traffic factory.  Each lane gets its own source so on-off state
/// never couples lanes.  `search_switch` is required only when the config
/// selects pattern=worstcase (the bound-stress search needs a switch).
std::unique_ptr<traffic::TrafficSource> make_traffic(
    const RuntimeConfig& cfg, std::size_t width,
    const sw::ConcentratorSwitch* search_switch = nullptr);

}  // namespace pcs::rt
