// The persistent multi-tenant serving daemon: pcs_serve's batch campaign
// loop promoted to a long-lived service (ROADMAP item 2; the Tiny Tera
// shape -- a persistent core arbitrating among competing clients).
//
//   clients --UDS frames--> accept loop --> connection threads
//                                             |  admission (serve/admission)
//                                             |  plan cache (serve/plan_cache)
//                                             v
//                             FabricRuntime campaign on the shared pool
//                                             |
//                            per-campaign MetricsRegistry -> global rollup
//
// One connection thread per client; each campaign request is admitted
// (bounded in-flight, per-tenant quota, reject-with-reason), resolves its
// switch through the shared plan cache (tenants with identical specs share
// one compiled plan), and runs the existing warmup/measure/drain campaign
// machinery.  The heavy lifting inside a campaign still goes through the
// PR 1 thread pool via route_batch, so "concurrent campaigns" multiplies
// work across cores, not threads-per-message.
//
// Operational controls:
//   * scrape    -- a protocol request returning the live global
//                  MetricsRegistry as deterministic JSON, without stopping
//                  traffic (campaign rollups fold in under one mutex, so a
//                  scrape never observes a half-aggregated campaign and the
//                  conservation identity holds at every instant);
//   * SIGHUP    -- re-parse the config file through the existing
//                  RuntimeConfig parser; on success the base config,
//                  admission limits, and cache budget swap atomically
//                  (validate-then-swap: a bad file is counted and ignored,
//                  never half-applied);
//   * SIGTERM   -- graceful drain: stop admitting (reject reason
//                  "draining"), let in-flight campaigns run their drain
//                  phase, flush final metrics to cfg.out, exit 0.
//
// Signal handlers must only touch async-signal-safe state: notify_stop()
// and notify_reload() are single atomic stores; the accept loop polls them.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "runtime/config.hpp"
#include "runtime/metrics.hpp"
#include "serve/admission.hpp"
#include "serve/plan_cache.hpp"
#include "serve/protocol.hpp"

namespace pcs::serve {

struct ServeOptions {
  std::string socket_path = "pcs_served.sock";
  /// Config file re-read on SIGHUP; empty disables hot reload.
  std::string config_path;
  /// Poll granularity of the accept/connection loops; the latency bound on
  /// noticing a signal.
  int poll_interval_ms = 100;
};

/// ServeOptions' tunables that live in the config file (and therefore hot
/// reload): admission limits and the cache byte budget.
AdmissionLimits admission_limits_from(const rt::RuntimeConfig& cfg);
std::size_t cache_budget_from(const rt::RuntimeConfig& cfg);

class ServeDaemon {
 public:
  ServeDaemon(rt::RuntimeConfig base, ServeOptions opts);
  ~ServeDaemon();

  ServeDaemon(const ServeDaemon&) = delete;
  ServeDaemon& operator=(const ServeDaemon&) = delete;

  /// Bind the socket and serve until notify_stop(); returns the process
  /// exit code (0 = clean drain).  Call once.
  int run();

  /// Async-signal-safe: request graceful drain / config reload.
  void notify_stop() noexcept { stop_requested_.store(true); }
  void notify_reload() noexcept { reload_requested_.store(true); }

  /// Current global metrics snapshot as deterministic JSON (what a scrape
  /// frame returns).  Thread-safe.
  std::string scrape_json() const;

  /// In-process request execution -- the connection threads call this, and
  /// tests drive admission/cache/campaign behaviour through it without a
  /// socket.  Thread-safe.
  CampaignReply handle_campaign(const CampaignRequest& req);

  const ServeOptions& options() const noexcept { return opts_; }

 private:
  void handle_connection(int fd);
  void do_reload();
  void aggregate_campaign(const rt::MetricsRegistry& local);
  /// Base-config snapshot + request sentinel resolution -> one effective
  /// campaign config.  Throws ContractViolation on any field rt::validate
  /// refuses, the same check a config file gets.
  rt::RuntimeConfig resolve(const CampaignRequest& req) const;
  /// The multi-hop path (cfg.topology non-empty): builds the fabric through
  /// pcs::make_fabric (no plan cache; FabricSim owns its plans) and reports
  /// FabricSpec::digest() as the reply's spec_digest.
  CampaignReply run_fabric_campaign(const rt::RuntimeConfig& cfg);

  rt::RuntimeConfig base_;
  mutable std::mutex config_mu_;  ///< guards base_ (reload swaps under it)
  ServeOptions opts_;

  AdmissionController admission_;
  PlanCache cache_;

  /// Global rollup: serve.* operational counters plus the sum/merge of
  /// every completed campaign's counters and histograms.  agg_mu_ makes
  /// campaign-completion aggregation atomic with respect to scrapes.
  /// (mutable: scrape_json() refreshes cache/admission gauges.)
  mutable std::mutex agg_mu_;
  mutable rt::MetricsRegistry global_;

  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> reload_requested_{false};

  int listen_fd_ = -1;
  std::mutex threads_mu_;
  std::vector<std::thread> conn_threads_;
};

}  // namespace pcs::serve
