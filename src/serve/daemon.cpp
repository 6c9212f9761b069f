#include "serve/daemon.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <utility>

#include "fabric/fabric_config.hpp"
#include "runtime/fabric_runtime.hpp"
#include "util/assert.hpp"

namespace pcs::serve {

namespace {

bool write_all(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t off = 0;
  while (off < size) {
    const ssize_t put = ::write(fd, data + off, size - off);
    if (put < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(put);
  }
  return true;
}

}  // namespace

AdmissionLimits admission_limits_from(const rt::RuntimeConfig& cfg) {
  return AdmissionLimits{cfg.serve_max_inflight, cfg.serve_tenant_quota};
}

std::size_t cache_budget_from(const rt::RuntimeConfig& cfg) {
  return cfg.serve_cache_mb << 20;
}

ServeDaemon::ServeDaemon(rt::RuntimeConfig base, ServeOptions opts)
    : base_(std::move(base)),
      opts_(std::move(opts)),
      admission_(admission_limits_from(base_)),
      cache_(cache_budget_from(base_)) {}

ServeDaemon::~ServeDaemon() {
  // run() joins everything on the normal path; this is the failed-bind /
  // test-only path.
  std::lock_guard<std::mutex> lock(threads_mu_);
  for (std::thread& t : conn_threads_) {
    if (t.joinable()) t.join();
  }
}

rt::RuntimeConfig ServeDaemon::resolve(const CampaignRequest& req) const {
  rt::RuntimeConfig cfg;
  {
    std::lock_guard<std::mutex> lock(config_mu_);
    cfg = base_;
  }
  // The base family may be a sweep list ("revsort,columnsort"); a daemon
  // default must be ONE buildable family, so take the first.
  const auto base_families = rt::split_csv(cfg.family);
  PCS_REQUIRE(!base_families.empty(), "daemon base config has no family");
  cfg.family = req.family.empty() ? base_families.front() : req.family;
  if (req.n != 0) cfg.n = req.n;
  if (req.m != 0) cfg.m = req.m;
  if (req.beta >= 0.0) cfg.beta = req.beta;
  if (!req.faults.empty()) cfg.faults = rt::parse_faults(req.faults);
  if (!req.arrival.empty()) cfg.arrival = req.arrival;
  if (!req.pattern.empty()) cfg.pattern = req.pattern;
  if (!req.injection.empty()) cfg.injection = req.injection;
  if (req.load >= 0.0) cfg.arrival_p = req.load;
  if (req.lanes != kUseServerDefault) cfg.lanes = req.lanes;
  if (req.queue_depth != kUseServerDefault) cfg.queue_depth = req.queue_depth;
  if (!req.policy.empty()) cfg.policy = req.policy;
  if (req.warmup_epochs != kUseServerDefault) cfg.warmup_epochs = req.warmup_epochs;
  if (req.measure_epochs != kUseServerDefault) cfg.measure_epochs = req.measure_epochs;
  if (req.drain_epochs_max != kUseServerDefault)
    cfg.drain_epochs_max = req.drain_epochs_max;
  if (!req.topology.empty()) cfg.topology = req.topology;
  if (!req.route.empty()) cfg.fabric_route = req.route;
  if (req.epochs_in_flight != kUseServerDefault)
    cfg.fabric_epochs_in_flight = req.epochs_in_flight;
  if (req.deflect_max != kUseServerDefault)
    cfg.fabric_deflect_max = req.deflect_max;
  cfg.seed = req.seed;

  // The same check a config file or a CLI override gets, so the daemon
  // refuses exactly what pcs_serve refuses -- except a family list, which
  // is a pcs_serve sweep: one request runs one campaign of one family.
  rt::validate(cfg);
  PCS_REQUIRE(rt::split_csv(cfg.family).size() == 1,
              "a campaign request names exactly one family, got the list '"
                  << cfg.family << "'");
  return cfg;
}

CampaignReply ServeDaemon::run_fabric_campaign(const rt::RuntimeConfig& cfg) {
  // Fabric campaigns bypass the plan cache: the per-node switch is one of
  // potentially many hops and FabricSim owns its plan instances (healthy +
  // faulted) for the campaign's lifetime.  The reply's spec_digest is the
  // FabricSpec fingerprint, the key a future fabric cache would use.
  CampaignReply rep;
  const std::unique_ptr<fabric::FabricSim> sim =
      fabric::make_fabric_sim(cfg, cfg.family, cfg.arrival_p);
  rt::MetricsRegistry local;

  const auto t0 = std::chrono::steady_clock::now();
  const rt::RuntimeReport report = sim->run(local);
  const auto wall_us = std::chrono::duration_cast<std::chrono::microseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();

  aggregate_campaign(local);
  global_.counter("serve.campaigns_completed").add(1);
  global_.counter("serve.fabric_campaigns").add(1);
  global_.histogram("serve.wall.campaign_us")
      .record(static_cast<std::uint64_t>(wall_us));

  rep.status = Status::kOk;
  rep.cache_hit = false;
  rep.drained = report.drained;
  rep.saturated = report.saturated;
  rep.offered = local.counter("total.offered").value();
  rep.delivered = local.counter("total.delivered").value();
  rep.dropped = local.counter("total.dropped").value();
  rep.residual = local.counter("total.residual").value();
  rep.delivery_rate = local.gauge("delivery_rate").value();
  rep.mean_latency_epochs = local.gauge("mean_latency_epochs").value();
  rep.spec_digest = sim->graph().spec().digest();
  return rep;
}

CampaignReply ServeDaemon::handle_campaign(const CampaignRequest& req) {
  global_.counter("serve.requests").add(1);

  CampaignReply rep;
  Ticket ticket(admission_, req.tenant);
  if (!ticket.admitted()) {
    const char* slug = admit_result_name(ticket.result());
    global_.counter(std::string("serve.rejected.") + slug).add(1);
    rep.status = Status::kRejected;
    rep.reason = slug;
    return rep;
  }

  try {
    const rt::RuntimeConfig cfg = resolve(req);

    if (!cfg.topology.empty()) return run_fabric_campaign(cfg);

    const PlanCache::Checkout co =
        cache_.checkout(rt::switch_spec_from(cfg, cfg.family));
    global_.counter(co.hit ? "serve.cache.hits" : "serve.cache.misses").add(1);

    // The raw pointer into the cache checkout stays valid for the whole
    // campaign; worstcase sources run their bound-stress search against it.
    const sw::ConcentratorSwitch* sw_ptr = co.sw.get();
    rt::FabricRuntime runtime(*co.sw, rt::runtime_options_from(cfg),
                              [&cfg, sw_ptr](std::size_t) {
                                return rt::make_traffic(cfg, cfg.n, sw_ptr);
                              });
    rt::MetricsRegistry local;

    const auto t0 = std::chrono::steady_clock::now();
    const rt::RuntimeReport report = runtime.run(local);
    const auto wall_us = std::chrono::duration_cast<std::chrono::microseconds>(
                             std::chrono::steady_clock::now() - t0)
                             .count();

    aggregate_campaign(local);
    global_.counter("serve.campaigns_completed").add(1);
    // Wall time is the one intentionally nondeterministic series; the CI
    // smoke filters "wall" names out of its determinism diff.
    global_.histogram("serve.wall.campaign_us")
        .record(static_cast<std::uint64_t>(wall_us));

    rep.status = Status::kOk;
    rep.cache_hit = co.hit;
    rep.drained = report.drained;
    rep.saturated = report.saturated;
    rep.offered = local.counter("total.offered").value();
    rep.delivered = local.counter("total.delivered").value();
    rep.dropped = local.counter("total.dropped").value();
    rep.residual = local.counter("total.residual").value();
    rep.delivery_rate = local.gauge("delivery_rate").value();
    rep.mean_latency_epochs = local.gauge("mean_latency_epochs").value();
    rep.spec_digest = co.key;
  } catch (const std::exception& e) {
    global_.counter("serve.campaigns_failed").add(1);
    rep.status = Status::kError;
    rep.reason = e.what();
  }
  return rep;
}

void ServeDaemon::aggregate_campaign(const rt::MetricsRegistry& local) {
  // One lock around the whole fold: a scrape serializes against it, so the
  // global conservation identity (sum of per-campaign identities) holds at
  // every observable instant -- never a campaign's offered without its
  // delivered.
  std::lock_guard<std::mutex> lock(agg_mu_);
  local.for_each_counter([this](const std::string& name, std::uint64_t v) {
    global_.counter(name).add(v);
  });
  local.for_each_histogram(
      [this](const std::string& name, const rt::Histogram::Snapshot& snap) {
        global_.histogram(name).merge(snap);
      });
  // Gauges (per-campaign rates, bounds) are not summable; clients get them
  // in their CampaignReply instead.
}

std::string ServeDaemon::scrape_json() const {
  std::lock_guard<std::mutex> lock(agg_mu_);
  const PlanCache::Stats cs = cache_.stats();
  global_.gauge("cache.bytes").set(static_cast<double>(cs.bytes));
  global_.gauge("cache.entries").set(static_cast<double>(cs.entries));
  global_.gauge("cache.evictions").set(static_cast<double>(cs.evictions));
  global_.gauge("serve.inflight").set(static_cast<double>(admission_.inflight()));
  return global_.to_json(0);
}

void ServeDaemon::do_reload() {
  if (opts_.config_path.empty()) {
    global_.counter("serve.config_reload_failures").add(1);
    return;
  }
  try {
    // Validate-then-swap: load_config_file parses AND validates the whole
    // file before anything here changes, so a bad reload is a no-op.
    rt::RuntimeConfig fresh = rt::load_config_file(opts_.config_path);
    {
      std::lock_guard<std::mutex> lock(config_mu_);
      base_ = fresh;
    }
    admission_.set_limits(admission_limits_from(fresh));
    cache_.set_byte_budget(cache_budget_from(fresh));
    global_.counter("serve.config_reloads").add(1);
  } catch (const std::exception&) {
    global_.counter("serve.config_reload_failures").add(1);
  }
}

void ServeDaemon::handle_connection(int fd) {
  FrameReader reader;
  std::vector<std::uint8_t> buf(64 * 1024);
  bool open = true;
  while (open && !stop_requested_.load()) {
    pollfd p{};
    p.fd = fd;
    p.events = POLLIN;
    const int rc = ::poll(&p, 1, opts_.poll_interval_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (rc == 0) continue;
    const ssize_t got = ::read(fd, buf.data(), buf.size());
    if (got <= 0) break;  // peer closed (0) or hard error
    try {
      reader.feed(buf.data(), static_cast<std::size_t>(got));
      while (auto frame = reader.next()) {
        std::vector<std::uint8_t> reply;
        switch (frame->type) {
          case MsgType::kCampaignRequest:
            reply = encode_campaign_reply(handle_campaign(*frame->campaign_request));
            break;
          case MsgType::kScrapeRequest: {
            global_.counter("serve.scrapes").add(1);
            ScrapeReply sr;
            sr.json = scrape_json();
            reply = encode_scrape_reply(sr);
            break;
          }
          default:
            // Server-bound streams must not carry reply types.
            PCS_REQUIRE(false, "unexpected client frame type "
                                   << int(static_cast<std::uint8_t>(frame->type)));
        }
        if (!write_all(fd, reply.data(), reply.size())) {
          open = false;
          break;
        }
      }
    } catch (const std::exception&) {
      global_.counter("serve.protocol_errors").add(1);
      break;
    }
  }
  ::close(fd);
}

int ServeDaemon::run() {
  // Copy, and from opts_: base_.serve_socket can be swapped by a SIGHUP
  // reload mid-run, but the socket we bound never moves.
  const std::string path = opts_.socket_path;
  ::unlink(path.c_str());

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return 1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(listen_fd_);
    return 1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    ::close(listen_fd_);
    return 1;
  }

  while (!stop_requested_.load()) {
    if (reload_requested_.exchange(false)) do_reload();
    pollfd p{};
    p.fd = listen_fd_;
    p.events = POLLIN;
    const int rc = ::poll(&p, 1, opts_.poll_interval_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (rc == 0 || !(p.revents & POLLIN)) continue;
    const int cfd = ::accept(listen_fd_, nullptr, nullptr);
    if (cfd < 0) continue;
    global_.counter("serve.connections").add(1);
    std::lock_guard<std::mutex> lock(threads_mu_);
    conn_threads_.emplace_back(&ServeDaemon::handle_connection, this, cfd);
  }

  // Graceful drain: nothing new is admitted, connection threads notice
  // stop_requested_ after finishing whatever campaign is in flight, and
  // join below blocks until the last reply went out.
  admission_.start_draining();
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::unlink(path.c_str());
  {
    std::lock_guard<std::mutex> lock(threads_mu_);
    for (std::thread& t : conn_threads_) {
      if (t.joinable()) t.join();
    }
    conn_threads_.clear();
  }
  PCS_REQUIRE(admission_.inflight() == 0,
              "drain left " << admission_.inflight() << " campaigns in flight");

  // Flush the final rollup so a stopped daemon leaves the same artifact the
  // batch CLI does.
  std::string out_path;
  {
    std::lock_guard<std::mutex> lock(config_mu_);
    out_path = base_.out;
  }
  std::ofstream out(out_path);
  if (out.good()) out << scrape_json() << "\n";
  return 0;
}

}  // namespace pcs::serve
