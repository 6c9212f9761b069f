// serve_mix: an open-loop request stream against an in-process
// serve::ServeDaemon, reached over its Unix socket the way a tenant reaches
// pcs_served.
//
// One generator thread drives three tenant connections and one scrape
// connection with ppoll(): it sends each request when it falls due, reads
// replies while it keeps sending, and times every reply from the request's
// due time, so a stall also charges the requests queued behind it.  Most
// requests are small single-switch campaigns on two shared specs (plan-cache
// hits); a share are 3-hop omega fabric campaigns, which the daemon compiles
// afresh on every request.  One scrape per second rides along.
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "obs/trace.hpp"
#include "serve/daemon.hpp"
#include "switch/make_switch.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using pcs::serve::CampaignReply;
using pcs::serve::CampaignRequest;
using pcs::serve::Frame;
using pcs::serve::MsgType;

constexpr const char* kRunDir = ".bench_run";
constexpr std::size_t kTenants = 3;
constexpr double kScrapeEvery_s = 1.0;
/// Requests per second.  Three connections sustained about 215 of this mix
/// on a 4-CPU Xeon host when this was written; half of that keeps queues
/// short, so replies measure service rather than a growing backlog, while
/// a 30 s run still yields 3300 replies (three p99 windows of 1100).  At two
/// thirds, one host hiccup queued enough requests to swing p99 several-fold.
constexpr double kRequestsPerSecond = 110.0;
/// How long the stream may run past its last due time before the
/// outstanding replies count as timed out.
constexpr double kReplyTimeout_s = 30.0;

struct Kind {
  const char* name;
  CampaignRequest shape;
  double weight;
};

std::vector<Kind> request_kinds(bool tiny) {
  CampaignRequest base;
  base.n = tiny ? 64 : 256;
  base.m = base.n / 4 * 3;
  base.arrival = "bernoulli";
  base.policy = "buffer-retry";
  base.lanes = 4;
  base.queue_depth = 4;
  base.warmup_epochs = tiny ? 4 : 16;
  base.measure_epochs = tiny ? 16 : 64;
  base.drain_epochs_max = 256;

  CampaignRequest revsort = base;
  revsort.family = "revsort";
  revsort.load = 0.3;

  CampaignRequest columnsort = base;
  columnsort.family = "columnsort";
  columnsort.beta = 0.75;
  columnsort.load = 0.3;

  CampaignRequest fabric = base;
  fabric.family = "revsort";
  fabric.topology = "omega";
  fabric.load = 0.6;
  fabric.measure_epochs = tiny ? 16 : 32;

  return {{"revsort", revsort, 0.45},
          {"columnsort", columnsort, 0.35},
          {"fabric", fabric, 0.20}};
}

/// The daemon's base config: the fabric shape requests cannot carry on the
/// wire (hops, radix, credits, allocator), admission limits no request of
/// this stream reaches, and run-local socket and output paths.
pcs::rt::RuntimeConfig daemon_config(const std::string& socket,
                                     const std::string& out, bool tiny) {
  pcs::rt::RuntimeConfig cfg;
  cfg.fabric_hops = tiny ? 2 : 3;
  cfg.fabric_radix = tiny ? 2 : 4;
  cfg.fabric_credits = 8;
  cfg.fabric_alloc = "islip";
  cfg.serve_socket = socket;
  cfg.serve_max_inflight = 8;
  cfg.serve_tenant_quota = 4;
  cfg.out = out;
  return cfg;
}

bool write_all(int fd, const std::vector<std::uint8_t>& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t put = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (put < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(put);
  }
  return true;
}

int connect_uds(const std::string& path, Clock::time_point deadline) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) return -1;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  while (Clock::now() < deadline) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      return fd;
    }
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return -1;
}

/// One client connection: its frame reader and, for tenants, the indices
/// of requests sent but not yet answered (replies come back in order).
struct Conn {
  int fd = -1;
  pcs::serve::FrameReader reader;
  std::deque<std::size_t> outstanding;

  Conn() = default;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  ~Conn() {
    if (fd >= 0) ::close(fd);
  }

  /// Read what is available; false when the daemon hung up.
  bool pump() {
    std::uint8_t buf[65536];
    const ssize_t got = ::read(fd, buf, sizeof(buf));
    if (got < 0) return errno == EINTR || errno == EAGAIN;
    if (got == 0) return false;
    reader.feed(buf, static_cast<std::size_t>(got));
    return true;
  }

  /// Send one frame and wait for the next reply frame.
  std::optional<Frame> roundtrip(const std::vector<std::uint8_t>& bytes,
                                 double timeout_s) {
    if (!write_all(fd, bytes)) return std::nullopt;
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(timeout_s));
    while (Clock::now() < deadline) {
      if (auto frame = reader.next()) return frame;
      pollfd p{fd, POLLIN, 0};
      if (::poll(&p, 1, 100) > 0 && !pump()) return std::nullopt;
    }
    return std::nullopt;
  }
};

/// A daemon constructed, bound and serving from its own thread, plus the
/// client side's connections to it.
class DaemonHost {
 public:
  DaemonHost(const pcs::rt::RuntimeConfig& cfg, const std::string& socket)
      : daemon_(cfg, options(socket)), thread_([this] {
          // run() throws if its drain leaves a campaign in flight; an
          // exception escaping a thread would end the process.
          try {
            rc_ = daemon_.run();
          } catch (const std::exception& e) {
            std::fprintf(stderr, "perfbench: daemon: %s\n", e.what());
            rc_ = 1;
          }
        }) {}
  ~DaemonHost() { stop(); }
  DaemonHost(const DaemonHost&) = delete;
  DaemonHost& operator=(const DaemonHost&) = delete;

  /// Connect the tenant and scrape connections; false if the daemon never
  /// accepted within `timeout_s`.
  bool connect(const std::string& socket, double timeout_s) {
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(timeout_s));
    for (Conn& c : tenants) {
      c.fd = connect_uds(socket, deadline);
      if (c.fd < 0) return false;
    }
    scrape.fd = connect_uds(socket, deadline);
    return scrape.fd >= 0;
  }

  /// Close every client connection, drain the daemon, join its thread.
  /// Returns the daemon's exit code.
  int stop() {
    for (Conn& c : tenants) {
      if (c.fd >= 0) ::close(c.fd);
      c.fd = -1;
    }
    if (scrape.fd >= 0) ::close(scrape.fd);
    scrape.fd = -1;
    if (thread_.joinable()) {
      daemon_.notify_stop();
      thread_.join();
    }
    return rc_;
  }

  std::array<Conn, kTenants> tenants;
  Conn scrape;

 private:
  static pcs::serve::ServeOptions options(const std::string& socket) {
    pcs::serve::ServeOptions o;
    o.socket_path = socket;
    return o;
  }

  pcs::serve::ServeDaemon daemon_;
  int rc_ = 0;
  std::thread thread_;  // last: starts once daemon_ exists
};

/// The simulated counters and the few operational series a scrape reports,
/// read from MetricsRegistry::to_json's one-metric-per-line layout.
struct Scrape {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> hist;  // count, sum
  std::uint64_t sim_digest = 0;

  std::uint64_t counter(const std::string& name) const {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
  std::pair<std::uint64_t, std::uint64_t> histogram(const std::string& name) const {
    const auto it = hist.find(name);
    return it == hist.end() ? std::pair<std::uint64_t, std::uint64_t>{0, 0}
                            : it->second;
  }
};

std::uint64_t number_after(const std::string& line, const char* key) {
  const std::size_t at = line.find(key);
  if (at == std::string::npos) return 0;
  return std::strtoull(line.c_str() + at + std::strlen(key), nullptr, 10);
}

Scrape parse_scrape(const std::string& json) {
  Scrape s;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](const std::string& text) {
    for (const char c : text) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ULL;
    }
  };
  enum { kNone, kCounters, kGauges, kHistograms } section = kNone;
  bool in_sim_hist = false;
  std::size_t pos = 0;
  while (pos < json.size()) {
    std::size_t eol = json.find('\n', pos);
    if (eol == std::string::npos) eol = json.size();
    std::string line = json.substr(pos, eol - pos);
    pos = eol + 1;
    line.erase(0, line.find_first_not_of(' '));
    if (line.rfind("\"counters\": {", 0) == 0) {
      section = kCounters;
    } else if (line.rfind("\"gauges\": {", 0) == 0) {
      section = kGauges;
    } else if (line.rfind("\"histograms\": {", 0) == 0) {
      section = kHistograms;
    } else if (line.rfind("\"buckets\"", 0) == 0) {
      if (in_sim_hist) mix(line);
    } else if (line.rfind('"', 0) == 0) {
      const std::size_t close = line.find('"', 1);
      if (close == std::string::npos) continue;
      const std::string name = line.substr(1, close - 1);
      const bool simulated =
          name.find("wall") == std::string::npos && name.rfind("serve.", 0) != 0 &&
          name.rfind("cache.", 0) != 0 && name.rfind("profile.", 0) != 0 &&
          name.rfind("fabric.pipeline.", 0) != 0;
      in_sim_hist = false;
      if (section == kCounters) {
        s.counters[name] = number_after(line, "\": ");
        if (simulated) mix(line);
      } else if (section == kHistograms) {
        s.hist[name] = {number_after(line, "\"count\": "),
                        number_after(line, "\"sum\": ")};
        in_sim_hist = simulated;
        if (simulated) mix(line);
      }
    }
  }
  s.sim_digest = h;
  return s;
}

struct Planned {
  std::size_t kind = 0;
  std::uint64_t campaign_seed = 0;
};

/// The request stream a seed stands for: each request's kind drawn by the
/// mix weights, and its campaign seed from a small per-seed set, so equal
/// (kind, campaign seed) requests repeat within a run and must reply alike.
std::vector<Planned> plan_stream(const std::vector<Kind>& kinds,
                                 std::uint64_t seed, std::size_t count) {
  pcs::Rng rng(seed);
  std::vector<Planned> out(count);
  for (Planned& p : out) {
    double u = rng.uniform01();
    p.kind = kinds.size() - 1;
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      if (u < kinds[k].weight) {
        p.kind = k;
        break;
      }
      u -= kinds[k].weight;
    }
    p.campaign_seed = seed * 16 + 1 + rng.below(8);
  }
  return out;
}

CampaignRequest request_for(const std::vector<Kind>& kinds, const Planned& p,
                            std::size_t tenant) {
  CampaignRequest req = kinds[p.kind].shape;
  req.tenant = "tenant" + std::to_string(tenant);
  req.seed = p.campaign_seed;
  return req;
}

struct Stream {
  std::vector<double> reply_ms;   ///< due time -> decoded reply
  std::vector<double> scrape_ms;  ///< scrape round trips
  double lag_ms_max = 0.0;        ///< how late the generator sent
  std::uint64_t delivered = 0;
  std::uint64_t rejected = 0;
  double wall_s = 0.0;  ///< first due time -> last reply
  ProcSample before, after;
  Scrape start, end;    ///< scrapes just before and after the stream
};

/// Run one open-loop stream of `plan` against `host`.  Every reply goes
/// through the correctness gate; `digests` pins the reply of every
/// (kind, campaign seed) pair across the run.  With a budget, the tracer
/// is on for the stream and drained into it once per scrape.
Stream run_stream(DaemonHost& host, const std::vector<Kind>& kinds,
                  const std::vector<Planned>& plan, Result& res,
                  std::map<std::uint64_t, std::uint64_t>& digests,
                  LayerBudget* budget) {
  Stream st;
  const auto scrape_now = [&](Scrape& into) {
    ++res.attempted;
    const std::optional<Frame> f =
        host.scrape.roundtrip(pcs::serve::encode_scrape_request(), 30.0);
    if (!f || f->type != MsgType::kScrapeReply || !f->scrape_reply) {
      res.fail("scrape got no reply");
      return;
    }
    into = parse_scrape(f->scrape_reply->json);
  };
  scrape_now(st.start);

  pcs::obs::Tracer& tracer = pcs::obs::Tracer::instance();
  if (budget != nullptr) tracer.enable();

  const auto gap = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kRequestsPerSecond));
  const auto scrape_gap = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(kScrapeEvery_s));
  st.before = proc_now();
  const Clock::time_point t0 = st.before.wall + std::chrono::milliseconds(2);
  const auto due = [&](std::size_t i) {
    return t0 + gap * static_cast<std::int64_t>(i);
  };
  const Clock::time_point deadline =
      due(plan.size()) + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(kReplyTimeout_s));

  std::size_t sent = 0, answered = 0;
  Clock::time_point next_scrape = t0 + scrape_gap;
  bool scrape_pending = false;
  Clock::time_point scrape_sent{};
  Clock::time_point last_reply = t0;
  bool broken = false;

  const auto on_reply = [&](Conn& conn, const Frame& f, Clock::time_point now) {
    if (conn.outstanding.empty() || f.type != MsgType::kCampaignReply ||
        !f.campaign_reply) {
      res.fail("unexpected frame on a tenant connection");
      broken = true;
      return;
    }
    const std::size_t i = conn.outstanding.front();
    conn.outstanding.pop_front();
    ++answered;
    last_reply = now;
    st.reply_ms.push_back(
        std::chrono::duration<double, std::milli>(now - due(i)).count());
    const CampaignReply& rep = *f.campaign_reply;
    if (rep.status != pcs::serve::Status::kOk) ++st.rejected;
    const std::string err = reply_error(rep);
    if (!err.empty()) {
      res.fail(std::string(kinds[plan[i].kind].name) + ": " + err);
      return;
    }
    st.delivered += rep.delivered;
    const std::uint64_t key = (plan[i].campaign_seed << 8) | plan[i].kind;
    const std::uint64_t digest = reply_digest(rep);
    const auto [it, fresh] = digests.emplace(key, digest);
    if (!fresh && it->second != digest) {
      res.fail(std::string(kinds[plan[i].kind].name) +
               ": replies to one request differ within a run");
    }
  };

  while (answered < plan.size() && !broken) {
    Clock::time_point now = Clock::now();
    if (now > deadline) {
      const std::size_t missing = plan.size() - answered;
      for (std::size_t k = 0; k < missing; ++k) res.fail("reply timed out");
      break;
    }
    while (sent < plan.size() && now >= due(sent)) {
      const std::size_t tenant = sent % kTenants;
      Conn& conn = host.tenants[tenant];
      ++res.attempted;
      if (!write_all(conn.fd, pcs::serve::encode_campaign_request(
                                  request_for(kinds, plan[sent], tenant)))) {
        res.fail("request write failed");
        broken = true;
        break;
      }
      conn.outstanding.push_back(sent);
      st.lag_ms_max = std::max(
          st.lag_ms_max,
          std::chrono::duration<double, std::milli>(now - due(sent)).count());
      ++sent;
      now = Clock::now();
    }
    if (!scrape_pending && sent < plan.size() && now >= next_scrape) {
      ++res.attempted;
      if (!write_all(host.scrape.fd, pcs::serve::encode_scrape_request())) {
        res.fail("scrape write failed");
        break;
      }
      scrape_pending = true;
      scrape_sent = now;
      next_scrape += scrape_gap;
      if (budget != nullptr) budget->add_totals(tracer.drain());
    }

    Clock::time_point wake = deadline;
    if (sent < plan.size()) wake = std::min({wake, due(sent), next_scrape});
    const auto wait = std::max(Clock::duration::zero(), wake - Clock::now());
    const auto wait_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count();
    timespec ts{static_cast<time_t>(wait_ns / 1000000000),
                static_cast<long>(wait_ns % 1000000000)};
    std::array<pollfd, kTenants + 1> fds{};
    for (std::size_t t = 0; t < kTenants; ++t) {
      fds[t] = pollfd{host.tenants[t].fd, POLLIN, 0};
    }
    fds[kTenants] = pollfd{host.scrape.fd, POLLIN, 0};
    const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (ready < 0 && errno != EINTR) {
      res.fail(std::string("ppoll: ") + std::strerror(errno));
      break;
    }
    if (ready <= 0) continue;
    now = Clock::now();
    for (std::size_t t = 0; t <= kTenants && !broken; ++t) {
      if (fds[t].revents == 0) continue;
      Conn& conn = t < kTenants ? host.tenants[t] : host.scrape;
      if (!conn.pump()) {
        res.fail("daemon closed a connection");
        broken = true;
        break;
      }
      try {
        while (auto frame = conn.reader.next()) {
          if (t < kTenants) {
            on_reply(conn, *frame, now);
          } else if (frame->type == MsgType::kScrapeReply && scrape_pending) {
            st.scrape_ms.push_back(
                std::chrono::duration<double, std::milli>(now - scrape_sent)
                    .count());
            scrape_pending = false;
          } else {
            res.fail("unexpected frame on the scrape connection");
            broken = true;
          }
        }
      } catch (const std::exception& e) {
        res.fail(std::string("undecodable reply: ") + e.what());
        broken = true;
      }
    }
  }
  st.after = proc_now();
  st.wall_s = seconds_between(t0, last_reply);
  if (budget != nullptr) {
    tracer.disable();
    budget->add_totals(tracer.drain());
  }
  // A scrape still in flight is answered before the final one.
  if (scrape_pending && !host.scrape.roundtrip({}, 30.0)) {
    res.fail("scrape got no reply");
  }
  scrape_now(st.end);
  return st;
}

/// Daemon bind plus each kind's first (cold) request, one after another.
/// Returns the seconds it took, or a negative value on failure.
double cold_start(DaemonHost& host, const std::string& socket,
                  const std::vector<Kind>& kinds, Clock::time_point t0,
                  Result& res) {
  if (!host.connect(socket, 30.0)) {
    res.fail("daemon never accepted a connection");
    return -1.0;
  }
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    ++res.attempted;
    const std::optional<Frame> f = host.tenants[0].roundtrip(
        pcs::serve::encode_campaign_request(request_for(kinds, Planned{k, 1}, 0)),
        60.0);
    if (!f || f->type != MsgType::kCampaignReply || !f->campaign_reply) {
      res.fail(std::string(kinds[k].name) + ": cold request got no reply");
      return -1.0;
    }
    const std::string err = reply_error(*f->campaign_reply);
    if (!err.empty()) {
      res.fail(std::string(kinds[k].name) + ": " + err);
      return -1.0;
    }
  }
  return seconds_between(t0, Clock::now());
}

}  // namespace

Result run_serve_mix(const Args& args) {
  Result res;
  ::mkdir(kRunDir, 0755);
  const std::string stem = std::string(kRunDir) + "/serve-" + std::to_string(::getpid());
  const std::string socket = stem + ".sock";
  const std::string out = stem + ".json";
  const pcs::rt::RuntimeConfig cfg = daemon_config(socket, out, args.tiny);
  const std::vector<Kind> kinds = request_kinds(args.tiny);
  const double stream_s = args.trace ? args.seconds / 2.0 : args.seconds;
  const std::vector<Planned> plan = plan_stream(
      kinds, args.seed,
      std::max<std::size_t>(
          kTenants, static_cast<std::size_t>(stream_s * kRequestsPerSecond)));
  std::map<std::uint64_t, std::uint64_t> digests;

  const auto cleanup = [&] {
    ::unlink(out.c_str());
    ::unlink(socket.c_str());
    ::rmdir(kRunDir);
  };
  const auto stop = [&](DaemonHost& s) {
    if (s.stop() != 0) res.fail("daemon did not drain cleanly");
  };

  if (!args.trace) {
    std::vector<double> setup_s;
    std::unique_ptr<DaemonHost> host;
    // Cold starts before the stream, which runs on the last of them, and
    // after it: a host's slow spells last seconds, so samples half a minute
    // apart give a median that one spell does not decide.
    const auto cold_starts = [&](std::size_t count) {
      for (std::size_t k = 0; k < count && res.failed == 0; ++k) {
        if (host) stop(*host);
        host.reset();
        const Clock::time_point t0 = Clock::now();
        host = std::make_unique<DaemonHost>(cfg, socket);
        const double s = cold_start(*host, socket, kinds, t0, res);
        if (s >= 0.0) setup_s.push_back(s);
      }
    };
    const std::size_t starts = args.tiny ? 1 : 5;
    cold_starts(starts);
    if (res.failed == 0) {
      const Stream st = run_stream(*host, kinds, plan, res, digests, nullptr);
      cold_starts(starts);
      EndToEnd e;
      e.msgs_per_s = static_cast<double>(st.delivered) / st.wall_s;
      e.cpu_s_per_mmsg = (st.after.cpu_s - st.before.cpu_s) /
                         (static_cast<double>(st.delivered) * 1e-6);
      e.reply_ms_p50 = quantile(st.reply_ms, 0.50);
      e.reply_ms_p99 = windowed_p99(st.reply_ms);
      e.setup_s = median(setup_s);
      e.peak_rss_mb = peak_rss_mb();
      emit_end_to_end(res, e);
      res.info.emplace_back("replies", static_cast<double>(st.reply_ms.size()));
      res.info.emplace_back("setup_samples", static_cast<double>(setup_s.size()));
      res.info.emplace_back("requests_per_s", kRequestsPerSecond);
      res.info.emplace_back("stream_s", st.wall_s);
    }
    if (host) stop(*host);
    cleanup();
    return res;
  }

  PerLayer p;
  p.epoch_from_spans = true;
  {
    // The two shared specs; fabric requests compile the revsort one per node.
    const std::size_t compiles = args.tiny ? 3 : 15;
    double sum = 0.0;
    for (const std::size_t k : {std::size_t{0}, std::size_t{1}}) {
      pcs::SwitchSpec spec;
      spec.family = kinds[k].shape.family;
      spec.n = kinds[k].shape.n;
      spec.m = kinds[k].shape.m;
      if (kinds[k].shape.beta >= 0.0) spec.beta = kinds[k].shape.beta;
      std::vector<double> ms;
      for (std::size_t i = 0; i < compiles; ++i) {
        const Clock::time_point t0 = Clock::now();
        const auto sw = pcs::make_switch(spec);
        ms.push_back(1e3 * seconds_between(t0, Clock::now()));
      }
      sum += median(ms);
    }
    p.compile_ms = sum / 2.0;
  }

  // The same stream twice, each on a fresh daemon: untraced, then traced.
  // Their final scrapes must carry identical simulated counters.
  Stream plain, traced;
  for (const bool with_trace : {false, true}) {
    DaemonHost host(cfg, socket);
    if (cold_start(host, socket, kinds, Clock::now(), res) < 0.0) break;
    Stream& st = with_trace ? traced : plain;
    st = run_stream(host, kinds, plan, res, digests,
                    with_trace ? &p.budget : nullptr);
    stop(host);
  }
  cleanup();
  if (res.failed != 0) return res;
  if (plain.end.sim_digest != traced.end.sim_digest) {
    res.fail("simulated counters differ between the untraced and traced streams");
    return res;
  }

  // Timings come from the untraced stream: the traced one pauses its
  // generator once a second to drain the tracer.  Spans and the simulated
  // counters come from the traced one.
  const auto delta = [&](const std::string& name) {
    return static_cast<double>(traced.end.counter(name) - traced.start.counter(name));
  };
  const auto hist_mean = [](const Stream& st, const std::string& name) {
    const auto [c1, s1] = st.end.histogram(name);
    const auto [c0, s0] = st.start.histogram(name);
    return c1 > c0 ? static_cast<double>(s1 - s0) / static_cast<double>(c1 - c0)
                   : 0.0;
  };
  const double hits = delta("serve.cache.hits");
  const double misses = delta("serve.cache.misses");
  p.cache_hit_ratio = hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
  p.campaign_ms_mean = hist_mean(plain, "serve.wall.campaign_us") * 1e-3;
  p.outside_campaign_share = 1.0 - p.campaign_ms_mean / mean(plain.reply_ms);
  p.rejected = static_cast<double>(plain.rejected + traced.rejected);
  p.scrape_ms_p50 = median(plain.scrape_ms);
  p.lag_ms_max = plain.lag_ms_max;
  p.trace_overhead =
      hist_mean(traced, "serve.wall.campaign_us") * 1e-3 / p.campaign_ms_mean;
  const double plain_wall = seconds_between(plain.before.wall, plain.after.wall);
  p.cpu_per_wall = (plain.after.cpu_s - plain.before.cpu_s) / plain_wall;
  p.minflt_per_kmsg =
      static_cast<double>(plain.after.minflt - plain.before.minflt) /
      (static_cast<double>(plain.delivered) * 1e-3);
  p.epoch_us_p50 = quantile(p.budget.epoch_span_us, 0.50);
  p.epoch_us_p99 = quantile(p.budget.epoch_span_us, 0.99);
  p.sim_delivered = delta("total.delivered");
  p.sim_dropped = delta("total.dropped");
  p.sim_retries = delta("retries");
  for (const auto& [name, v] : traced.end.counters) {
    if (name.rfind("fabric.hop", 0) == 0 && name.size() > 14 &&
        name.compare(name.size() - 14, 14, ".credit_stalls") == 0) {
      p.sim_credit_stalls += static_cast<double>(v - traced.start.counter(name));
    }
  }
  p.sim_latency_epochs_mean = hist_mean(traced, "latency_epochs");
  p.sim_dispatches = delta("route_batch_dispatches");
  emit_per_layer(res, p);
  res.info.emplace_back("traced_replies", static_cast<double>(traced.reply_ms.size()));
  res.info.emplace_back("epoch_samples",
                        static_cast<double>(p.budget.epoch_span_us.size()));
  return res;
}

}  // namespace perfbench
