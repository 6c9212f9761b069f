// In-process daemon behaviour: handle_campaign() is the same entry the
// connection threads use, so admission, sentinel resolution, cache sharing,
// aggregation, and scrape conservation are all testable without a socket.
#include "serve/daemon.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "fabric/fabric_config.hpp"
#include "switch_oracles.hpp"
#include "util/assert.hpp"

namespace pcs::serve {
namespace {

rt::RuntimeConfig small_base() {
  rt::RuntimeConfig cfg;
  cfg.family = "revsort";
  cfg.n = 64;
  cfg.m = 48;
  cfg.arrival = "bernoulli";
  cfg.arrival_p = 0.10;
  cfg.lanes = 2;
  cfg.warmup_epochs = 4;
  cfg.measure_epochs = 16;
  cfg.drain_epochs_max = 128;
  cfg.seed = 7;
  return cfg;
}

CampaignRequest default_request(const std::string& tenant) {
  CampaignRequest req;
  req.tenant = tenant;
  req.seed = 3;
  return req;  // every shape field deferred to the server config
}

TEST(ServeDaemon, DefaultRequestRunsTheBaseConfigCampaign) {
  ServeDaemon daemon(small_base(), ServeOptions{});
  const CampaignReply rep = daemon.handle_campaign(default_request("t0"));
  ASSERT_EQ(rep.status, Status::kOk) << rep.reason;
  EXPECT_TRUE(rep.drained);
  EXPECT_FALSE(rep.cache_hit);  // cold cache
  // Conservation within the reply itself.
  EXPECT_EQ(rep.offered, rep.delivered + rep.dropped + rep.residual);
  EXPECT_GT(rep.offered, 0u);
  // The digest echoes the resolved spec: base family/shape, fused engine.
  SwitchSpec spec;
  spec.family = "revsort";
  spec.n = 64;
  spec.m = 48;
  EXPECT_EQ(rep.spec_digest, spec.digest());
}

TEST(ServeDaemon, SecondIdenticalRequestHitsTheCache) {
  ServeDaemon daemon(small_base(), ServeOptions{});
  const CampaignReply a = daemon.handle_campaign(default_request("t0"));
  const CampaignReply b = daemon.handle_campaign(default_request("t1"));
  ASSERT_EQ(a.status, Status::kOk);
  ASSERT_EQ(b.status, Status::kOk);
  EXPECT_FALSE(a.cache_hit);
  EXPECT_TRUE(b.cache_hit);  // tenants share one compiled plan
  EXPECT_EQ(a.spec_digest, b.spec_digest);
}

TEST(ServeDaemon, SameSeedSameShapeIsDeterministic) {
  ServeDaemon daemon(small_base(), ServeOptions{});
  const CampaignReply a = daemon.handle_campaign(default_request("t0"));
  const CampaignReply b = daemon.handle_campaign(default_request("t1"));
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_DOUBLE_EQ(a.delivery_rate, b.delivery_rate);
}

TEST(ServeDaemon, RequestOverridesReplaceServerDefaults) {
  ServeDaemon daemon(small_base(), ServeOptions{});
  CampaignRequest req = default_request("t0");
  req.family = "columnsort";
  req.n = 128;
  req.m = 96;
  req.beta = 0.75;
  const CampaignReply rep = daemon.handle_campaign(req);
  ASSERT_EQ(rep.status, Status::kOk) << rep.reason;
  SwitchSpec spec;
  spec.family = "columnsort";
  spec.n = 128;
  spec.m = 96;
  spec.beta = 0.75;
  EXPECT_EQ(rep.spec_digest, spec.digest());
}

TEST(ServeDaemon, BadShapeIsAnErrorReplyNotACrash) {
  ServeDaemon daemon(small_base(), ServeOptions{});
  CampaignRequest req = default_request("t0");
  req.n = 100;  // revsort needs a perfect square
  const CampaignReply rep = daemon.handle_campaign(req);
  EXPECT_EQ(rep.status, Status::kError);
  EXPECT_FALSE(rep.reason.empty());
  // The daemon keeps serving afterwards.
  EXPECT_EQ(daemon.handle_campaign(default_request("t0")).status, Status::kOk);
}

TEST(ServeDaemon, SignedFaultCoordinatesAreRejectedByResolve) {
  // Tenant bytes go through the same faults parser as the config file, so a
  // signed coordinate is named in the reply instead of wrapping to 2^64 - 1.
  ServeDaemon daemon(small_base(), ServeOptions{});
  CampaignRequest req = default_request("t0");
  req.faults = "-1:0";
  const CampaignReply rep = daemon.handle_campaign(req);
  EXPECT_EQ(rep.status, Status::kError);
  EXPECT_NE(rep.reason.find("'-1'"), std::string::npos) << rep.reason;
}

TEST(ServeDaemon, InvalidLoadIsRejectedByResolve) {
  ServeDaemon daemon(small_base(), ServeOptions{});
  CampaignRequest req = default_request("t0");
  req.load = 1.5;
  const CampaignReply rep = daemon.handle_campaign(req);
  EXPECT_EQ(rep.status, Status::kError);
}

TEST(ServeDaemon, ResolveRefusesWhatAConfigFileRefuses) {
  // resolve() runs the config's own validate(), so a request is refused
  // exactly when the same settings in a config file would be.
  ServeDaemon daemon(small_base(), ServeOptions{});
  CampaignRequest req = default_request("t0");
  req.deflect_max = 2;  // needs route=adaptive, even on a single switch
  CampaignReply rep = daemon.handle_campaign(req);
  EXPECT_EQ(rep.status, Status::kError);
  EXPECT_NE(rep.reason.find("deflect_max"), std::string::npos) << rep.reason;
  EXPECT_THROW(rt::parse_config_text("deflect_max = 2\n"), ContractViolation);

  req = default_request("t0");
  req.family = "full-revsort";  // a plan family, but not a campaign family
  req.m = 64;
  rep = daemon.handle_campaign(req);
  EXPECT_EQ(rep.status, Status::kError);
  EXPECT_NE(rep.reason.find("full-revsort"), std::string::npos) << rep.reason;
  EXPECT_THROW(rt::parse_config_text("family = full-revsort\nn = 64\nm = 64\n"),
               ContractViolation);

  // The daemon keeps serving afterwards.
  EXPECT_EQ(daemon.handle_campaign(default_request("t0")).status, Status::kOk);
}

TEST(ServeDaemon, HyperRequestsRunFromTheCache) {
  ServeDaemon daemon(small_base(), ServeOptions{});
  CampaignRequest req = default_request("t0");
  req.family = "hyper";
  const CampaignReply a = daemon.handle_campaign(req);
  req.tenant = "t1";
  const CampaignReply b = daemon.handle_campaign(req);
  ASSERT_EQ(a.status, Status::kOk) << a.reason;
  ASSERT_EQ(b.status, Status::kOk) << b.reason;
  EXPECT_FALSE(a.cache_hit);
  EXPECT_TRUE(b.cache_hit);

  // The same campaign over the hyperconcentrator chip itself (the test
  // oracle, no plan): identical accounting.
  rt::RuntimeConfig cfg = small_base();
  cfg.family = "hyper";
  cfg.seed = 3;  // default_request pins the seed
  const oracle::HyperOracle chip(cfg.n, cfg.m);
  rt::FabricRuntime runtime(chip, rt::runtime_options_from(cfg),
                            [&cfg](std::size_t) {
                              return rt::make_traffic(cfg, cfg.n);
                            });
  rt::MetricsRegistry local;
  runtime.run(local);
  EXPECT_GT(local.counter("total.offered").value(), 0u);
  for (const CampaignReply& rep : {a, b}) {
    EXPECT_EQ(rep.offered, local.counter("total.offered").value());
    EXPECT_EQ(rep.delivered, local.counter("total.delivered").value());
    EXPECT_EQ(rep.dropped, local.counter("total.dropped").value());
  }
}

TEST(ServeDaemon, FamilyListIsRefusedByName) {
  // pcs_serve sweeps a family list; one daemon request runs one campaign,
  // on a single switch or a fabric alike.
  ServeDaemon daemon(small_base(), ServeOptions{});
  for (const char* topology : {"", "omega"}) {
    CampaignRequest req = default_request("t0");
    req.family = "revsort,columnsort";
    req.topology = topology;
    const CampaignReply rep = daemon.handle_campaign(req);
    EXPECT_EQ(rep.status, Status::kError) << topology;
    EXPECT_NE(rep.reason.find("exactly one family"), std::string::npos)
        << rep.reason;
    EXPECT_NE(rep.reason.find("'revsort,columnsort'"), std::string::npos)
        << rep.reason;
  }
  EXPECT_EQ(daemon.handle_campaign(default_request("t0")).status, Status::kOk);
}

TEST(ServeDaemon, ScrapeHoldsConservationAcrossCampaigns) {
  ServeDaemon daemon(small_base(), ServeOptions{});
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(daemon.handle_campaign(default_request("t" + std::to_string(i)))
                  .status,
              Status::kOk);
  }
  const std::string json = daemon.scrape_json();
  auto counter = [&json](const std::string& name) -> std::uint64_t {
    const std::string key = "\"" + name + "\": ";
    const auto pos = json.find(key);
    EXPECT_NE(pos, std::string::npos) << name << " missing from scrape";
    if (pos == std::string::npos) return 0;
    return std::stoull(json.substr(pos + key.size()));
  };
  EXPECT_EQ(counter("total.offered"),
            counter("total.delivered") + counter("total.dropped") +
                counter("total.residual"));
  EXPECT_EQ(counter("serve.campaigns_completed"), 3u);
  EXPECT_EQ(counter("serve.requests"), 3u);
  EXPECT_EQ(counter("serve.cache.misses"), 1u);
  EXPECT_EQ(counter("serve.cache.hits"), 2u);
}

TEST(ServeDaemon, ScrapeIsByteDeterministicWhileQuiescent) {
  ServeDaemon daemon(small_base(), ServeOptions{});
  (void)daemon.handle_campaign(default_request("t0"));
  EXPECT_EQ(daemon.scrape_json(), daemon.scrape_json());
}

TEST(ServeDaemon, ConcurrentTenantsAllComplete) {
  rt::RuntimeConfig base = small_base();
  base.serve_max_inflight = 8;
  base.serve_tenant_quota = 4;
  ServeDaemon daemon(base, ServeOptions{});

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 3;
  std::vector<std::vector<CampaignReply>> replies(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&daemon, &replies, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        CampaignRequest req = default_request("t" + std::to_string(t));
        req.seed = 100 + t * 10 + i;
        replies[t].push_back(daemon.handle_campaign(req));
      }
    });
  }
  for (std::thread& th : threads) th.join();

  std::size_t ok = 0, cache_hits = 0;
  for (const auto& per_thread : replies) {
    for (const CampaignReply& rep : per_thread) {
      if (rep.status == Status::kOk) ++ok;
      if (rep.cache_hit) ++cache_hits;
      EXPECT_EQ(rep.offered, rep.delivered + rep.dropped + rep.residual);
    }
  }
  // Nothing exceeded max_inflight=8 with 4 threads, so nothing rejected.
  EXPECT_EQ(ok, kThreads * kPerThread);
  EXPECT_GE(cache_hits, kThreads * kPerThread - 1);  // one cold compile

  // The global rollup saw every campaign and still conserves.
  const std::string json = daemon.scrape_json();
  EXPECT_NE(json.find("\"serve.campaigns_completed\": 12"), std::string::npos)
      << json;
}

TEST(ServeDaemon, QuotaRejectionsCarrySlugReasons) {
  rt::RuntimeConfig base = small_base();
  base.serve_max_inflight = 1;
  base.serve_tenant_quota = 1;
  ServeDaemon daemon(base, ServeOptions{});

  // The hog runs one long campaign; the victim probes with 1-epoch ones, so
  // a missed race window costs microseconds, not a full campaign.
  std::thread holder([&daemon] {
    CampaignRequest hog = default_request("hog");
    hog.measure_epochs = 2048;
    (void)daemon.handle_campaign(hog);
  });
  CampaignReply rep;
  bool saw_reject = false;
  for (int i = 0; i < 500 && !saw_reject; ++i) {
    CampaignRequest probe = default_request("victim");
    probe.warmup_epochs = 0;
    probe.measure_epochs = 1;
    rep = daemon.handle_campaign(probe);
    saw_reject = rep.status == Status::kRejected;
    if (!saw_reject) std::this_thread::yield();
  }
  holder.join();
  if (saw_reject) {
    EXPECT_EQ(rep.reason, "saturated");
  }
  // Whether or not the race window was observed, the daemon drained fine.
  EXPECT_EQ(daemon.handle_campaign(default_request("victim")).status,
            Status::kOk);
}

// ---------------------------------------------------------------------------
// Fabric campaigns over the wire: a request with topology set runs the
// multi-hop path, reports FabricSpec::digest() (not the switch digest), and
// honours the v3 route/epochs_in_flight/deflect_max knobs.
// ---------------------------------------------------------------------------

CampaignRequest fabric_request(const std::string& tenant) {
  CampaignRequest req = default_request(tenant);
  req.topology = "omega";
  req.epochs_in_flight = 1;  // pin: CI may set the env default to > 1
  return req;
}

TEST(ServeDaemon, FabricRequestRunsTheMultiHopCampaign) {
  ServeDaemon daemon(small_base(), ServeOptions{});
  const CampaignReply rep = daemon.handle_campaign(fabric_request("t0"));
  ASSERT_EQ(rep.status, Status::kOk) << rep.reason;
  EXPECT_FALSE(rep.cache_hit);  // FabricSim owns its plans: no cache lane
  EXPECT_GT(rep.offered, 0u);
  EXPECT_EQ(rep.offered, rep.delivered + rep.dropped + rep.residual);
  // The reply digest is the FABRIC spec digest of the resolved config.
  rt::RuntimeConfig cfg = small_base();
  cfg.topology = "omega";
  cfg.seed = 3;  // default_request pins the seed
  EXPECT_EQ(rep.spec_digest,
            fabric::fabric_spec_from(cfg, cfg.family).digest());
  SwitchSpec node;
  node.family = "revsort";
  node.n = 64;
  node.m = 48;
  EXPECT_NE(rep.spec_digest, node.digest());

  const std::string json = daemon.scrape_json();
  EXPECT_NE(json.find("\"serve.fabric_campaigns\": 1"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"serve.campaigns_completed\": 1"), std::string::npos);
}

TEST(ServeDaemon, FabricOverridesFeedTheResolvedSpec) {
  ServeDaemon daemon(small_base(), ServeOptions{});
  CampaignRequest req = fabric_request("t0");
  req.topology = "fattree";
  req.route = "adaptive";
  req.deflect_max = 2;
  req.epochs_in_flight = 4;
  const CampaignReply rep = daemon.handle_campaign(req);
  ASSERT_EQ(rep.status, Status::kOk) << rep.reason;
  rt::RuntimeConfig cfg = small_base();
  cfg.topology = "fattree";
  cfg.fabric_route = "adaptive";
  cfg.fabric_deflect_max = 2;
  cfg.seed = 3;
  EXPECT_EQ(rep.spec_digest,
            fabric::fabric_spec_from(cfg, cfg.family).digest());
}

TEST(ServeDaemon, PipelinedFabricCampaignMatchesSerialAtTheWire) {
  // The bit-identity contract crosses the protocol boundary intact: the
  // same fabric request at epochs_in_flight 1 and 4 returns identical
  // campaign accounting.
  ServeDaemon daemon(small_base(), ServeOptions{});
  CampaignRequest serial = fabric_request("t0");
  CampaignRequest piped = fabric_request("t1");
  piped.epochs_in_flight = 4;
  const CampaignReply a = daemon.handle_campaign(serial);
  const CampaignReply b = daemon.handle_campaign(piped);
  ASSERT_EQ(a.status, Status::kOk) << a.reason;
  ASSERT_EQ(b.status, Status::kOk) << b.reason;
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.residual, b.residual);
  EXPECT_DOUBLE_EQ(a.mean_latency_epochs, b.mean_latency_epochs);
  EXPECT_EQ(a.spec_digest, b.spec_digest);
}

TEST(ServeDaemon, BadFabricKnobsAreErrorRepliesNotCrashes) {
  ServeDaemon daemon(small_base(), ServeOptions{});
  CampaignRequest req = fabric_request("t0");
  req.route = "random";
  EXPECT_EQ(daemon.handle_campaign(req).status, Status::kError);

  req = fabric_request("t0");
  req.epochs_in_flight = 5000;  // above the 4096 sanity cap
  EXPECT_EQ(daemon.handle_campaign(req).status, Status::kError);

  req = fabric_request("t0");
  req.topology = "torus";
  EXPECT_EQ(daemon.handle_campaign(req).status, Status::kError);

  req = fabric_request("t0");
  req.deflect_max = 2;  // deterministic route never deflects
  EXPECT_EQ(daemon.handle_campaign(req).status, Status::kError);

  // The daemon keeps serving single-switch campaigns afterwards.
  EXPECT_EQ(daemon.handle_campaign(default_request("t0")).status, Status::kOk);
}

}  // namespace
}  // namespace pcs::serve
