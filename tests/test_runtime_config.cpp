#include "runtime/config.hpp"

#include <gtest/gtest.h>

#include "util/assert.hpp"

namespace pcs::rt {
namespace {

TEST(RuntimeConfig, EmptyTextYieldsDefaults) {
  RuntimeConfig cfg = parse_config_text("");
  EXPECT_EQ(cfg.family, "revsort");
  EXPECT_EQ(cfg.n, 256u);
  EXPECT_EQ(cfg.m, 128u);
  EXPECT_EQ(cfg.policy, "buffer-retry");
  EXPECT_TRUE(cfg.loads.empty());
}

TEST(RuntimeConfig, ParsesEveryKeyWithCommentsAndBlanks) {
  RuntimeConfig cfg = parse_config_text(R"(
# campaign shape
family = revsort , columnsort
n = 1024
m = 512          # trailing comment
beta = 0.875
arrival = hotspot
arrival_p = 0.125
loads = 0.1, 0.2 ,0.3
queue_depth = 8
policy = misroute-retry
seed = 99
lanes = 2
warmup_epochs = 5
measure_epochs = 50
drain_epochs_max = 500
check_invariants = true
out = custom.json
)");
  EXPECT_EQ(split_csv(cfg.family), (std::vector<std::string>{"revsort", "columnsort"}));
  EXPECT_EQ(cfg.n, 1024u);
  EXPECT_EQ(cfg.m, 512u);
  EXPECT_DOUBLE_EQ(cfg.beta, 0.875);
  EXPECT_EQ(cfg.arrival, "hotspot");
  EXPECT_DOUBLE_EQ(cfg.arrival_p, 0.125);
  ASSERT_EQ(cfg.loads.size(), 3u);
  EXPECT_DOUBLE_EQ(cfg.loads[1], 0.2);
  EXPECT_EQ(cfg.queue_depth, 8u);
  EXPECT_EQ(cfg.policy, "misroute-retry");
  EXPECT_EQ(cfg.seed, 99u);
  EXPECT_EQ(cfg.lanes, 2u);
  EXPECT_EQ(cfg.warmup_epochs, 5u);
  EXPECT_EQ(cfg.measure_epochs, 50u);
  EXPECT_EQ(cfg.drain_epochs_max, 500u);
  EXPECT_TRUE(cfg.check_invariants);
  EXPECT_EQ(cfg.out, "custom.json");

  // The engine options carry the campaign keys over unchanged.
  const RuntimeOptions opts = runtime_options_from(cfg);
  EXPECT_EQ(opts.queue_depth, 8u);
  EXPECT_EQ(opts.policy, CongestionPolicy::kMisrouteRetry);
  EXPECT_EQ(opts.lanes, 2u);
  EXPECT_EQ(opts.seed, 99u);
  EXPECT_EQ(opts.warmup_epochs, 5u);
  EXPECT_EQ(opts.measure_epochs, 50u);
  EXPECT_EQ(opts.drain_epochs_max, 500u);
  EXPECT_TRUE(opts.check_invariants);
}

TEST(RuntimeConfig, ExecEngineKey) {
  // The plan executor has one engine, so there is no engine key to set:
  // exec= is an unknown key in files and overrides alike.
  EXPECT_THROW(parse_config_text("exec = fused"), ContractViolation);
  EXPECT_THROW(parse_config_text("exec = legacy"), ContractViolation);
  RuntimeConfig cfg = parse_config_text("");
  EXPECT_THROW(apply_overrides(cfg, {"exec=fused"}), ContractViolation);
}

TEST(RuntimeConfig, RejectsMalformedInput) {
  EXPECT_THROW(parse_config_text("mystery_key = 1"), ContractViolation);
  EXPECT_THROW(parse_config_text("just a line"), ContractViolation);
  EXPECT_THROW(parse_config_text("n = twelve"), ContractViolation);
  EXPECT_THROW(parse_config_text("arrival_p = lots"), ContractViolation);
  EXPECT_THROW(parse_config_text("check_invariants = maybe"), ContractViolation);
}

/// The config text must be rejected with a ContractViolation quoting `value`.
void expect_rejected_naming(const std::string& text, const std::string& value) {
  try {
    (void)parse_config_text(text);
    FAIL() << "accepted '" << text << "'";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'" + value + "'"), std::string::npos) << what;
  }
}

TEST(RuntimeConfig, IntegersRejectASign) {
  // std::stoull alone wraps "-1" to 2^64 - 1, which would pass every
  // ">= 1" range check below it.
  expect_rejected_naming("lanes = -1", "-1");
  expect_rejected_naming("measure_epochs = -1", "-1");
  // ... and would read this one as 1.
  expect_rejected_naming("seed = -18446744073709551615",
                         "-18446744073709551615");
  expect_rejected_naming("queue_depth = +4", "+4");
  expect_rejected_naming("threads = 18446744073709551616",
                         "18446744073709551616");  // overflow
  EXPECT_EQ(parse_size("threads", "0"), 0u);
  EXPECT_EQ(parse_size("seed", "18446744073709551615"),
            std::size_t{18446744073709551615ull});
}

TEST(RuntimeConfig, FaultsRejectASign) {
  expect_rejected_naming("faults = -1:0", "-1");
  expect_rejected_naming("faults = 0:-3", "-3");
  EXPECT_THROW((void)parse_faults("1-2"), ContractViolation);  // no colon
  const std::vector<plan::ChipFault> f = parse_faults("0:3, 1 : 2");
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f[0].stage, 0u);
  EXPECT_EQ(f[0].chip, 3u);
  EXPECT_EQ(f[1].stage, 1u);
  EXPECT_EQ(f[1].chip, 2u);
}

TEST(RuntimeConfig, ValidatesRanges) {
  EXPECT_THROW(parse_config_text("n = 64\nm = 128"), ContractViolation);   // m > n
  EXPECT_THROW(parse_config_text("arrival_p = 1.5"), ContractViolation);
  EXPECT_THROW(parse_config_text("loads = 0.5,2.0"), ContractViolation);
  EXPECT_THROW(parse_config_text("queue_depth = 0"), ContractViolation);
  EXPECT_THROW(parse_config_text("lanes = 0"), ContractViolation);
  EXPECT_THROW(parse_config_text("measure_epochs = 0"), ContractViolation);
  EXPECT_THROW(parse_config_text("policy = punt"), ContractViolation);
  EXPECT_THROW(parse_config_text("family = clos"), ContractViolation);
  EXPECT_THROW(parse_config_text("arrival = psychic"), ContractViolation);
}

TEST(RuntimeConfig, OverridesApplyAndRevalidate) {
  RuntimeConfig cfg = parse_config_text("n = 256\nm = 64");
  apply_overrides(cfg, {"m=128"});
  EXPECT_EQ(cfg.m, 128u);
  EXPECT_THROW(apply_overrides(cfg, {"m=512"}), ContractViolation);  // m > n
  EXPECT_THROW(apply_overrides(cfg, {"no-equals-sign"}), ContractViolation);
}

// Regression: overrides used to be validated one key at a time, so
// shrinking n before m ("n=64 m=32" against the default m=128) was refused
// as "switch shape: n=64 m=128" while "m=32 n=64" ran.  The whole list is
// judged once, after every key is applied, so the order does not matter.
TEST(RuntimeConfig, OverridesValidateOnceAfterAllApplied) {
  for (const std::vector<std::string>& order :
       {std::vector<std::string>{"family=columnsort", "n=64", "m=32"},
        std::vector<std::string>{"family=columnsort", "m=32", "n=64"}}) {
    RuntimeConfig cfg;
    apply_overrides(cfg, order);
    EXPECT_EQ(cfg.n, 64u);
    EXPECT_EQ(cfg.m, 32u);
  }
  // The final state is still validated: a shape that is bad after every
  // override is refused whichever key comes last.
  RuntimeConfig cfg;
  EXPECT_THROW(apply_overrides(cfg, {"m=32", "n=16"}), ContractViolation);
}

TEST(RuntimeConfig, SplitCsvTrimsAndDropsEmpties) {
  EXPECT_EQ(split_csv(" a, b ,,c "), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(split_csv("").empty());
  EXPECT_TRUE(split_csv(" , ,").empty());
}

TEST(RuntimeConfig, PolicyFromString) {
  EXPECT_EQ(policy_from_string("drop"), CongestionPolicy::kDrop);
  EXPECT_EQ(policy_from_string("buffer-retry"), CongestionPolicy::kBufferRetry);
  EXPECT_EQ(policy_from_string("misroute-retry"),
            CongestionPolicy::kMisrouteRetry);
  EXPECT_THROW(policy_from_string("yolo"), ContractViolation);
}

TEST(RuntimeConfig, MakeSwitchBuildsEveryFamily) {
  RuntimeConfig cfg;
  cfg.n = 256;
  cfg.m = 128;
  cfg.beta = 0.75;
  for (const char* family : {"revsort", "columnsort", "hyper"}) {
    auto sw = pcs::make_switch(switch_spec_from(cfg, family));
    ASSERT_NE(sw, nullptr) << family;
    EXPECT_EQ(sw->inputs(), 256u) << family;
    EXPECT_EQ(sw->outputs(), 128u) << family;
  }
  // A faulted config keeps its dead chips, on every family.
  cfg.faults = {{0, 0}};
  EXPECT_EQ(pcs::make_switch(switch_spec_from(cfg, "hyper"))->max_fault_loss(),
            256u);
  EXPECT_THROW(pcs::make_switch(switch_spec_from(cfg, "banyan")),
               ContractViolation);
}

TEST(RuntimeConfig, MakeTrafficBuildsEveryArrival) {
  RuntimeConfig cfg;
  cfg.n = 64;
  cfg.arrival_p = 0.25;
  Rng rng(17);
  for (const char* arrival : {"bernoulli", "exact", "bursty", "hotspot"}) {
    cfg.arrival = arrival;
    auto gen = make_traffic(cfg, cfg.n);
    ASSERT_NE(gen, nullptr) << arrival;
    EXPECT_EQ(gen->width(), 64u) << arrival;
    EXPECT_EQ(gen->next_valid(rng).size(), 64u) << arrival;
  }
  // exact presents round(p * n) messages every call.
  cfg.arrival = "exact";
  auto gen = make_traffic(cfg, cfg.n);
  EXPECT_EQ(gen->next_valid(rng).count(), 16u);
}

// Regression (parser): duplicate keys follow one rule everywhere --
// LAST occurrence wins, in the file body and across CLI overrides alike,
// so "file then overrides" and "file with a repeated key" agree.
TEST(RuntimeConfig, DuplicateKeysAreLastWins) {
  RuntimeConfig cfg = parse_config_text("n = 64\nseed = 1\nn = 1024\nseed = 7");
  EXPECT_EQ(cfg.n, 1024u);
  EXPECT_EQ(cfg.seed, 7u);
  // A repeated list key replaces, never appends.
  cfg = parse_config_text("loads = 0.1,0.2\nloads = 0.9");
  ASSERT_EQ(cfg.loads.size(), 1u);
  EXPECT_DOUBLE_EQ(cfg.loads[0], 0.9);
  // The same rule across override repetition.
  cfg = parse_config_text("m = 64");
  apply_overrides(cfg, {"m=128", "m=96"});
  EXPECT_EQ(cfg.m, 96u);
}

// Regression (parser): a key with embedded whitespace used to be truncated
// at the first space and silently treated as the shorter key; it must be
// rejected with a ContractViolation naming the offending line.
TEST(RuntimeConfig, KeysWithWhitespaceAreRejectedNamingTheLine) {
  try {
    parse_config_text("n = 64\nqueue depth = 8\n");
    FAIL() << "whitespace key accepted";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
    EXPECT_NE(what.find("queue depth"), std::string::npos) << what;
  }
  EXPECT_THROW(parse_config_text("drain epochs max = 9"), ContractViolation);
  RuntimeConfig cfg;
  EXPECT_THROW(apply_overrides(cfg, {"queue depth=8"}), ContractViolation);
  // Surrounding whitespace is trimmed as before -- only EMBEDDED
  // whitespace inside the key is a rejection.
  apply_overrides(cfg, {" n =512"});
  EXPECT_EQ(cfg.n, 512u);
}

TEST(RuntimeConfig, FabricKeysParseAndValidate) {
  RuntimeConfig cfg = parse_config_text(R"(
topology = omega
hops = 3
radix = 2
alloc = islip
credits = 16
fault_hop = 1
)");
  EXPECT_EQ(cfg.topology, "omega");
  EXPECT_EQ(cfg.fabric_hops, 3u);
  EXPECT_EQ(cfg.fabric_radix, 2u);
  EXPECT_EQ(cfg.fabric_alloc, "islip");
  EXPECT_EQ(cfg.fabric_credits, 16u);
  EXPECT_EQ(cfg.fault_hop, 1u);
  // Defaults keep single-switch campaigns: empty topology.
  EXPECT_TRUE(parse_config_text("").topology.empty());
  EXPECT_THROW(parse_config_text("topology = torus"), ContractViolation);
  EXPECT_THROW(parse_config_text("alloc = maxweight"), ContractViolation);
  EXPECT_THROW(parse_config_text("topology = omega\nhops = 0"),
               ContractViolation);
  EXPECT_THROW(parse_config_text("topology = omega\nradix = 0"),
               ContractViolation);
  EXPECT_THROW(parse_config_text("topology = omega\ncredits = 0"),
               ContractViolation);
  // Every family compiles to a plan, so "hyper" nodes and faulted "hyper"
  // switches are valid campaigns too.
  EXPECT_EQ(parse_config_text("topology = omega\nfamily = hyper").family,
            "hyper");
  EXPECT_EQ(parse_config_text("family = hyper\nfaults = 0:0").faults.size(),
            1u);
  // The fabric keys echo into the config JSON.
  const std::string json = config_to_json(cfg, 0);
  EXPECT_NE(json.find("\"topology\": \"omega\""), std::string::npos);
  EXPECT_NE(json.find("\"alloc\": \"islip\""), std::string::npos);
  EXPECT_NE(json.find("\"credits\": 16"), std::string::npos);
  EXPECT_NE(json.find("\"hops\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"radix\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"fault_hop\": 1"), std::string::npos);
}

TEST(RuntimeConfig, RoutePolicyKeysParseAndValidate) {
  RuntimeConfig cfg = parse_config_text(R"(
topology = fattree
route = adaptive
deflect_max = 3
epochs_in_flight = 4
)");
  EXPECT_EQ(cfg.fabric_route, "adaptive");
  EXPECT_EQ(cfg.fabric_deflect_max, 3u);
  EXPECT_EQ(cfg.fabric_epochs_in_flight, 4u);
  // Defaults: deterministic routing, no deflection, epochs_in_flight 0
  // (defer to PCS_FABRIC_EPOCHS_IN_FLIGHT, else serial).
  const RuntimeConfig defaults = parse_config_text("");
  EXPECT_EQ(defaults.fabric_route, "deterministic");
  EXPECT_EQ(defaults.fabric_deflect_max, 0u);
  EXPECT_EQ(defaults.fabric_epochs_in_flight, 0u);

  EXPECT_THROW(parse_config_text("route = random"), ContractViolation);
  // deflect_max needs adaptive routing to mean anything.
  EXPECT_THROW(parse_config_text("deflect_max = 2"), ContractViolation);
  EXPECT_THROW(parse_config_text("epochs_in_flight = 5000"),
               ContractViolation);

  const std::string json = config_to_json(cfg, 0);
  EXPECT_NE(json.find("\"route\": \"adaptive\""), std::string::npos);
  EXPECT_NE(json.find("\"deflect_max\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"epochs_in_flight\": 4"), std::string::npos);
}

TEST(RuntimeConfig, JsonEchoIsDeterministic) {
  RuntimeConfig cfg = parse_config_text("loads = 0.1,0.9\nseed = 5");
  const std::string a = config_to_json(cfg, 2);
  EXPECT_EQ(a, config_to_json(cfg, 2));
  EXPECT_NE(a.find("\"loads\": [0.1, 0.9]"), std::string::npos);
  EXPECT_NE(a.find("\"seed\": 5"), std::string::npos);
  EXPECT_EQ(a.find("\"exec\""), std::string::npos);  // no engine key
  EXPECT_EQ(a.substr(0, 3), "  {");
}

}  // namespace
}  // namespace pcs::rt
