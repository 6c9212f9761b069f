// Reproduces the message-routing behaviour (experiment D6): bit-serial
// messages through the switches under sustained load, with the three
// congestion disciplines of Section 1 (drop / buffer+retry / misroute), and
// the two-level concentration hierarchy of the motivating application.
// The policy table (D6a) and the measured stream (D6c) are FabricRuntime
// campaigns, the engine pcs_serve and pcs_served run.
#include <cstdio>

#include "bench_common.hpp"
#include "cost/resource_model.hpp"
#include "message/ack_protocol.hpp"
#include "message/pipeline.hpp"
#include "network/router_sim.hpp"
#include "plan/plan_switch.hpp"
#include "runtime/fabric_runtime.hpp"
#include "switch/make_switch.hpp"
#include "traffic/factory.hpp"
#include "util/rng.hpp"

namespace {

// The engine's closest match to one message per wire per round: one lane,
// one queue slot per input wire (an arrival on a busy wire is turned away
// at the door), no warmup and no drain, so every counter covers exactly the
// `epochs` measured epochs and `residual` is the backlog left at the end.
void run_rounds(const pcs::sw::ConcentratorSwitch& sw,
                const pcs::traffic::TrafficSpec& traffic,
                pcs::rt::CongestionPolicy policy, std::size_t epochs,
                std::uint64_t seed, pcs::rt::MetricsRegistry& metrics) {
  pcs::rt::RuntimeOptions opts;
  opts.queue_depth = 1;
  opts.policy = policy;
  opts.lanes = 1;
  opts.seed = seed;
  opts.warmup_epochs = 0;
  opts.measure_epochs = epochs;
  opts.drain_epochs_max = 0;
  pcs::rt::FabricRuntime runtime(sw, opts, [&traffic](std::size_t) {
    return pcs::traffic::make_source(traffic);
  });
  runtime.run(metrics);
}

void policy_table(const pcs::sw::ConcentratorSwitch& sw, double arrival_p) {
  std::printf("\n%s at arrival p=%.2f (offered ~%.1f/epoch, m=%zu):\n",
              sw.name().c_str(), arrival_p,
              arrival_p * static_cast<double>(sw.inputs()), sw.outputs());
  std::printf("%16s %10s %10s %10s %10s %12s\n", "policy", "offered", "delivered",
              "dropped", "residual", "mean-latency");
  pcs::traffic::TrafficSpec traffic;
  traffic.width = sw.inputs();
  traffic.intensity = arrival_p;
  for (auto p : {pcs::rt::CongestionPolicy::kDrop,
                 pcs::rt::CongestionPolicy::kBufferRetry,
                 pcs::rt::CongestionPolicy::kMisrouteRetry}) {
    pcs::rt::MetricsRegistry m;
    run_rounds(sw, traffic, p, 300, 5001, m);
    std::printf("%16s %10llu %10llu %10llu %10llu %12.2f\n",
                pcs::rt::policy_name(p).c_str(),
                static_cast<unsigned long long>(m.counter("offered").value()),
                static_cast<unsigned long long>(m.counter("delivered").value()),
                static_cast<unsigned long long>(m.counter("dropped").value()),
                static_cast<unsigned long long>(m.counter("residual").value()),
                m.gauge("mean_latency_epochs").value());
  }
}

void print_artifacts() {
  pcs::bench::artifact_header("D6a", "congestion policies per switch");
  const pcs::plan::PlanSwitch hyper(pcs::make_switch_plan({"hyper", 256, 128}));
  const pcs::plan::PlanSwitch rev(pcs::make_switch_plan({"revsort", 256, 128}));
  const pcs::plan::PlanSwitch col(
      pcs::make_switch_plan({.family = "columnsort", .m = 128, .r = 64, .s = 4}));
  for (double p : {0.2, 0.6}) {
    policy_table(hyper, p);
    policy_table(rev, p);
    policy_table(col, p);
  }

  pcs::bench::artifact_header("D6b", "two-level concentration hierarchy");
  std::printf("%12s %10s %10s %10s %14s %12s\n", "tree", "arrival", "offered",
              "delivered", "trunk-util", "mean-lat");
  for (double p : {0.05, 0.15, 0.4}) {
    {
      pcs::Rng rng(5002);
      auto tree = pcs::net::make_hyper_tree(4, 64, 16, 32);
      auto s = pcs::net::simulate_tree(tree, p, 200, rng);
      std::printf("%12s %10.2f %10zu %10zu %14.3f %12.2f\n", "hyper", p, s.offered,
                  s.delivered, s.trunk_utilization(tree), s.mean_latency());
    }
    {
      pcs::Rng rng(5002);
      auto tree = pcs::net::make_revsort_tree(4, 64, 16, 32);
      auto s = pcs::net::simulate_tree(tree, p, 200, rng);
      std::printf("%12s %10.2f %10zu %10zu %14.3f %12.2f\n", "revsort", p, s.offered,
                  s.delivered, s.trunk_utilization(tree), s.mean_latency());
    }
    {
      pcs::Rng rng(5002);
      auto tree = pcs::net::make_columnsort_tree(4, 16, 4, 16, 32);
      auto s = pcs::net::simulate_tree(tree, p, 200, rng);
      std::printf("%12s %10.2f %10zu %10zu %14.3f %12.2f\n", "columnsort", p,
                  s.offered, s.delivered, s.trunk_utilization(tree),
                  s.mean_latency());
    }
  }
  std::printf(
      "\n(shape check: at light load the partial-concentrator trees track the\n"
      " perfect-switch tree; under saturation all are capped by the trunk.)\n");

  pcs::bench::artifact_header(
      "D6c", "pipelined throughput & latency model (payload 32b, 8 gates/cycle)");
  pcs::msg::PipelineModel pipe{.payload_bits = 32, .gates_per_cycle = 8};
  const pcs::cost::DelayModel dm{};
  std::printf("%-24s %8s %10s %14s %16s\n", "design (n=4096, m=2048)", "delay",
              "latency", "msgs/cycle", "payload b/cycle");
  struct Row {
    const char* label;
    std::size_t delays;
  };
  const Row rows[] = {
      {"single chip", pcs::cost::hyper_chip_report(4096, 2048, dm).gate_delays},
      {"revsort", pcs::cost::revsort_report(4096, 2048, dm).gate_delays},
      {"columnsort b=2/3", pcs::cost::columnsort_report(256, 16, 2048, dm).gate_delays},
      {"full revsort", pcs::cost::full_revsort_report(4096, dm).gate_delays},
  };
  for (const Row& row : rows) {
    // At capacity every setup fills m outputs.
    double routed = 2048.0;
    std::printf("%-24s %8zu %10zu %14.1f %16.1f\n", row.label, row.delays,
                pipe.message_latency(row.delays), pipe.messages_per_cycle(routed),
                pipe.payload_bits_per_cycle(routed));
  }
  std::printf("(combinational pipelining: depth costs only latency; sustained\n"
              " throughput is fixed by m and the setup period L + 1.)\n");

  std::printf("\nmeasured stream (200 saturating epochs, revsort 1024 -> 512):\n");
  {
    // Every wire offers every epoch and drop clears the losers, so each
    // epoch presents a fresh full batch.  Epochs start every setup period;
    // the last one's final bit leaves one flight time after its period.
    const pcs::plan::PlanSwitch sw(
        pcs::make_switch_plan({"revsort", 1024, 512}));
    pcs::traffic::TrafficSpec saturating;
    saturating.width = 1024;
    saturating.injection = "exact";
    saturating.intensity = 1.0;
    constexpr std::size_t kEpochs = 200;
    pcs::rt::MetricsRegistry m;
    run_rounds(sw, saturating, pcs::rt::CongestionPolicy::kDrop, kEpochs, 5006, m);
    const std::uint64_t delivered = m.counter("delivered").value();
    const std::size_t cycles =
        kEpochs * pipe.setup_period() +
        pipe.flight_cycles(pcs::cost::revsort_report(1024, 512, dm).gate_delays);
    std::printf("  delivered %llu of %llu, %.2f bits/cycle (model %.2f)\n",
                static_cast<unsigned long long>(delivered),
                static_cast<unsigned long long>(m.counter("offered").value()),
                static_cast<double>(delivered * pipe.payload_bits) /
                    static_cast<double>(cycles),
                pipe.payload_bits_per_cycle(512.0));
  }

  pcs::bench::artifact_header(
      "D6d", "drop-and-resend ack protocol (Section 1's third option)");
  std::printf("%-24s %8s %10s %12s %10s %12s %10s\n", "switch (arrival 0.4)",
              "offered", "goodput", "xmissions", "dups", "mean-compl", "gave-up");
  {
    pcs::msg::AckConfig cfg;
    struct Entry {
      const char* label;
      const pcs::sw::ConcentratorSwitch* sw;
    };
    const pcs::plan::PlanSwitch hyper_sw(
        pcs::make_switch_plan({"hyper", 256, 64}));
    const pcs::plan::PlanSwitch rev_sw(
        pcs::make_switch_plan({"revsort", 256, 64}));
    for (auto [label, swp] : {Entry{"hyper(256,64)", &hyper_sw},
                              Entry{"revsort(256,64)", &rev_sw}}) {
      pcs::Rng rng(5005);
      pcs::msg::AckStats s = pcs::msg::simulate_ack_protocol(*swp, 0.4, 300, cfg, rng);
      std::printf("%-24s %8zu %10.4f %12zu %10zu %12.2f %10zu\n", label, s.offered,
                  s.goodput(), s.transmissions, s.duplicates, s.mean_completion(),
                  s.gave_up);
    }
  }
  std::printf("(drop-and-resend trades buffering for retransmissions and, with\n"
              " slow acks, duplicates -- the protocol cost the switch designs\n"
              " offload to the higher layer.)\n");
}

// Setup throughput of the word-parallel routing engine: how many complete
// switch setups per second the simulator sustains when rounds are batched
// (64 rounds of valid bits per route_batch call).  items/sec = setups/sec.
void BM_BatchedSetupThroughput(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const pcs::plan::PlanSwitch sw(pcs::make_switch_plan({"revsort", n, n / 2}));
  pcs::Rng rng(5007);
  constexpr std::size_t kBatch = 64;
  std::vector<pcs::BitVec> rounds;
  rounds.reserve(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i) {
    rounds.push_back(rng.bernoulli_bits(n, 0.4));
  }
  std::size_t delivered = 0;
  for (auto _ : state) {
    for (const auto& r : sw.route_batch(rounds)) delivered += r.routed_count();
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBatch));
}
BENCHMARK(BM_BatchedSetupThroughput)->Arg(1 << 10)->Arg(1 << 14);

void BM_SimulateTree(benchmark::State& state) {
  auto tree = pcs::net::make_revsort_tree(4, 64, 16, 32);
  for (auto _ : state) {
    pcs::Rng rng(5004);
    auto s = pcs::net::simulate_tree(tree, 0.2, 50, rng);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_SimulateTree);

}  // namespace

PCS_BENCH_MAIN(print_artifacts)
