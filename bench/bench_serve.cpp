// Serving-daemon hot paths: what the wire protocol costs per message and
// what the shared plan cache saves per campaign.
//
// The protocol benchmarks price one request round trip's worth of
// encode/decode plus the FrameReader reassembly loop the daemon runs per
// connection -- these sit on every message, so they must stay far below
// campaign cost (a campaign routes hundreds of thousands of messages; the
// framing budget is microseconds).  The cache benchmarks put a number on
// the admission story: a cache hit hands back a shared PlanSwitch in one
// mutex acquisition, a cold miss pays the full compile+analysis, and the
// ratio is what multi-tenant sharing buys.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "serve/plan_cache.hpp"
#include "serve/protocol.hpp"
#include "switch/make_switch.hpp"

namespace {

namespace serve = pcs::serve;

serve::CampaignRequest sample_request() {
  serve::CampaignRequest req;
  req.tenant = "tenant0";
  req.family = "columnsort";
  req.n = 256;
  req.m = 192;
  req.beta = 0.6875;
  req.faults = "1:3,2:0";
  req.arrival = "bursty";
  req.load = 0.45;
  req.seed = 424242;
  req.lanes = 2;
  req.queue_depth = 8;
  req.policy = "drop";
  req.warmup_epochs = 4;
  req.measure_epochs = 32;
  req.drain_epochs_max = 100;
  return req;
}

pcs::SwitchSpec spec_for(std::size_t n) {
  pcs::SwitchSpec spec;
  spec.family = "revsort";
  spec.n = n;
  spec.m = n - n / 4;
  return spec;
}

void print_artifacts() {
  pcs::bench::artifact_header("S1", "serving-daemon hot paths");
  std::printf(
      "protocol: encode/decode of a fully-specified CampaignRequest plus the\n"
      "per-connection FrameReader loop (bytes_per_second is wire\n"
      "throughput).  cache: checkout on a warm key vs the cold\n"
      "compile+analysis it replaces -- the hit/cold ratio is what two\n"
      "tenants sharing one plan saves.\n");
}

void BM_ServeEncodeCampaignRequest(benchmark::State& state) {
  const serve::CampaignRequest req = sample_request();
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::vector<std::uint8_t> wire = serve::encode_campaign_request(req);
    bytes += wire.size();
    benchmark::DoNotOptimize(wire.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_ServeEncodeCampaignRequest);

void BM_ServeDecodeCampaignRequest(benchmark::State& state) {
  const std::vector<std::uint8_t> wire =
      serve::encode_campaign_request(sample_request());
  for (auto _ : state) {
    serve::Frame f = serve::decode_payload(wire.data() + 4, wire.size() - 4);
    benchmark::DoNotOptimize(f.campaign_request->seed);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(wire.size()));
}
BENCHMARK(BM_ServeDecodeCampaignRequest);

// The daemon's per-connection loop: feed a pipelined burst of frames into
// the reader and drain it, as read() chunks arrive.
void BM_ServeFrameReaderPipelined(benchmark::State& state) {
  const std::size_t frames = static_cast<std::size_t>(state.range(0));
  const std::vector<std::uint8_t> one =
      serve::encode_campaign_request(sample_request());
  std::vector<std::uint8_t> stream;
  stream.reserve(one.size() * frames);
  for (std::size_t i = 0; i < frames; ++i) {
    stream.insert(stream.end(), one.begin(), one.end());
  }
  for (auto _ : state) {
    serve::FrameReader reader;
    std::size_t seen = 0;
    // 4 KiB chunks: the order of magnitude a UDS read() hands back.
    for (std::size_t off = 0; off < stream.size(); off += 4096) {
      reader.feed(stream.data() + off, std::min<std::size_t>(
                                           4096, stream.size() - off));
      while (auto f = reader.next()) seen += (f->type == serve::MsgType::kCampaignRequest);
    }
    if (seen != frames) state.SkipWithError("frame loss");
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(stream.size()));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(frames));
}
BENCHMARK(BM_ServeFrameReaderPipelined)->Arg(64);

// Warm-key checkout: one mutex acquisition + shared_ptr copy.  This is the
// per-campaign overhead every admitted tenant pays after the first.
void BM_ServeCacheHit(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  serve::PlanCache cache(256u << 20);
  const pcs::SwitchSpec spec = spec_for(n);
  (void)cache.checkout(spec);  // warm
  for (auto _ : state) {
    serve::PlanCache::Checkout c = cache.checkout(spec);
    if (!c.hit) state.SkipWithError("expected a warm cache");
    benchmark::DoNotOptimize(c.sw.get());
  }
}
BENCHMARK(BM_ServeCacheHit)->Arg(1 << 10)->Arg(1 << 14);

// Cold compile at byte_budget=0 ("cache nothing"): the full
// compile+analysis a miss pays, i.e. what the hit path amortizes away.
void BM_ServeCacheColdCompile(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  serve::PlanCache cache(0);
  const pcs::SwitchSpec spec = spec_for(n);
  for (auto _ : state) {
    serve::PlanCache::Checkout c = cache.checkout(spec);
    if (c.hit) state.SkipWithError("budget 0 must never hit");
    benchmark::DoNotOptimize(c.sw.get());
  }
}
BENCHMARK(BM_ServeCacheColdCompile)->Arg(1 << 10)->Arg(1 << 14);

}  // namespace

PCS_BENCH_MAIN(print_artifacts)
