#include "fabric/fabric_sim.hpp"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <iomanip>
#include <sstream>
#include <string>
#include <utility>

#include "obs/trace.hpp"
#include "switch/make_switch.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace pcs::fabric {

namespace {

std::size_t default_epochs_in_flight() {
  const char* s = std::getenv("PCS_FABRIC_EPOCHS_IN_FLIGHT");
  if (s == nullptr || *s == '\0') return 1;
  char* end = nullptr;
  const unsigned long v = std::strtoul(s, &end, 10);
  PCS_REQUIRE(end != nullptr && *end == '\0' && v >= 1 && v <= 4096,
              "PCS_FABRIC_EPOCHS_IN_FLIGHT must be an integer in [1, 4096], "
              "got '" << s << "'");
  return static_cast<std::size_t>(v);
}

}  // namespace

FabricSim::FabricSim(FabricSpec spec, FabricOptions opts,
                     TrafficFactory traffic)
    : graph_(std::move(spec)),
      opts_(std::move(opts)),
      traffic_factory_(std::move(traffic)) {
  PCS_REQUIRE(opts_.queue_depth >= 1, "fabric queue_depth must be >= 1");
  // Every campaign runs at least epoch 0 on every hop, so the per-hop
  // series run() creates up front are exactly the ones the epochs touch.
  PCS_REQUIRE(opts_.measure_epochs >= 1, "fabric measure_epochs must be >= 1");
  PCS_REQUIRE(static_cast<bool>(traffic_factory_),
              "FabricSim needs a traffic factory");

  const FabricSpec& sp = graph_.spec();
  SwitchSpec healthy_spec = sp.node;
  healthy_spec.faults.clear();
  healthy_ = pcs::make_switch(healthy_spec);
  healthy_capacity_ = healthy_->guaranteed_capacity();
  // A healthy node that guarantees no message per epoch could never move
  // anything: refuse it here, where its plan compiles once.
  PCS_REQUIRE(healthy_capacity_ > 0,
              "FabricSpec.node: plan " << healthy_->name()
                  << " has zero guaranteed capacity (m="
                  << healthy_->outputs()
                  << ", epsilon=" << healthy_->epsilon_bound()
                  << "); the fabric would deadlock");
  if (!sp.node.faults.empty()) {
    // Only hop `fault_hop` routes the fault-rewritten plan.  Grant budgets
    // everywhere still come from healthy_capacity_: the faulted plan
    // advertises zero guaranteed capacity (epsilon = n), which is the right
    // *contract* but would deadlock the fabric as a *budget*; instead the
    // hop over-grants optimistically and accounts every dead-chip loss.
    faulted_ = pcs::make_switch(sp.node);
  }

  policy_ = make_route_policy(sp.route, sp.deflect_max);
  epochs_in_flight_ = opts_.epochs_in_flight != 0 ? opts_.epochs_in_flight
                                                  : default_epochs_in_flight();
  PCS_REQUIRE(epochs_in_flight_ >= 1,
              "fabric epochs_in_flight must be >= 1");

  // Queues and credits are campaign state: run() sizes them (reset_state),
  // so construction stays cheap and every campaign starts empty.
  const std::size_t r = graph_.radix();
  if (policy_->reads_costs()) voq_scratch_.resize(r);
  for (std::size_t k = 0; k < graph_.hops(); ++k) {
    for (std::size_t node = 0; node < graph_.nodes_at(k); ++node) {
      alloc_.push_back(make_allocator(sp.alloc, r, r));
    }
  }
}

void FabricSim::reset_state() {
  const std::size_t H = graph_.hops();
  const std::size_t r = graph_.radix();
  const std::size_t credits = graph_.spec().credits;
  source_q_.reset(graph_.sources(), opts_.queue_depth);
  hop_buf_.resize(H);
  credits_.resize(H >= 1 ? H - 1 : 0);
  for (std::size_t k = 0; k < H; ++k) {
    const std::size_t pools = graph_.nodes_at(k) * r;
    hop_buf_[k].voq.reset(pools * r, credits);
    hop_buf_[k].occupancy.assign(pools, 0);
    if (k + 1 < H) {
      credits_[k].assign(pools, static_cast<std::uint32_t>(credits));
    }
  }
  for (const std::unique_ptr<Allocator>& a : alloc_) a->reset();
}

std::string FabricSim::name() const {
  std::ostringstream os;
  os << graph_.name() << " of " << healthy_->name();
  if (faulted_) os << " [hop " << graph_.spec().fault_hop << " faulted]";
  return os.str();
}

std::string FabricSim::hop_metric(std::size_t hop, const char* leaf) const {
  // Zero-pad the hop index to the campaign's widest hop so deterministic
  // scrapes sort numerically (hop09 < hop10).  Fabrics of <= 10 hops keep
  // the legacy single-digit keys.
  std::size_t width = 1;
  for (std::size_t v = graph_.hops() - 1; v >= 10; v /= 10) ++width;
  std::ostringstream os;
  os << "fabric.hop" << std::setw(static_cast<int>(width))
     << std::setfill('0') << hop << "." << leaf;
  return os.str();
}

std::size_t FabricSim::in_flight() const {
  std::size_t n = 0;
  for (std::size_t g = 0; g < graph_.sources(); ++g) n += source_q_.size(g);
  for (const HopBuffers& hb : hop_buf_)
    for (const std::uint32_t occ : hb.occupancy) n += occ;
  return n;
}

void FabricSim::check_credit_mirror() const {
  // Credit-based flow control invariant: each channel's credit counter
  // mirrors the free space of the one downstream pool it feeds.
  const std::size_t r = graph_.radix();
  for (std::size_t k = 0; k + 1 < graph_.hops(); ++k) {
    for (std::size_t node = 0; node < graph_.nodes_at(k); ++node) {
      for (std::size_t d = 0; d < r; ++d) {
        const FabricGraph::Channel ch = graph_.channel(k, node, d);
        const std::uint32_t occupancy =
            hop_buf_[k + 1].occupancy[ch.node * r + ch.inlink];
        const std::uint32_t credit = credits_[k][node * r + d];
        PCS_REQUIRE(credit + occupancy == graph_.spec().credits,
                    "credit mirror broken on hop " << k << " node " << node
                        << " link " << d << ": credits=" << credit
                        << " occupancy=" << occupancy << " capacity="
                        << graph_.spec().credits);
      }
    }
  }
}

/// Mutable per-run accounting shared between the engines and the phase
/// helpers.  The per-epoch tally ring attributes deliveries and drops to
/// the epoch whose unit performed them, so the derived backlog
///   offered(<= e) - delivered(<= e) - dropped(<= e)
/// is identical under every schedule -- the pipelined engine records it
/// where the serial loop records the (then equal) structural in_flight().
struct FabricSim::EpochContext {
  std::size_t dispatches = 0;

  // Every series records into this campaign-local tally, registered once at
  // the start of run() and folded into the caller's registry by finish_run:
  // the epoch loop builds no key, takes no lock and touches no atomic.
  rt::CampaignTally series;
  struct HopSeries {
    std::uint64_t* granted = nullptr;
    std::uint64_t* credit_stalls = nullptr;
    rt::CampaignTally::Hist* occupancy = nullptr;
    rt::CampaignTally::Hist* latency = nullptr;
    std::uint64_t* accepted = nullptr;
    std::uint64_t* sent = nullptr;
    std::uint64_t* delivered = nullptr;
    std::uint64_t* dropped_fault = nullptr;
    // Optional series: folded only when nonzero, so a campaign that never
    // deflects keeps its scrape key set.
    std::uint64_t* deflections = nullptr;
    std::uint64_t* dropped_deflect = nullptr;
  };
  std::vector<HopSeries> hop;
  std::uint64_t* offered = nullptr;
  std::uint64_t* rejected = nullptr;
  std::uint64_t* delivered = nullptr;
  std::uint64_t* dropped = nullptr;
  rt::CampaignTally::Hist* latency = nullptr;
  rt::CampaignTally::Hist* backlog = nullptr;

  // Buffers recycled across epochs: one node's allocation problem and its
  // grants, the masks of one route_batch dispatch, and the routed-input
  // masks it returns per switch kind (healthy, faulted) -- a unit's resolve
  // reads its slice of the latter.
  AllocProblem problem;
  std::vector<std::uint32_t> grants;
  std::vector<BitVec> batch;
  std::array<std::vector<BitVec>, 2> routed;

  // Whole-campaign tallies (mirrored into total.* at every epoch check).
  std::uint64_t total_offered = 0;
  std::uint64_t total_delivered = 0;
  std::uint64_t total_dropped = 0;

  // Per-epoch attribution: epoch e's {delivered, dropped} lives in
  // epoch_tally[e % size] until epoch_bookkeeping folds it into the cum_*
  // prefixes.  Units run at most epochs_in_flight epochs past the fold
  // point, so a ring of epochs_in_flight + 1 entries never wraps onto a
  // live one.
  std::size_t tally_base = 0;
  std::vector<std::array<std::uint64_t, 2>> epoch_tally;
  std::uint64_t cum_delivered = 0;
  std::uint64_t cum_dropped = 0;

  std::array<std::uint64_t, 2>& tally_for(std::size_t epoch) {
    PCS_REQUIRE(epoch >= tally_base && epoch - tally_base < epoch_tally.size(),
                "fabric tally for an epoch outside the ring");
    return epoch_tally[epoch % epoch_tally.size()];
  }
};

/// One (epoch, hop) stage: the allocator's grants as per-(node, out-link)
/// valid-bit patterns, and the routed-input masks that resolve them.  Slots
/// [0, patterns) hold the live stage; every slot keeps its buffers when the
/// unit is reset, so steady-state epochs rebuild nothing on the heap.
struct FabricSim::Unit {
  std::size_t epoch = 0;
  std::size_t hop = 0;
  std::size_t patterns = 0;

  struct Pattern {
    std::size_t node = 0;
    std::size_t d = 0;
    /// (input port, in-link) in ascending port order so resolution pops
    /// VOQ fronts in grant order.
    std::vector<std::pair<std::size_t, std::size_t>> ports;
  };
  std::vector<Pattern> meta;
  std::vector<BitVec> valids;
  /// routed[i] resolves valids[i]: the unit's slice of a dispatch's masks.
  const BitVec* routed = nullptr;

  void reset(std::size_t e, std::size_t k) {
    epoch = e;
    hop = k;
    patterns = 0;
  }

  /// Slot `patterns`, cleared to no ports and zero bits (a new slot gets
  /// `wires` of them).  The caller keeps it by bumping `patterns`.
  Pattern& open_slot(std::size_t wires) {
    if (meta.size() == patterns) {
      meta.emplace_back();
      valids.emplace_back(wires);
    }
    Pattern& pat = meta[patterns];
    pat.ports.clear();
    valids[patterns].fill(false);
    return pat;
  }

  /// Swap the live masks onto the end of a dispatch batch, and back after
  /// the dispatch from batch[at, at + patterns): the masks move without
  /// being freed or copied.
  void lend_valids(std::vector<BitVec>& batch) {
    for (std::size_t i = 0; i < patterns; ++i) {
      batch.emplace_back();
      std::swap(batch.back(), valids[i]);
    }
  }
  void reclaim_valids(std::vector<BitVec>& batch, std::size_t at) {
    for (std::size_t i = 0; i < patterns; ++i) std::swap(valids[i], batch[at + i]);
  }
};

void FabricSim::alloc_unit(Unit& u, EpochContext& ctx) {
  const std::size_t hop = u.hop;
  const std::size_t r = graph_.radix();
  const std::size_t H = graph_.hops();
  const bool last = hop + 1 == H;
  const std::size_t nodes = graph_.nodes_at(hop);

  const EpochContext::HopSeries& series = ctx.hop[hop];
  std::uint64_t& granted_ctr = *series.granted;
  std::uint64_t& stalls_ctr = *series.credit_stalls;
  rt::CampaignTally::Hist& occ_hist = *series.occupancy;
  const HopBuffers& hb = hop_buf_[hop];

  obs::SpanGuard alloc_span("fabric.alloc", obs::cat::kRuntime);
  alloc_span.arg("hop", hop);
  AllocProblem& problem = ctx.problem;
  problem.ins = r;
  problem.outs = r;
  std::vector<std::uint32_t>& grants = ctx.grants;
  for (std::size_t node = 0; node < nodes; ++node) {
    problem.queued.assign(r * r, 0);
    problem.cap_in.assign(r, static_cast<std::uint32_t>(graph_.in_block()));
    problem.cap_out.assign(r, 0);
    bool any = false;
    for (std::size_t e = 0; e < r; ++e) {
      const std::size_t pool = node * r + e;
      occ_hist.record(hb.occupancy[pool]);
      for (std::size_t d = 0; d < r; ++d) {
        const std::size_t q = hb.voq.size(pool * r + d);
        problem.queued[e * r + d] = static_cast<std::uint32_t>(q);
        if (q > 0) any = true;
      }
    }
    if (!any) continue;
    for (std::size_t d = 0; d < r; ++d) {
      // Column budget: the out-block's wire count, the healthy plan's
      // guaranteed concentration capacity, and (between hops) the
      // channel's remaining credits.  Never the faulted capacity -- see
      // the constructor comment.
      std::size_t cap = std::min(graph_.out_block(), healthy_capacity_);
      if (!last) {
        const std::uint32_t credit = credits_[hop][node * r + d];
        if (credit < cap) cap = credit;
        if (cap == 0) {
          // Backpressure: traffic wants this link but credits gate it.
          bool wants = false;
          for (std::size_t e = 0; e < r && !wants; ++e) {
            wants = problem.queued[e * r + d] > 0;
          }
          if (wants) {
            ++stalls_ctr;
            PCS_TRACE_COUNTER("fabric.credit_stalls", 1);
          }
        }
      }
      problem.cap_out[d] = static_cast<std::uint32_t>(cap);
    }
    const std::size_t total =
        alloc_[hop * nodes + node]->allocate(problem, grants);
    if (opts_.check_invariants) {
      for (std::size_t e = 0; e < r; ++e) {
        std::uint32_t row = 0;
        for (std::size_t d = 0; d < r; ++d) {
          PCS_REQUIRE(grants[e * r + d] <= problem.queued[e * r + d],
                      "allocator granted beyond VOQ occupancy");
          row += grants[e * r + d];
        }
        PCS_REQUIRE(row <= problem.cap_in[e], "allocator row budget broken");
      }
      for (std::size_t d = 0; d < r; ++d) {
        std::uint32_t col = 0;
        for (std::size_t e = 0; e < r; ++e) col += grants[e * r + d];
        PCS_REQUIRE(col <= problem.cap_out[d],
                    "allocator column budget broken");
      }
    }
    if (total == 0) continue;
    granted_ctr += total;
    const sw::ConcentratorSwitch& node_switch =
        (faulted_ && hop == graph_.spec().fault_hop) ? *faulted_ : *healthy_;
    for (std::size_t d = 0; d < r; ++d) {
      Unit::Pattern& pat = u.open_slot(node_switch.inputs());
      pat.node = node;
      pat.d = d;
      BitVec& valid = u.valids[u.patterns];
      for (std::size_t e = 0; e < r; ++e) {
        const std::uint32_t g = grants[e * r + d];
        for (std::uint32_t rank = 0; rank < g; ++rank) {
          const std::size_t port = e * graph_.in_block() + rank;
          valid.mark(port);
          pat.ports.emplace_back(port, e);
        }
      }
      if (!pat.ports.empty()) ++u.patterns;
    }
  }
}

RouteChoice FabricSim::choose_entry(std::size_t hop, std::size_t node,
                                    std::size_t pool, const Msg& msg) {
  RouteContext rc;
  rc.hop = hop;
  rc.node = node;
  rc.dest = msg.dest;
  rc.deflections = msg.deflections;
  const std::size_t r = graph_.radix();
  if (hop + 1 < graph_.hops()) rc.credits = credits_[hop].data() + node * r;
  if (policy_->reads_costs()) {
    for (std::size_t d = 0; d < r; ++d) {
      voq_scratch_[d] =
          static_cast<std::uint32_t>(hop_buf_[hop].voq.size(pool * r + d));
    }
    rc.voq_depth = voq_scratch_.data();
  }
  return policy_->choose(graph_, rc);
}

void FabricSim::resolve_unit(Unit& u, EpochContext& ctx) {
  const std::size_t hop = u.hop;
  const std::size_t r = graph_.radix();
  const bool last = hop + 1 == graph_.hops();
  const bool hop_faulted = faulted_ && hop == graph_.spec().fault_hop;

  EpochContext::HopSeries& series = ctx.hop[hop];
  rt::CampaignTally::Hist& hop_lat = *series.latency;
  std::uint64_t& sent_ctr = *series.sent;
  std::uint64_t& hop_delivered = *series.delivered;
  std::uint64_t& fault_drops = *series.dropped_fault;
  std::uint64_t& delivered = *ctx.delivered;
  std::uint64_t& dropped = *ctx.dropped;
  rt::CampaignTally::Hist& latency = *ctx.latency;
  HopBuffers& hb = hop_buf_[hop];

  for (std::size_t i = 0; i < u.patterns; ++i) {
    const Unit::Pattern& pat = u.meta[i];
    const BitVec& routed = u.routed[i];
    for (const auto& [port, e] : pat.ports) {
      const std::size_t pool = pat.node * r + e;
      const std::size_t voq = pool * r + pat.d;
      PCS_REQUIRE(!hb.voq.empty(voq),
                  "granted VOQ drained out from under the resolver");
      Msg msg = hb.voq.pop(voq);
      --hb.occupancy[pool];
      if (hop > 0) {
        // Departing the pool frees one slot: return the credit to the one
        // upstream channel that feeds this in-link.
        const FabricGraph::Upstream up = graph_.upstream(hop, pat.node, e);
        ++credits_[hop - 1][up.node * r + up.link];
      }
      if (!routed.test(port)) {
        // Grant budgets never exceed the healthy guaranteed capacity, so an
        // unrouted grant is only legal where dead chips can eat messages.
        PCS_REQUIRE(hop_faulted,
                    "healthy hop " << hop << " failed to route a granted "
                        "message within its guaranteed capacity (node "
                        << pat.node << ", link " << pat.d << ")");
        ++fault_drops;
        ++ctx.total_dropped;
        ++ctx.tally_for(u.epoch)[1];
        if (msg.measured) ++dropped;
        continue;
      }
      hop_lat.record(u.epoch - msg.hop_entered);
      if (last) {
        const std::size_t sink = pat.node * r + pat.d;
        PCS_REQUIRE(sink == msg.dest,
                    "fabric misdelivery: sink " << sink << " != dest "
                        << msg.dest << " (hop " << hop << ", node "
                        << pat.node << ")");
        ++hop_delivered;
        ++ctx.total_delivered;
        ++ctx.tally_for(u.epoch)[0];
        if (msg.measured) {
          ++delivered;
          latency.record(u.epoch - msg.born);
        }
      } else {
        const FabricGraph::Channel ch = graph_.channel(hop, pat.node, pat.d);
        const std::size_t down_pool = ch.node * r + ch.inlink;
        const RouteChoice choice =
            choose_entry(hop + 1, ch.node, down_pool, msg);
        EpochContext::HopSeries& next = ctx.hop[hop + 1];
        ++sent_ctr;
        ++*next.accepted;
        if (choice.drop) {
          // Entry refusal: off every minimal path with the deflection
          // budget spent (or a last hop it can never eject from) -- the
          // accounted livelock-protection path.  No credit or pool slot is
          // consumed downstream.
          ++*next.dropped_deflect;
          ++ctx.total_dropped;
          ++ctx.tally_for(u.epoch)[1];
          if (msg.measured) ++dropped;
          continue;
        }
        PCS_REQUIRE(credits_[hop][pat.node * r + pat.d] > 0,
                    "fabric sent beyond the channel's credits");
        --credits_[hop][pat.node * r + pat.d];
        if (choice.deflected) {
          ++*next.deflections;
          PCS_TRACE_COUNTER("fabric.deflections", 1);
          ++msg.deflections;
        }
        msg.hop_entered = static_cast<std::uint32_t>(u.epoch);
        HopBuffers& down = hop_buf_[hop + 1];
        down.voq.push(down_pool * r + choice.link, msg);
        ++down.occupancy[down_pool];
      }
    }
  }
}

void FabricSim::serve_hop_serial(Unit& u, std::size_t hop, std::size_t epoch,
                                 EpochContext& ctx) {
  obs::SpanGuard hop_span("fabric.hop", obs::cat::kRuntime);
  hop_span.arg("hop", hop);

  u.reset(epoch, hop);
  alloc_unit(u, ctx);
  if (u.patterns == 0) return;

  // All of the hop's per-output-group patterns resolve in ONE batched
  // dispatch through the plan executor -- the fabric keeps the
  // one-dispatch-per-hop-per-epoch discipline of the single-switch runtime.
  const bool hop_faulted = faulted_ && hop == graph_.spec().fault_hop;
  const sw::ConcentratorSwitch& node_switch =
      hop_faulted ? *faulted_ : *healthy_;
  {
    obs::SpanGuard route_span("fabric.route", obs::cat::kRuntime);
    route_span.arg("hop", hop);
    route_span.arg("patterns", u.patterns);
    ctx.batch.clear();
    u.lend_valids(ctx.batch);
    std::vector<BitVec>& routed = ctx.routed[hop_faulted ? 1 : 0];
    node_switch.route_batch_mask(ctx.batch, routed);
    u.reclaim_valids(ctx.batch, 0);
    u.routed = routed.data();
    ++ctx.dispatches;
  }

  obs::SpanGuard resolve_span("fabric.resolve", obs::cat::kRuntime);
  resolve_span.arg("hop", hop);
  resolve_unit(u, ctx);
}

void FabricSim::move_source_heads(std::size_t epoch, EpochContext& ctx) {
  const std::size_t r = graph_.radix();
  EpochContext::HopSeries& hop0 = ctx.hop[0];
  HopBuffers& hb = hop_buf_[0];
  // Source-queue heads enter hop 0 when its pool has a free slot: VOQ
  // occupancy gates injection just as credits gate the inner hops.  Source
  // g feeds hop 0's pool g (node g / r, in-link g % r).
  for (std::size_t g = 0; g < graph_.sources(); ++g) {
    if (source_q_.empty(g)) continue;
    if (hb.occupancy[g] >= graph_.spec().credits) continue;
    Msg msg = source_q_.pop(g);
    const RouteChoice choice = choose_entry(0, g / r, g, msg);
    // Every topology reaches every sink from hop 0, so injection can
    // never be refused -- only steered (or, when starved, deflected).
    PCS_REQUIRE(!choice.drop, "route policy refused an injection");
    if (choice.deflected) {
      ++*hop0.deflections;
      PCS_TRACE_COUNTER("fabric.deflections", 1);
      ++msg.deflections;
    }
    msg.hop_entered = static_cast<std::uint32_t>(epoch);
    hb.voq.push(g * r + choice.link, msg);
    ++hb.occupancy[g];
    ++*hop0.accepted;
  }
}

void FabricSim::admit_arrivals(std::size_t epoch, bool in_measure,
                               EpochContext& ctx, Rng& rng,
                               traffic::TrafficSource& traffic) {
  std::uint64_t& offered = *ctx.offered;
  std::uint64_t& rejected = *ctx.rejected;
  std::uint64_t& dropped = *ctx.dropped;
  const BitVec arrivals = traffic.next_valid(rng);
  for_each_set_bit(arrivals, [&](std::size_t g) {
    ++ctx.total_offered;
    if (in_measure) ++offered;
    if (source_q_.full(g)) {
      // Door rejection: the bounded injection queue is full.
      ++ctx.total_dropped;
      ++ctx.tally_for(epoch)[1];
      ++rejected;
      if (in_measure) ++dropped;
      return;
    }
    Msg msg;
    // The destination draw happens only for accepted arrivals, after the
    // queue-depth gate, so uniform sources replay the legacy rng stream
    // bit for bit while permutation patterns consume no randomness here.
    msg.dest = traffic.dest_for(rng, g, graph_.sinks());
    msg.born = static_cast<std::uint32_t>(epoch);
    msg.measured = in_measure;
    source_q_.push(g, msg);
  });
}

std::uint64_t FabricSim::epoch_bookkeeping(std::size_t epoch, bool in_measure,
                                           EpochContext& ctx) {
  // Fold this epoch's attributed tally into the prefix sums.  Units of
  // later epochs may already have run under the pipelined schedule; their
  // tallies stay in the ring until their own injection completes.
  PCS_REQUIRE(epoch == ctx.tally_base, "fabric epochs folded out of order");
  std::array<std::uint64_t, 2>& done = ctx.tally_for(epoch);
  ctx.cum_delivered += done[0];
  ctx.cum_dropped += done[1];
  done = {0, 0};
  ++ctx.tally_base;
  // The derived backlog: offered, delivered, and dropped are all attributed
  // to epochs <= `epoch` now, so this equals the serial loop's structural
  // in_flight() at this very point regardless of the schedule.
  const std::uint64_t backlog =
      ctx.total_offered - ctx.cum_delivered - ctx.cum_dropped;
  if (in_measure) ctx.backlog->record(backlog);
  // Per-epoch conservation: nothing is created or destroyed untallied.
  // The structural identity holds between any two units on this thread.
  PCS_REQUIRE(ctx.total_offered ==
                  ctx.total_delivered + ctx.total_dropped + in_flight(),
              "fabric conservation broken at epoch "
                  << epoch << ": offered " << ctx.total_offered
                  << " != delivered " << ctx.total_delivered << " + dropped "
                  << ctx.total_dropped << " + in-flight " << in_flight());
  if (opts_.check_invariants) check_credit_mirror();
  return backlog;
}

rt::RuntimeReport FabricSim::run(rt::MetricsRegistry& metrics) {
  Rng rng(opts_.seed);
  std::unique_ptr<traffic::TrafficSource> traffic =
      traffic_factory_(graph_.sources());
  PCS_REQUIRE(traffic && traffic->width() == graph_.sources(),
              "fabric traffic generator width must equal sources()="
                  << graph_.sources());

  // Every campaign starts from empty queues, full credits and fresh
  // allocator pointers, whatever an earlier run() left behind.
  reset_state();

  // Campaign-wide series exist even when zero (stable scrape key set), and
  // the per-hop ones are the series epoch 0 touches on every hop.
  EpochContext ctx;
  ctx.epoch_tally.assign(epochs_in_flight_ + 1, {0, 0});
  rt::CampaignTally& series = ctx.series;
  ctx.offered = &series.counter("offered");
  ctx.rejected = &series.counter("rejected_queue_full");
  ctx.delivered = &series.counter("delivered");
  ctx.dropped = &series.counter("dropped");
  ctx.latency = &series.histogram("latency_epochs");
  ctx.backlog = &series.histogram("backlog");
  ctx.hop.resize(graph_.hops());
  for (std::size_t k = 0; k < graph_.hops(); ++k) {
    EpochContext::HopSeries& h = ctx.hop[k];
    h.granted = &series.counter(hop_metric(k, "granted"));
    h.credit_stalls = &series.counter(hop_metric(k, "credit_stalls"));
    h.occupancy = &series.histogram(hop_metric(k, "occupancy"));
    h.latency = &series.histogram(hop_metric(k, "latency_epochs"));
    h.accepted = &series.counter(hop_metric(k, "accepted"));
    h.sent = &series.counter(hop_metric(k, "sent"));
    h.delivered = &series.counter(hop_metric(k, "delivered"));
    h.dropped_fault = &series.counter(hop_metric(k, "dropped.fault"));
    h.deflections = &series.optional_counter(hop_metric(k, "deflections"));
    h.dropped_deflect =
        &series.optional_counter(hop_metric(k, "dropped.deflect"));
  }

  return epochs_in_flight_ == 1 ? run_serial(metrics, ctx, rng, *traffic)
                                : run_pipelined(metrics, ctx, rng, *traffic);
}

rt::RuntimeReport FabricSim::run_serial(rt::MetricsRegistry& metrics,
                                        EpochContext& ctx, Rng& rng,
                                        traffic::TrafficSource& traffic) {
  const std::size_t measure_end = opts_.warmup_epochs + opts_.measure_epochs;
  rt::RuntimeReport report;
  std::vector<Unit> units(graph_.hops());  // one per hop, recycled
  std::size_t epoch = 0;
  while (true) {
    const bool in_measure =
        epoch >= opts_.warmup_epochs && epoch < measure_end;
    const bool in_drain = epoch >= measure_end;
    if (in_drain) {
      if (in_flight() == 0) {
        report.drained = true;
        break;
      }
      if (epoch - measure_end >= opts_.drain_epochs_max) {
        report.saturated = true;
        break;
      }
      // Same commit-to-execute drain accounting as FabricRuntime::run.
      ++report.drain_epochs_used;
    }

    obs::SpanGuard epoch_span("fabric.epoch", obs::cat::kRuntime);
    epoch_span.arg("epoch", epoch);

    for (std::size_t k = graph_.hops(); k-- > 0;)
      serve_hop_serial(units[k], k, epoch, ctx);

    move_source_heads(epoch, ctx);
    if (!in_drain) admit_arrivals(epoch, in_measure, ctx, rng, traffic);
    epoch_bookkeeping(epoch, in_measure, ctx);
    ++epoch;
  }
  return finish_run(report, ctx, metrics);
}

rt::RuntimeReport FabricSim::run_pipelined(rt::MetricsRegistry& metrics,
                                           EpochContext& ctx, Rng& rng,
                                           traffic::TrafficSource& traffic) {
  const std::size_t H = graph_.hops();
  const std::size_t E = epochs_in_flight_;
  const std::size_t measure_end = opts_.warmup_epochs + opts_.measure_epochs;
  rt::RuntimeReport report;

  std::uint64_t& merged_ctr = ctx.series.counter("fabric.pipeline.dispatches");
  rt::CampaignTally::Hist& wave_hist =
      ctx.series.histogram("fabric.pipeline.wave_units");

  // Per-hop sequence tickets: rc[k] = epochs hop k has fully resolved, so
  // hop k's next unit serves epoch rc[k].  `injected` counts epochs whose
  // injection + bookkeeping completed; the dependency structure guarantees
  // every unit of those epochs resolved first.
  std::vector<std::size_t> rc(H, 0);
  std::size_t injected = 0;
  std::size_t opened = 0;
  bool stop_opening = false;

  std::vector<Unit> units;
  std::vector<std::size_t> batch_at;  // units[i]'s first slot in ctx.batch
  while (true) {
    // Open epochs: warmup/measure epochs freely up to E in flight; drain
    // epochs one at a time, each gated on the previous epoch's completion
    // (the continue-draining decision needs the exact backlog).
    while (!stop_opening && opened - injected < E) {
      if (opened >= measure_end) {
        if (injected < opened) break;
        const std::uint64_t backlog =
            ctx.total_offered - ctx.cum_delivered - ctx.cum_dropped;
        if (backlog == 0) {
          report.drained = true;
          stop_opening = true;
          break;
        }
        if (opened - measure_end >= opts_.drain_epochs_max) {
          report.saturated = true;
          stop_opening = true;
          break;
        }
        ++report.drain_epochs_used;
      }
      ++opened;
    }
    if (injected == opened) {
      PCS_REQUIRE(stop_opening, "fabric pipeline stalled with no open epoch");
      break;
    }

    // Collect the ready wavefront: hop k is ready for epoch e = rc[k] when
    // the same epoch resolved downstream (credits returned), the previous
    // epoch resolved upstream (pools filled), and the previous epoch
    // resolved here (allocator/pool sequence ticket).  Ready units always
    // carry distinct epochs spaced two hops apart -- except for policies
    // that read live costs: resolving unit(e, k) reads credits_[k + 1]
    // (pool-entry choice at hop k + 1), which unit(e + 1, k + 2)'s credit
    // returns would mutate ahead of serial order, so cost-reading policies
    // additionally wait for hop k - 2 (three-hop spacing).  Either way the
    // shared-state access order equals the serial loop's, which is what
    // makes campaign counters independent of epochs_in_flight.
    const bool strict = policy_->reads_costs();
    // Collect ascending by hop.  rc[] is monotone non-decreasing in k (hop k
    // only advances while rc[k + 1] > rc[k]), and readiness at hop k demands
    // rc[k + 1] > rc[k], so ascending hop order IS ascending epoch order --
    // the wave comes out sorted for free.  Unit slots (and their inner
    // vectors' capacity) are recycled across waves.
    std::size_t n_units = 0;
    for (std::size_t k = 0; k < H; ++k) {
      const std::size_t e = rc[k];
      if (e >= opened) continue;
      if (k + 1 < H && rc[k + 1] <= e) continue;
      if (k == 0 ? injected < e : rc[k - 1] < e) continue;
      if (strict && k >= 1 && (k >= 2 ? rc[k - 2] < e : injected < e))
        continue;
      if (units.size() <= n_units) units.emplace_back();
      units[n_units++].reset(e, k);
    }
    PCS_REQUIRE(n_units > 0, "fabric pipeline made no progress");

    obs::SpanGuard wave_span("fabric.wave", obs::cat::kRuntime);
    wave_span.arg("units", n_units);
    wave_hist.record(n_units);
    PCS_TRACE_COUNTER("fabric.pipeline.wave", n_units);

    for (std::size_t i = 0; i < n_units; ++i) alloc_unit(units[i], ctx);

    // Fuse the wave's dispatches: every ready unit routing the same switch
    // shares ONE route_batch call, widening the executor's 64-pattern word
    // lanes across epochs.  Patterns are routed independently inside the
    // batch, so the fused results are bit-identical to per-unit dispatches.
    batch_at.resize(n_units);
    for (const bool faulted_kind : {false, true}) {
      std::vector<BitVec>& batch = ctx.batch;
      batch.clear();
      std::size_t member_units = 0;
      for (std::size_t i = 0; i < n_units; ++i) {
        Unit& u = units[i];
        if (u.patterns == 0) continue;
        const bool hop_faulted = faulted_ && u.hop == graph_.spec().fault_hop;
        if (hop_faulted != faulted_kind) continue;
        batch_at[i] = batch.size();
        u.lend_valids(batch);
        ++member_units;
      }
      if (batch.empty()) continue;
      const sw::ConcentratorSwitch& node_switch =
          faulted_kind ? *faulted_ : *healthy_;
      std::vector<BitVec>& routed = ctx.routed[faulted_kind ? 1 : 0];
      {
        obs::SpanGuard route_span("fabric.route", obs::cat::kRuntime);
        route_span.arg("patterns", batch.size());
        route_span.arg("units", member_units);
        node_switch.route_batch_mask(batch, routed);
        ++merged_ctr;
      }
      for (std::size_t i = 0; i < n_units; ++i) {
        Unit& u = units[i];
        if (u.patterns == 0) continue;
        const bool hop_faulted = faulted_ && u.hop == graph_.spec().fault_hop;
        if (hop_faulted != faulted_kind) continue;
        const std::size_t base = batch_at[i];
        u.reclaim_valids(batch, base);
        u.routed = routed.data() + base;
        ++ctx.dispatches;  // one logical dispatch per unit, serial parity
      }
    }

    for (std::size_t i = 0; i < n_units; ++i) {
      Unit& u = units[i];
      if (u.patterns > 0) {
        obs::SpanGuard resolve_span("fabric.resolve", obs::cat::kRuntime);
        resolve_span.arg("hop", u.hop);
        resolve_span.arg("epoch", u.epoch);
        resolve_unit(u, ctx);
      }
      rc[u.hop] = u.epoch + 1;
    }

    // Injection + bookkeeping for every epoch whose hop-0 unit resolved.
    while (injected < opened && rc[0] > injected) {
      const std::size_t e = injected;
      const bool in_measure =
          e >= opts_.warmup_epochs && e < measure_end;
      move_source_heads(e, ctx);
      if (e < measure_end) admit_arrivals(e, in_measure, ctx, rng, traffic);
      epoch_bookkeeping(e, in_measure, ctx);
      ++injected;
    }
  }

  metrics.gauge("fabric.pipeline.epochs_in_flight")
      .set(static_cast<double>(E));
  return finish_run(report, ctx, metrics);
}

rt::RuntimeReport FabricSim::finish_run(rt::RuntimeReport report,
                                        EpochContext& ctx,
                                        rt::MetricsRegistry& metrics) {
  // Residual backlog: messages still queued at exit, an explicit term of
  // the conservation identity (nonzero exactly when saturated).
  std::size_t residual = 0;
  std::size_t residual_measured = 0;
  auto tally = [&](const RingQueues<Msg>& queues, std::size_t q) {
    residual += queues.size(q);
    for (std::size_t k = 0; k < queues.size(q); ++k) {
      residual_measured += queues.at(q, k).measured ? 1 : 0;
    }
  };
  for (std::size_t g = 0; g < graph_.sources(); ++g) tally(source_q_, g);
  const std::size_t r = graph_.radix();
  for (std::size_t k = 0; k < graph_.hops(); ++k) {
    const HopBuffers& hb = hop_buf_[k];
    std::size_t hop_residual = 0;
    for (std::size_t q = 0; q < hb.occupancy.size() * r; ++q) {
      hop_residual += hb.voq.size(q);
      tally(hb.voq, q);
    }
    metrics.gauge(hop_metric(k, "residual"))
        .set(static_cast<double>(hop_residual));
    // Per-hop conservation: everything a hop accepted either moved on,
    // ejected, died on a dead chip, was reclaimed off-path, or is still
    // buffered here.
    const EpochContext::HopSeries& h = ctx.hop[k];
    const std::uint64_t out =
        *h.sent + *h.delivered + *h.dropped_fault + *h.dropped_deflect;
    PCS_REQUIRE(*h.accepted == out + hop_residual,
                "fabric hop " << k << " accounting broken: accepted "
                    << *h.accepted << " != forwarded+delivered+dropped " << out
                    << " + residual " << hop_residual);
  }
  report.residual_backlog = residual;

  PCS_REQUIRE(ctx.total_offered ==
                  ctx.total_delivered + ctx.total_dropped + residual,
              "fabric conservation broken at exit: offered "
                  << ctx.total_offered << " != delivered "
                  << ctx.total_delivered << " + dropped " << ctx.total_dropped
                  << " + residual " << residual);
  PCS_REQUIRE(report.drained == (residual == 0),
              "drained flag disagrees with residual " << residual);

  ctx.series.fold_into(metrics);
  metrics.counter("total.offered").add(ctx.total_offered);
  metrics.counter("total.delivered").add(ctx.total_delivered);
  metrics.counter("total.dropped").add(ctx.total_dropped);
  metrics.counter("total.residual").add(residual);
  metrics.counter("residual").add(residual_measured);
  metrics.counter("route_batch_dispatches").add(ctx.dispatches);
  metrics.counter("epochs.warmup").add(opts_.warmup_epochs);
  metrics.counter("epochs.measure").add(opts_.measure_epochs);
  metrics.counter("epochs.drain").add(report.drain_epochs_used);

  // Gauges read the registry, so a registry shared across campaigns reports
  // its running totals.
  const rt::Counter& delivered = metrics.counter("delivered");
  const rt::Histogram& latency = metrics.histogram("latency_epochs");
  const double measured_offered =
      static_cast<double>(metrics.counter("offered").value());
  metrics.gauge("delivery_rate")
      .set(measured_offered > 0
               ? static_cast<double>(delivered.value()) / measured_offered
               : 0.0);
  metrics.gauge("mean_latency_epochs").set(latency.mean());
  metrics.gauge("throughput_per_epoch")
      .set(opts_.measure_epochs > 0
               ? static_cast<double>(delivered.value()) /
                     static_cast<double>(opts_.measure_epochs)
               : 0.0);
  metrics.gauge("offered_load")
      .set(opts_.measure_epochs > 0
               ? measured_offered /
                     (static_cast<double>(opts_.measure_epochs) *
                      static_cast<double>(graph_.sources()))
               : 0.0);
  metrics.gauge("backlog.residual").set(static_cast<double>(residual));
  metrics.gauge("saturated").set(report.saturated ? 1.0 : 0.0);
  metrics.gauge("fabric.hops").set(static_cast<double>(graph_.hops()));
  metrics.gauge("fabric.nodes").set(static_cast<double>(graph_.total_nodes()));
  metrics.gauge("fabric.sources").set(static_cast<double>(graph_.sources()));
  metrics.gauge("fabric.sinks").set(static_cast<double>(graph_.sinks()));
  return report;
}

}  // namespace pcs::fabric
