#include "plan/plan_executor.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#define PCS_PLAN_CHIP_AVX512 1
#include <immintrin.h>
#endif

#include "obs/trace.hpp"
#include "plan/counting_kernels.hpp"
#include "sortnet/lane_batch.hpp"
#include "util/assert.hpp"
#include "util/mathutil.hpp"
#include "util/parallel.hpp"

namespace pcs::plan {

namespace {

// ---------------------------------------------------------------------------
// Fused chip kernels: evaluate one chip by reading straight through the
// analyzed inbound gather.  The intermediate gathered vector of a two-pass
// interpreter is never materialized -- a chip's concentrate is one
// gather+compress over its pin window.  Constant idle/pad feeds were
// remapped onto sentinel state slots by the analysis pass, so the gathers
// are unconditional.
// ---------------------------------------------------------------------------

/// Identity link: the chip's pins are already contiguous in `prev`.
std::size_t chip_copy_concentrate(const std::int32_t* in, std::size_t width,
                                  std::int32_t* out) {
  std::size_t fill = 0;
  for (std::size_t i = 0; i < width; ++i) {
    const std::int32_t v = in[i];
    if (v != kIdleLabel) out[fill++] = v;
  }
  return fill;
}

/// General / stride link: pin i of the chip reads prev[src[i]].
std::size_t chip_gather_concentrate(const std::int32_t* prev,
                                    const std::uint32_t* src,
                                    std::size_t width, std::int32_t* out) {
  std::size_t fill = 0;
  for (std::size_t i = 0; i < width; ++i) {
    const std::int32_t v = prev[src[i]];
    if (v != kIdleLabel) out[fill++] = v;
  }
  return fill;
}

#ifdef PCS_PLAN_CHIP_AVX512

__attribute__((target("avx512f")))
std::size_t chip_copy_concentrate_avx512(const std::int32_t* in,
                                         std::size_t width, std::int32_t* out) {
  const __m512i idlev = _mm512_set1_epi32(kIdleLabel);
  std::size_t fill = 0;
  for (std::size_t i = 0; i < width; i += 16) {
    const unsigned live =
        static_cast<unsigned>(std::min<std::size_t>(16, width - i));
    const __mmask16 mt = static_cast<__mmask16>((1u << live) - 1);
    const __m512i v = _mm512_maskz_loadu_epi32(mt, in + i);
    const __mmask16 occ = _mm512_mask_cmpneq_epi32_mask(mt, v, idlev);
    _mm512_mask_compressstoreu_epi32(out + fill, occ, v);
    fill += static_cast<std::size_t>(
        std::popcount(static_cast<unsigned>(occ)));
  }
  return fill;
}

__attribute__((target("avx512f")))
std::size_t chip_gather_concentrate_avx512(const std::int32_t* prev,
                                           const std::uint32_t* src,
                                           std::size_t width,
                                           std::int32_t* out) {
  const __m512i idlev = _mm512_set1_epi32(kIdleLabel);
  std::size_t fill = 0;
  for (std::size_t i = 0; i < width; i += 16) {
    const unsigned live =
        static_cast<unsigned>(std::min<std::size_t>(16, width - i));
    const __mmask16 mt = static_cast<__mmask16>((1u << live) - 1);
    const __m512i idx = _mm512_maskz_loadu_epi32(mt, src + i);
    const __m512i v = _mm512_mask_i32gather_epi32(idlev, mt, idx, prev, 4);
    const __mmask16 occ = _mm512_mask_cmpneq_epi32_mask(mt, v, idlev);
    _mm512_mask_compressstoreu_epi32(out + fill, occ, v);
    fill += static_cast<std::size_t>(
        std::popcount(static_cast<unsigned>(occ)));
  }
  return fill;
}

#endif  // PCS_PLAN_CHIP_AVX512

/// Fused stage evaluation: one gather+compress per chip, reading `prev`
/// through the analyzed link, then silence dead chips (after their
/// concentrate, before the outbound link -- matching the pre-plan fault
/// simulations exactly).  `span_name` is the stage's interned label; with
/// tracing enabled every chip evaluation (dead chips included -- they are
/// still wired hardware) gets one cat::kChip span under it.
void exec_stage_fused(const PlanStage& st, const LinkInfo& link,
                      const std::int32_t* prev, std::int32_t* next,
                      const char* span_name, bool simd) {
#ifndef PCS_PLAN_CHIP_AVX512
  (void)simd;
#endif
  const bool identity = link.kind == GatherKind::kIdentity;
  const std::uint32_t* src = identity ? nullptr : link.src.data();
  const auto eval_chip = [&](std::size_t c) {
    std::int32_t* out = next + c * st.width;
    std::size_t fill;
#ifdef PCS_PLAN_CHIP_AVX512
    if (simd) {
      fill = identity
                 ? chip_copy_concentrate_avx512(prev + c * st.width, st.width,
                                                out)
                 : chip_gather_concentrate_avx512(prev, src + c * st.width,
                                                  st.width, out);
    } else
#endif
    {
      fill = identity
                 ? chip_copy_concentrate(prev + c * st.width, st.width, out)
                 : chip_gather_concentrate(prev, src + c * st.width, st.width,
                                           out);
    }
    for (; fill < st.width; ++fill) out[fill] = kIdleLabel;
  };
  if (obs::Tracer::enabled()) {
    for (std::size_t c = 0; c < st.chips; ++c) {
      obs::SpanGuard span(span_name, obs::cat::kChip);
      span.arg("chip", c);
      eval_chip(c);
    }
    PCS_TRACE_COUNTER("plan.chips_evaluated", st.chips);
  } else {
    for (std::size_t c = 0; c < st.chips; ++c) eval_chip(c);
  }
  if (!st.dead.empty()) {
    for (std::size_t c = 0; c < st.chips; ++c) {
      if (st.dead[c]) {
        std::fill(next + c * st.width, next + (c + 1) * st.width, kIdleLabel);
      }
    }
  }
}

bool sequence_concentrated(const std::vector<std::int32_t>& seq) {
  bool seen_idle = false;
  for (std::int32_t s : seq) {
    if (s < 0) {
      seen_idle = true;
    } else if (seen_idle) {
      return false;
    }
  }
  return true;
}

/// Interned span name for one stage: its label, or "<plan><kind><idx>" when
/// a hand-built plan left the label empty.
const char* intern_stage_name(const SwitchPlan& plan, const PlanStage& st,
                              const char* kind, std::size_t idx) {
  if (!st.label.empty()) return obs::Tracer::instance().intern(st.label);
  return obs::Tracer::instance().intern(plan.name + kind + std::to_string(idx));
}

std::size_t routed_count_of(const sw::SwitchRouting& r) { return r.routed_count(); }
std::size_t routed_count_of(const BitVec& routed) { return routed.count(); }

}  // namespace

/// Kept across dispatches and grown to the largest switch the thread has
/// routed.  A batch chunk runs start to finish on one thread and never nests
/// another dispatch, so a chunk owns its thread's set for its whole run.
struct PlanExecutor::ThreadScratch {
  RevsortScratch revsort;
  ColumnsortScratch columnsort;
  StageScratch stage;
};

PlanExecutor::ThreadScratch& PlanExecutor::thread_scratch() {
  thread_local ThreadScratch scratch;
  return scratch;
}

PlanExecutor::PlanExecutor(SwitchPlan plan) : plan_(std::move(plan)) {
  plan_.validate();
  analysis_ = analyze_plan(plan_);
  fused_simd_ = cpu_has_avx512f();
  stage_span_names_.reserve(plan_.stages.size());
  for (std::size_t i = 0; i < plan_.stages.size(); ++i) {
    stage_span_names_.push_back(
        intern_stage_name(plan_, plan_.stages[i], "#s", i));
  }
  safety_span_names_.reserve(plan_.safety_stages.size());
  for (std::size_t i = 0; i < plan_.safety_stages.size(); ++i) {
    safety_span_names_.push_back(
        intern_stage_name(plan_, plan_.safety_stages[i], "#safety", i));
  }
  if (plan_.fast_path == FastPathKind::kRevsortCount) {
    PCS_REQUIRE(plan_.fp_side > 0 && is_pow2(plan_.fp_side) &&
                    plan_.fp_rev.size() == plan_.fp_side,
                "Revsort fast path parameters: side=" << plan_.fp_side
                                                      << " rev=" << plan_.fp_rev.size());
    fp_q_ = exact_log2(plan_.fp_side);
    // The vector kernels need whole valid-words per matrix column.
    fp_vectorize_ = cpu_has_avx512f() && plan_.fp_side >= 64;
  }
  if (plan_.fast_path == FastPathKind::kColumnsortCount) {
    PCS_REQUIRE(plan_.fp_r > 0 && plan_.fp_s > 0 &&
                    plan_.fp_r * plan_.fp_s == plan_.n && plan_.fp_r % plan_.fp_s == 0,
                "Columnsort fast path parameters: r=" << plan_.fp_r
                                                      << " s=" << plan_.fp_s);
  }

  // Lane-pipeline eligibility: the pipeline reads through the analysis
  // gather tables, so pad feeds, non-bijective links and width-changing
  // stages all batch.  It only refuses plans that might iterate their safety
  // net (fault-free plans with safety stages; faulty plans skip the net).
  lanes_eligible_ = plan_.safety_stages.empty() || !plan_.faults.empty();
}

const std::vector<std::int32_t>& PlanExecutor::run_stages(
    const BitVec& valid, StageScratch& scratch) const {
  PCS_REQUIRE(valid.size() == plan_.n, plan_.name << " width: pattern has "
                                                  << valid.size()
                                                  << " bits, switch has n=" << plan_.n);
  std::vector<std::int32_t>& state = scratch.state;
  std::vector<std::int32_t>& next = scratch.next;
  if (state.size() < analysis_.buf_slots) {
    state.resize(analysis_.buf_slots);
    next.resize(analysis_.buf_slots);
  }
  // Both buffers carry this plan's two sentinel slots past its widest
  // stage; the stage kernels only ever write [0, wires), so the pins survive
  // the swaps for the whole walk.  A scratch shared across plans re-pins
  // them per walk.
  state[analysis_.idle_slot] = next[analysis_.idle_slot] = kIdleLabel;
  state[analysis_.pad_slot] = next[analysis_.pad_slot] = kPadLabel;
  for (std::size_t x = 0; x < plan_.n; ++x) {
    state[x] = valid.get(x) ? static_cast<std::int32_t>(x) : kIdleLabel;
  }
  for (std::size_t k = 0; k < plan_.stages.size(); ++k) {
    obs::SpanGuard span(stage_span_names_[k], obs::cat::kStage);
    exec_stage_fused(plan_.stages[k], analysis_.links[k], state.data(),
                     next.data(), stage_span_names_[k], fused_simd_);
    state.swap(next);
  }
  const LinkInfo& ro = analysis_.readout;
  std::vector<std::int32_t>& seq = scratch.seq;
  auto read_out = [&] {
    seq.resize(plan_.n);
    for (std::size_t pos = 0; pos < plan_.n; ++pos) {
      const std::int32_t v = ro.kind == GatherKind::kIdentity
                                 ? state[pos]
                                 : state[ro.src[pos]];
      PCS_REQUIRE(v != kPadLabel,
                  plan_.name << ": pad escaped the shift window at pos=" << pos);
      seq[pos] = v;
    }
  };
  read_out();
  if (!plan_.safety_stages.empty() && plan_.faults.empty()) {
    // Safety net: the prescribed structure always fully sorts in practice;
    // if it ever did not, finish with additional sorting phases.
    std::size_t extra = 0;
    while (!sequence_concentrated(seq)) {
      for (std::size_t k = 0; k < plan_.safety_stages.size(); ++k) {
        obs::SpanGuard span(safety_span_names_[k], obs::cat::kStage);
        exec_stage_fused(plan_.safety_stages[k], analysis_.safety_links[k],
                         state.data(), next.data(), safety_span_names_[k],
                         fused_simd_);
        state.swap(next);
      }
      ++extra;
      PCS_TRACE_COUNTER("plan.safety_iterations", 1);
      PCS_REQUIRE(extra <= plan_.safety_limit,
                  plan_.name << " failed to converge");
      read_out();
    }
    extra_phases_.store(extra);
  } else if (plan_.fully_sorting && plan_.faults.empty()) {
    PCS_REQUIRE(sequence_concentrated(seq),
                plan_.name << " output not concentrated");
  }
  return seq;
}

template <class Out>
void PlanExecutor::route_with_scratch(const BitVec& valid, StageScratch& scratch,
                                      Out& out) const {
  const std::vector<std::int32_t>& seq = run_stages(valid, scratch);
  const auto sink = sink_for(out, plan_.n, plan_.m);
  sink.clear();
  std::uint64_t routed = 0;
  for (std::size_t pos = 0; pos < plan_.m; ++pos) {
    const std::int32_t src = seq[pos];
    if (src >= 0) {
      sink.hit(static_cast<std::uint32_t>(src), pos);
      ++routed;
    }
  }
  if (obs::Tracer::enabled()) {
    auto& tracer = obs::Tracer::instance();
    tracer.counter_add("plan.words_routed", routed);
    tracer.counter_add("plan.route.scalar", 1);
  }
}

sw::SwitchRouting PlanExecutor::route(const BitVec& valid) const {
  StageScratch scratch;
  sw::SwitchRouting out;
  route_with_scratch(valid, scratch, out);
  return out;
}

BitVec PlanExecutor::nearsorted_valid_bits(const BitVec& valid) const {
  StageScratch scratch;
  const std::vector<std::int32_t>& seq = run_stages(valid, scratch);
  BitVec out(plan_.n);
  for (std::size_t pos = 0; pos < plan_.n; ++pos) out.set(pos, seq[pos] >= 0);
  return out;
}

template <class Out>
void PlanExecutor::route_batch_into(const std::vector<BitVec>& valids,
                                    Out* out) const {
  const auto require_width = [&](std::size_t i) {
    PCS_REQUIRE(valids[i].size() == plan_.n,
                plan_.name << " route_batch width: pattern " << i << " of "
                           << valids.size() << " has " << valids[i].size()
                           << " bits, switch has n=" << plan_.n);
  };
  const auto trace_fastpath = [&](std::size_t lo, std::size_t hi) {
    if (!obs::Tracer::enabled()) return;
    std::uint64_t routed = 0;
    for (std::size_t i = lo; i < hi; ++i) routed += routed_count_of(out[i]);
    auto& tracer = obs::Tracer::instance();
    tracer.counter_add("plan.words_routed", routed);
    tracer.counter_add("plan.route.fastpath", hi - lo);
  };
  switch (plan_.fast_path) {
    case FastPathKind::kRevsortCount: {
      // The dense-prefix kernel scans columns wordwise, so it needs whole
      // valid-words per matrix column; smaller sides take the scalar kernel.
      const bool dense = plan_.fp_side >= 64;
      parallel_for_work(valids.size(), plan_.n, [&](std::size_t lo, std::size_t hi) {
        obs::SpanGuard span("plan.fastpath.revsort", obs::cat::kBatch);
        span.arg("patterns", hi - lo);
        RevsortScratch& scratch = thread_scratch().revsort;
        scratch.fit(plan_.fp_side, plan_.n);
        for (std::size_t i = lo; i < hi; ++i) {
          require_width(i);
          const auto sink = sink_for(out[i], plan_.n, plan_.m);
          if (dense) {
            revsort_route_kernel_fused(valids[i], plan_.m, plan_.fp_side, fp_q_,
                                       plan_.fp_rev, scratch, fp_vectorize_,
                                       sink);
          } else {
            revsort_route_kernel(valids[i], plan_.m, plan_.fp_side, fp_q_,
                                 plan_.fp_rev, scratch, sink);
          }
        }
        trace_fastpath(lo, hi);
      });
      return;
    }
    case FastPathKind::kColumnsortCount: {
      parallel_for_work(valids.size(), plan_.n, [&](std::size_t lo, std::size_t hi) {
        obs::SpanGuard span("plan.fastpath.columnsort", obs::cat::kBatch);
        span.arg("patterns", hi - lo);
        ColumnsortScratch& scratch = thread_scratch().columnsort;
        scratch.fit(plan_.fp_s);
        for (std::size_t i = lo; i < hi; ++i) {
          require_width(i);
          columnsort_route_kernel(valids[i], plan_.m, plan_.fp_r, plan_.fp_s,
                                  scratch, sink_for(out[i], plan_.n, plan_.m));
        }
        trace_fastpath(lo, hi);
      });
      return;
    }
    case FastPathKind::kNone:
      break;
  }
  // Generic path: scalar walks on the thread's stage scratch.
  parallel_for_work(valids.size(), plan_.n, [&](std::size_t lo, std::size_t hi) {
    StageScratch& scratch = thread_scratch().stage;
    for (std::size_t i = lo; i < hi; ++i) {
      route_with_scratch(valids[i], scratch, out[i]);
    }
  });
}

std::vector<sw::SwitchRouting> PlanExecutor::route_batch(
    const std::vector<BitVec>& valids) const {
  std::vector<sw::SwitchRouting> out(valids.size());
  route_batch_into(valids, out.data());
  return out;
}

void PlanExecutor::route_batch_mask(const std::vector<BitVec>& valids,
                                    std::vector<BitVec>& routed) const {
  if (routed.size() < valids.size()) routed.resize(valids.size());
  route_batch_into(valids, routed.data());
}

std::vector<BitVec> PlanExecutor::nearsorted_batch(
    const std::vector<BitVec>& valids) const {
  std::vector<BitVec> out(valids.size());
  if (plan_.fully_sorting && plan_.faults.empty()) {
    // A full sorter always leaves the valid bits fully concentrated, so the
    // batch nearsorted bits are prefix_ones(n, count) without simulating.
    PCS_TRACE_COUNTER("plan.nearsorted.prefix_shortcut", valids.size());
    parallel_for_work(valids.size(), plan_.n, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        PCS_REQUIRE(valids[i].size() == plan_.n,
                    plan_.name << " nearsorted_batch width: pattern " << i << " of "
                               << valids.size() << " has " << valids[i].size()
                               << " bits, switch has n=" << plan_.n);
        out[i] = BitVec::prefix_ones(plan_.n, valids[i].count());
      }
    });
    return out;
  }
  if (lanes_eligible_) {
    // Lane pipeline: word-parallel occupancy through the analysis gather
    // tables.  Constant feeds read the sentinel slots (idle = zero word,
    // pad = all-ones word), re-pinned after every gather because the gather
    // recycles the position store.
    const std::size_t blocks = ceil_div(valids.size(), sortnet::LaneBatch::kLanes);
    const auto run_block = [&](std::size_t b) {
      const std::size_t first = b * sortnet::LaneBatch::kLanes;
      const std::size_t count =
          std::min(sortnet::LaneBatch::kLanes, valids.size() - first);
      obs::SpanGuard span("plan.lane_block", obs::cat::kBatch);
      span.arg("lanes", count);
      PCS_TRACE_COUNTER("plan.lane_blocks", 1);
      sortnet::LaneBatch lanes(plan_.n, analysis_.buf_slots);
      lanes.load(valids, first, count);
      const auto pin_sentinels = [&] {
        lanes.set_constant(analysis_.idle_slot, 0);
        lanes.set_constant(analysis_.pad_slot, ~std::uint64_t{0});
      };
      pin_sentinels();
      for (std::size_t k = 0; k < plan_.stages.size(); ++k) {
        const PlanStage& st = plan_.stages[k];
        const LinkInfo& link = analysis_.links[k];
        if (link.kind != GatherKind::kIdentity) {
          lanes.gather(link.src);
          pin_sentinels();
        }
        lanes.concentrate_segments(st.width);
        if (!st.dead.empty()) {
          for (std::size_t c = 0; c < st.chips; ++c) {
            if (st.dead[c]) lanes.clear_positions(c * st.width, (c + 1) * st.width);
          }
        }
      }
      if (analysis_.readout.kind != GatherKind::kIdentity) {
        lanes.gather(analysis_.readout.src);
      }
      lanes.store(out, first);
    };
    // A block routes kLanes patterns at once, so it weighs kLanes * n.
    parallel_for_work(blocks, sortnet::LaneBatch::kLanes * plan_.n,
                      [&](std::size_t lo, std::size_t hi) {
                        for (std::size_t b = lo; b < hi; ++b) run_block(b);
                      });
    return out;
  }
  parallel_for_work(valids.size(), plan_.n, [&](std::size_t lo, std::size_t hi) {
    StageScratch& scratch = thread_scratch().stage;
    for (std::size_t i = lo; i < hi; ++i) {
      const std::vector<std::int32_t>& seq = run_stages(valids[i], scratch);
      BitVec bits(plan_.n);
      for (std::size_t pos = 0; pos < plan_.n; ++pos) {
        bits.set(pos, seq[pos] >= 0);
      }
      out[i] = std::move(bits);
    }
  });
  return out;
}

}  // namespace pcs::plan
