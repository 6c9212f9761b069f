// The one executor behind every multichip switch: interprets a SwitchPlan.
//
// Construction validates the plan and runs the analysis pass
// (plan_analysis.hpp), which classifies each stage's inbound gather.  Chip
// evaluation then reads *directly through the composed gather*: one
// gather+compress kernel per chip (AVX-512 when the CPU has it, scalar
// otherwise) instead of materializing the gathered link into an
// intermediate label vector and concentrating in place.
//
// Scalar route() walks the stages on a flat label vector (each chip
// stable-concentrates its pins straight out of the previous stage, dead
// chips fall silent), then reads the output positions through the plan's
// readout gather.  nearsorted_valid_bits() is the same walk projected to
// occupancy.  The batch entry points dispatch on the plan:
//
//   route_batch       -> the family counting kernels (counting_kernels.hpp)
//                        when the plan carries a FastPathKind: Revsort's
//                        dense-prefix kernel at matrix sides >= 64, its
//                        scalar rank-arithmetic kernel below, Columnsort's
//                        division-free single pass; else chunked scalar
//                        walks;
//   route_batch_mask  -> the same dispatch and kernel bodies writing only
//                        each pattern's routed-input mask into the caller's
//                        recycled BitVecs (the staged walk reads it off its
//                        readout), for the campaign engines;
//   nearsorted_batch  -> prefix_ones for fault-free fully-sorting plans,
//                        else the word-parallel LaneBatch pipeline reading
//                        through the analysis tables (sentinel idle/pad
//                        slots, so pad feeds, non-bijective links and
//                        width-changing stages all batch), else scalar walks
//                        for plans that might iterate their safety net.
//
// Kernel and walk scratch lives in one thread_local set per thread, kept
// across dispatches: the executor itself holds no mutable routing state, so
// one instance (a plan-cache entry) serves concurrent campaigns.
//
// All paths are bit-for-bit identical to the pre-plan per-family LabelMesh
// recipes and to the two-pass interpreter legacy::run_plan, both kept as
// oracles in tests/legacy_reference.hpp; differential tests and the fuzzer
// enforce the identity.
#pragma once

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "plan/plan_analysis.hpp"
#include "plan/switch_plan.hpp"
#include "switch/concentrator.hpp"
#include "util/bitvec.hpp"

namespace pcs::plan {

/// True when this CPU can run the AVX-512 kernels (re-exported from
/// counting_kernels.hpp for convenience).
bool cpu_has_avx512f();

class PlanExecutor {
 public:
  /// Takes ownership of the plan (it is fixed hardware; executors never
  /// mutate it).  Validates the plan's structure and runs the analysis pass
  /// up front.
  explicit PlanExecutor(SwitchPlan plan);

  // Movable so the switch classes embedding an executor stay movable (the
  // atomic phase counter forces these to be spelled out).
  PlanExecutor(PlanExecutor&& other) noexcept
      : plan_(std::move(other.plan_)),
        analysis_(std::move(other.analysis_)),
        fused_simd_(other.fused_simd_),
        fp_q_(other.fp_q_),
        fp_vectorize_(other.fp_vectorize_),
        lanes_eligible_(other.lanes_eligible_),
        stage_span_names_(std::move(other.stage_span_names_)),
        safety_span_names_(std::move(other.safety_span_names_)),
        extra_phases_(other.extra_phases_.load()) {}
  PlanExecutor& operator=(PlanExecutor&& other) noexcept {
    plan_ = std::move(other.plan_);
    analysis_ = std::move(other.analysis_);
    fused_simd_ = other.fused_simd_;
    fp_q_ = other.fp_q_;
    fp_vectorize_ = other.fp_vectorize_;
    lanes_eligible_ = other.lanes_eligible_;
    stage_span_names_ = std::move(other.stage_span_names_);
    safety_span_names_ = std::move(other.safety_span_names_);
    extra_phases_.store(other.extra_phases_.load());
    return *this;
  }
  PlanExecutor(const PlanExecutor&) = delete;
  PlanExecutor& operator=(const PlanExecutor&) = delete;

  const SwitchPlan& plan() const noexcept { return plan_; }
  const PlanAnalysis& analysis() const noexcept { return analysis_; }
  std::size_t inputs() const noexcept { return plan_.n; }
  std::size_t outputs() const noexcept { return plan_.m; }

  sw::SwitchRouting route(const BitVec& valid) const;
  BitVec nearsorted_valid_bits(const BitVec& valid) const;
  std::vector<sw::SwitchRouting> route_batch(
      const std::vector<BitVec>& valids) const;
  /// route_batch reduced to its routed-input masks (see
  /// ConcentratorSwitch::route_batch_mask for the contract).
  void route_batch_mask(const std::vector<BitVec>& valids,
                        std::vector<BitVec>& routed) const;
  std::vector<BitVec> nearsorted_batch(const std::vector<BitVec>& valids) const;

  /// Safety-net iterations the last route() needed (always 0 in practice;
  /// atomic so route_batch may run routes concurrently).
  std::size_t extra_phases_used() const noexcept { return extra_phases_.load(); }

 private:
  /// Reusable label buffers for one staged walk, sized to the analysis'
  /// buf_slots (sentinel idle/pad slots pinned past the widest stage), plus
  /// the walk's readout.
  struct StageScratch {
    std::vector<std::int32_t> state;
    std::vector<std::int32_t> next;
    std::vector<std::int32_t> seq;  ///< the n readout labels of the last walk
  };
  /// Every batch path's scratch for the calling thread (defined in the .cpp).
  struct ThreadScratch;
  static ThreadScratch& thread_scratch();

  /// Runs the staged pipeline (including the safety net on fault-free
  /// plans) and returns the n labels at the readout positions (scratch.seq).
  const std::vector<std::int32_t>& run_stages(const BitVec& valid,
                                              StageScratch& scratch) const;
  /// One staged walk, written as a full routing or a routed-input mask (Out
  /// is sw::SwitchRouting or BitVec, as for the counting kernels' sinks).
  template <class Out>
  void route_with_scratch(const BitVec& valid, StageScratch& scratch,
                          Out& out) const;
  /// The batch dispatch behind route_batch and route_batch_mask.
  template <class Out>
  void route_batch_into(const std::vector<BitVec>& valids, Out* out) const;

  SwitchPlan plan_;
  PlanAnalysis analysis_;
  bool fused_simd_ = false;  // AVX-512 gather/compress chip kernels usable
  unsigned fp_q_ = 0;        // exact_log2(fp_side) for the Revsort kernel
  bool fp_vectorize_ = false;
  // The lane pipeline reads through the analysis gather tables, so it only
  // excludes plans that might iterate their safety net.
  bool lanes_eligible_ = false;
  // Interned span names (stage labels, or "<plan>#s<idx>" fallbacks) so the
  // tracing sites hand out stable const char* without per-route allocation.
  std::vector<const char*> stage_span_names_;
  std::vector<const char*> safety_span_names_;
  mutable std::atomic<std::size_t> extra_phases_{0};
};

}  // namespace pcs::plan
