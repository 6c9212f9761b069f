// Plan-analysis pass: classifies every stage link of a SwitchPlan and
// precomputes the gather tables the executor reads through.
//
// A naive staged interpreter runs every stage in two passes: materialize the
// gathered inbound link into a full intermediate label vector, then
// concentrate each chip's segment in place.  At large n that intermediate
// buffer is what blows out L2 -- the gather writes n words nobody needs once
// the chips have concentrated.  The analysis pass makes the one-pass (fused)
// evaluation possible:
//
//  * each link's in_src is classified -- identity (wire w reads wire w, the
//    gather is a contiguous load), fixed-stride shuffle (the CM<->RM /
//    transpose wirings: in_src[i*cols + j] == j*rows + i, a constant-stride
//    gather), or general (arbitrary permutation, possibly with constant
//    idle/pad feeds -- the rev-rotate links and full Columnsort's widened
//    pad stage);
//  * the constant feeds (kFeedIdle / kFeedPad) are remapped onto two
//    sentinel slots past the widest stage, so the fused kernels gather
//    unconditionally from one base pointer with no per-wire branching --
//    state buffers carry the two constants at fixed indices;
//  * the executor picks, per stage, a contiguous-load or gather/compress
//    kernel (AVX-512 when the CPU has it, scalar otherwise) and evaluates
//    every chip by reading *directly through the link* -- the inbound
//    intermediate vector is never materialized.
//
// The pass accepts every plan SwitchPlan::validate() accepts, so the fused
// executor needs no fallback engine.  The two-pass interpreter survives only
// as the test oracle legacy::run_plan (tests/legacy_reference.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "plan/switch_plan.hpp"

namespace pcs::plan {

/// How a stage's inbound gather (or the readout) reads its source.
enum class GatherKind : unsigned char {
  kIdentity,  ///< src[w] == w: contiguous loads, no index table needed
  kStride,    ///< src[i*cols + j] == j*rows + i: constant-stride shuffle
  kGeneral,   ///< arbitrary permutation and/or constant idle/pad feeds
};

const char* gather_kind_name(GatherKind kind) noexcept;

/// One analyzed link: its classification plus the remapped gather table the
/// fused kernels index with (constant feeds folded onto the sentinel slots).
struct LinkInfo {
  GatherKind kind = GatherKind::kGeneral;
  /// kStride only: the (rows, cols) shape with src[i*cols + j] = j*rows + i.
  std::size_t stride_rows = 0;
  std::size_t stride_cols = 0;
  bool has_idle_feeds = false;  ///< any in_src == kFeedIdle
  bool has_pad_feeds = false;   ///< any in_src == kFeedPad
  /// Remapped gather, size = stage wires: upstream wire index, or the
  /// analysis' idle_slot / pad_slot for constant feeds.  Empty for
  /// kIdentity links (the kernels read contiguously instead).
  std::vector<std::uint32_t> src;
};

/// The full analysis of one plan, consumed by PlanExecutor.
struct PlanAnalysis {
  std::vector<LinkInfo> links;         ///< one per main stage
  std::vector<LinkInfo> safety_links;  ///< one per safety stage
  LinkInfo readout;                    ///< readout positions gather
  /// Widest stage in wires (>= n for every plan in the library).
  std::size_t max_wires = 0;
  /// Sentinel indices in the executor's state buffers: a slot pinned to the
  /// idle label and a slot pinned to the pad label.
  std::size_t idle_slot = 0;
  std::size_t pad_slot = 0;
  /// State buffers need this many label slots (max_wires + 2 sentinels).
  std::size_t buf_slots = 0;

  /// One line per link: "link 2: stride(16x16)" etc.  Benchmarks print it;
  /// the classification tests pin it per family.
  std::string summary() const;
};

/// Classify one raw gather map (negatives are constant feeds).  Exposed for
/// tests; analyze_plan() applies it to every link of a plan.
GatherKind classify_gather(const std::vector<std::int32_t>& in_src,
                           std::size_t* rows_out = nullptr,
                           std::size_t* cols_out = nullptr);

/// Run the analysis pass over every link of the plan (main stages, safety
/// stages, readout).  Pure function of the plan's wiring; cost is one walk
/// per link, paid at executor construction, never on a route path.
PlanAnalysis analyze_plan(const SwitchPlan& plan);

}  // namespace pcs::plan
