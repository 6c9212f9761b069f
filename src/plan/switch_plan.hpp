// The staged-plan IR every switch family compiles to.
//
// All of the paper's constructions are the same shape: an ordered list of
// *stages*, each stage a row of parallel hyperconcentrator chips, joined by
// fixed inter-stage wiring -- Section 1's single-chip hyperconcentrator is
// the one-stage, one-chip case.  A SwitchPlan captures that shape as data so
// one executor (plan_executor.hpp) can route any of the six switch
// families, one rewrite (apply_chip_faults) can inject dead chips into any
// of them, and one cost walk (cost::plan_report) can derive the Table 1
// numbers from the exact wiring that gets simulated.
//
// Wire-space conventions:
//  * A stage's wires are numbered chip-major: stage chip c, pin w is wire
//    c * width + w.
//  * The link into a stage is a gather: in_src[w] names the previous
//    stage's output wire feeding wire w (for stage 0, the switch input
//    index), or one of two constants -- kFeedIdle for a wire fed nothing
//    and kFeedPad for the sentinel "sorts-before-everything" pads of full
//    Columnsort's shift step.  Bijective links model pure wiring
//    permutations; the widened pad stage of full Columnsort is the one
//    non-bijective link in the library.
//  * readout[pos] names the last stage's output wire observed at output
//    position pos; the switch's m outputs are readout positions [0, m).
//  * safety_stages, when present, are looped by the executor until the
//    readout is concentrated (the full-Revsort Shearsort safety net).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pcs::plan {

/// Slot labels used by the executor (same values as the LabelMesh codes the
/// mesh simulations use: idle = -1, pad-one = -2).
inline constexpr std::int32_t kIdleLabel = -1;
inline constexpr std::int32_t kPadLabel = -2;

/// in_src constants for wires fed a constant instead of an upstream wire.
inline constexpr std::int32_t kFeedIdle = -1;
inline constexpr std::int32_t kFeedPad = -2;

enum class PlanFamily : unsigned char {
  kRevsort,         ///< Section 4, three stages + barrel shifters
  kColumnsort,      ///< Section 5, two stages
  kMultipass,       ///< Section 6 open question, d passes + final sort
  kFullRevsort,     ///< Section 6 full-sorting Revsort hyperconcentrator
  kFullColumnsort,  ///< Section 6 full-sorting Columnsort (8 steps)
  kHyper,           ///< Section 1 single hyperconcentrator chip
};

/// Batch fast-path tag: a counting kernel that is bit-identical to the
/// staged execution but replays it as rank arithmetic on the set bits.
/// Only valid on fault-free plans; apply_chip_faults clears it.
enum class FastPathKind : unsigned char {
  kNone,
  kRevsortCount,     ///< three-stage Revsort counting kernel (+AVX-512)
  kColumnsortCount,  ///< single-pass Columnsort counting kernel
  kHyperScan,        ///< one-chip word scan: the j-th valid input -> output j
};

/// Reshape schedule of the multipass switch.
enum class ReshapeSchedule : unsigned char {
  kSame,         ///< every pass converts column-major -> row-major
  kAlternating,  ///< odd passes CM -> RM, even passes RM -> CM
};

/// A dead chip, identified by its stage index and position within the stage.
struct ChipFault {
  std::size_t stage;
  std::size_t chip;

  bool operator==(const ChipFault&) const = default;
};

/// One stage: `chips` parallel `width`-wire hyperconcentrator chips, plus
/// the wiring that feeds them and the board-level annotations the cost
/// model needs.
struct PlanStage {
  std::size_t chips = 0;
  std::size_t width = 0;
  /// Human-readable stage name for tracing/profiling (span names, profile
  /// rollup keys).  Presentation only: NOT part of digest() -- the golden
  /// digests pin the hardware structure, and a label rename is not a
  /// hardware change.  Executors fall back to "<plan>#s<idx>" when empty.
  std::string label;
  /// Gather feeding this stage: in_src[w] is the upstream wire (>= 0),
  /// kFeedIdle, or kFeedPad.  Size chips * width.
  std::vector<std::int32_t> in_src;
  /// Per-chip dead flags, set by apply_chip_faults: a dead chip drives all
  /// of its output pins idle (after its concentrate, before the next link).
  std::vector<std::uint8_t> dead;
  /// This stage's boards also carry a hardwired barrel shifter feeding the
  /// outbound link (Revsort stacks 2; Figure 4).
  bool has_shifter = false;
  /// Interstack wire-transposer connectors on this stage's inbound link
  /// (Figure 8) and the unit volume of each.
  std::size_t link_connectors = 0;
  std::size_t connector_volume = 0;

  std::size_t wires() const noexcept { return chips * width; }
  bool any_dead() const noexcept;
};

struct SwitchPlan {
  PlanFamily family = PlanFamily::kRevsort;
  std::string name;
  std::size_t n = 0;        ///< input wires
  std::size_t m = 0;        ///< output wires (readout positions [0, m))
  std::size_t epsilon = 0;  ///< guaranteed nearsortedness of the readout
  bool fully_sorting = false;

  std::vector<PlanStage> stages;
  /// Output position -> last-stage output wire; size n.
  std::vector<std::uint32_t> readout;

  /// Safety-net stages (full Revsort): looped by the executor until the
  /// readout is concentrated, at most safety_limit iterations.
  std::vector<PlanStage> safety_stages;
  std::size_t safety_limit = 0;

  /// Fast-path dispatch for route_batch, with its kernel parameters.
  FastPathKind fast_path = FastPathKind::kNone;
  std::size_t fp_side = 0;            ///< Revsort kernel: side = sqrt(n)
  std::vector<std::uint32_t> fp_rev;  ///< Revsort kernel: bit-reversal table
  std::size_t fp_r = 0, fp_s = 0;     ///< Columnsort kernel shape

  /// Dead chips applied to this plan (deduplicated) and the resulting loss
  /// bound: at most one chip width per dead chip and setup.
  std::vector<ChipFault> faults;
  std::size_t max_fault_loss = 0;

  // --- structural tallies (satellite: chip_planner reads these) ----------

  /// Chips a message passes through: one per stage.
  std::size_t chip_passes() const noexcept { return stages.size(); }
  /// Hyperconcentrator chips plus the barrel shifters on shifter stages.
  std::size_t chip_count() const noexcept;
  /// Barrel shifters (one per chip on every has_shifter stage).
  std::size_t shifter_count() const noexcept;
  /// Boards: one per hyperconcentrator chip (shifters share boards).
  std::size_t board_count() const noexcept;
  /// Distinct (width, has_shifter) board designs.
  std::size_t board_types() const noexcept;
  /// Max data+control pins on any chip: 2w, plus ceil(lg w) hardwired shift
  /// bits on shifter stages.
  std::size_t max_pins_per_chip() const noexcept;
  /// Interstack connectors summed over the links.
  std::size_t connector_count() const noexcept;
  /// Figure 3/6 layout area: one n-wire crossbar region per inter-stage
  /// link plus every chip's w^2 silicon.
  std::size_t area_2d() const noexcept;
  /// Figure 4/7 packaging volume: board area (doubled on shifter-carrying
  /// boards) per chip plus the connector volumes.
  std::size_t volume_3d() const noexcept;

  /// Structural fingerprint (FNV-1a over shape, wiring, readout, faults):
  /// the golden-digest tests pin these per family and shape.
  std::uint64_t digest() const;

  /// Multi-line human-readable dump: one line per stage plus the tallies.
  std::string summary() const;

  /// Structural sanity: in_src ranges, readout range, dead-flag sizes.
  /// Throws ContractViolation on malformed plans.
  void validate() const;
};

/// Family-agnostic fault rewrite: mark the given chips dead in `plan`.
/// Coordinates are validated against the plan's stages; duplicates
/// collapse (a chip is either dead or not).  The rewritten plan advertises
/// no nearsorting guarantee (epsilon = n), loses its batch fast path and
/// fully-sorting shortcut, and renames itself "faulty-<name>(...,dead=K)".
void apply_chip_faults(SwitchPlan& plan, std::vector<ChipFault> faults);

}  // namespace pcs::plan
