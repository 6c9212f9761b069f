// Legacy reference semantics for every multichip switch family, written
// directly against the LabelMesh mesh operations -- the exact per-family
// route() recipes the dedicated switch classes implemented before they
// became thin compilers onto the staged-plan IR (src/plan/) -- plus
// run_plan(), the two-pass staged interpreter the fused PlanExecutor
// replaced.
//
// The plan refactor's hard constraint is bit-for-bit identity with these
// recipes, and every executor optimisation since must stay bit-for-bit the
// plain interpreter, so both live here as independent oracles: the
// golden-digest and differential test suites (tests/test_plan_*.cpp, the
// random-plan test in tests/test_fuzz_differential.cpp) and the fuzzer's
// plan-vs-legacy family (fuzz/fuzz_differential.cpp) all compare
// PlanExecutor output against this header.  Keep it boring and obviously
// correct; it must never route through the plan code it checks.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "label_mesh.hpp"
#include "plan/switch_plan.hpp"  // plain plan data: stages, readout, faults
#include "sortnet/revsort.hpp"
#include "switch/concentrator.hpp"
#include "util/assert.hpp"
#include "util/bitvec.hpp"
#include "util/mathutil.hpp"

namespace pcs::legacy {

/// A reference routing plus the nearsorted occupancy it implies.
struct Reference {
  sw::SwitchRouting routing;
  BitVec nearsorted;
};

/// Assemble a SwitchRouting from the final label sequence: position pos of
/// the readout carries input seq[pos] (>= 0) or nothing.  Positions >= m
/// fall off the switch (partial concentration drops them).
inline Reference from_sequence(const std::vector<std::int32_t>& seq,
                               std::size_t n, std::size_t m) {
  Reference ref;
  ref.routing.output_of_input.assign(n, -1);
  ref.routing.input_of_output.assign(m, -1);
  ref.nearsorted = BitVec(seq.size());
  for (std::size_t pos = 0; pos < seq.size(); ++pos) {
    if (seq[pos] < 0) continue;
    ref.nearsorted.set(pos, true);
    if (pos < m) {
      ref.routing.input_of_output[pos] = seq[pos];
      ref.routing.output_of_input[static_cast<std::size_t>(seq[pos])] =
          static_cast<std::int32_t>(pos);
    }
  }
  return ref;
}

/// The staged interpreter, read straight off the plan's data (never
/// PlanExecutor, never the analysis pass).  Each stage gathers its inbound
/// link into a full intermediate label vector (constant idle/pad feeds
/// included), stable-concentrates every chip's segment in place (pads count
/// as occupied), then silences its dead chips; the readout gather picks the
/// n output positions.  A fault-free plan with safety stages loops them
/// until the readout is concentrated, at most safety_limit times.
inline Reference run_plan(const plan::SwitchPlan& p, const BitVec& valid) {
  PCS_REQUIRE(valid.size() == p.n,
              "run_plan: pattern has " << valid.size() << " bits, n=" << p.n);
  std::vector<std::int32_t> state(p.n);
  for (std::size_t x = 0; x < p.n; ++x) {
    state[x] = valid.get(x) ? static_cast<std::int32_t>(x) : plan::kIdleLabel;
  }
  const auto run_stage = [&state](const plan::PlanStage& st) {
    std::vector<std::int32_t> next(st.wires());
    for (std::size_t w = 0; w < next.size(); ++w) {
      const std::int32_t src = st.in_src[w];
      next[w] = src >= 0 ? state[static_cast<std::size_t>(src)]
                         : (src == plan::kFeedPad ? plan::kPadLabel
                                                  : plan::kIdleLabel);
    }
    const auto occupied = [](std::int32_t v) { return v != plan::kIdleLabel; };
    const auto width = static_cast<std::ptrdiff_t>(st.width);
    for (std::size_t c = 0; c < st.chips; ++c) {
      const auto chip = next.begin() + static_cast<std::ptrdiff_t>(c) * width;
      const auto end = chip + width;
      std::stable_partition(chip, end, occupied);
      if (!st.dead.empty() && st.dead[c]) {
        std::fill(chip, end, plan::kIdleLabel);
      }
    }
    state.swap(next);
  };
  const auto read_out = [&] {
    std::vector<std::int32_t> seq(p.n);
    for (std::size_t pos = 0; pos < p.n; ++pos) {
      seq[pos] = state[p.readout[pos]];
      PCS_REQUIRE(seq[pos] != plan::kPadLabel,
                  p.name << ": pad escaped the shift window at pos=" << pos);
    }
    return seq;
  };
  for (const plan::PlanStage& st : p.stages) run_stage(st);
  std::vector<std::int32_t> seq = read_out();
  const auto concentrated = [&seq] {
    return std::is_partitioned(seq.begin(), seq.end(),
                               [](std::int32_t v) { return v >= 0; });
  };
  if (!p.safety_stages.empty() && p.faults.empty()) {
    for (std::size_t extra = 0; !concentrated(); ++extra) {
      PCS_REQUIRE(extra < p.safety_limit, p.name << " failed to converge");
      for (const plan::PlanStage& st : p.safety_stages) run_stage(st);
      seq = read_out();
    }
  }
  return from_sequence(seq, p.n, p.m);
}

/// Silence the dead chips of one stage.  Chips are columns on every
/// concentrate_columns stage; the Revsort row stage's chips are rows.
inline void kill_column(sw::LabelMesh& mesh, std::size_t col) {
  for (std::size_t i = 0; i < mesh.rows(); ++i) mesh.set(i, col, sw::kIdle);
}
inline void kill_row(sw::LabelMesh& mesh, std::size_t row) {
  for (std::size_t j = 0; j < mesh.cols(); ++j) mesh.set(row, j, sw::kIdle);
}

/// Revsort partial concentrator (optionally with dead chips): concentrate
/// columns, concentrate rows, rotate row i right by rev(i), concentrate
/// columns, read row-major.  Stage s faults kill chip `chip` right after
/// stage s's concentration (stage 1 chips are rows).
inline Reference revsort(const BitVec& valid, std::size_t m,
                         const std::vector<plan::ChipFault>& faults = {}) {
  const std::size_t side = isqrt(valid.size());
  sw::LabelMesh mesh = sw::LabelMesh::from_col_major_valid(valid, side, side);
  mesh.concentrate_columns();
  for (const auto& f : faults)
    if (f.stage == 0) kill_column(mesh, f.chip);
  mesh.concentrate_rows();
  for (const auto& f : faults)
    if (f.stage == 1) kill_row(mesh, f.chip);
  mesh.rotate_rows_bit_reversed();
  mesh.concentrate_columns();
  for (const auto& f : faults)
    if (f.stage == 2) kill_column(mesh, f.chip);
  return from_sequence(mesh.to_row_major(), valid.size(), m);
}

/// Columnsort partial concentrator: concentrate columns, reshape
/// column-major -> row-major, concentrate columns, read row-major.  Stage s
/// faults kill column `chip` right after stage s's concentration.
inline Reference columnsort(const BitVec& valid, std::size_t r, std::size_t s,
                            std::size_t m,
                            const std::vector<plan::ChipFault>& faults = {}) {
  sw::LabelMesh mesh = sw::LabelMesh::from_col_major_valid(valid, r, s);
  mesh.concentrate_columns();
  for (const auto& f : faults)
    if (f.stage == 0) kill_column(mesh, f.chip);
  mesh.cm_to_rm_reshape();
  mesh.concentrate_columns();
  for (const auto& f : faults)
    if (f.stage == 1) kill_column(mesh, f.chip);
  return from_sequence(mesh.to_row_major(), valid.size(), m);
}

/// Multipass Columnsort: `passes` rounds of concentrate + reshape (the
/// alternating schedule inverts every second reshape), one final
/// concentration, read row-major -- except an even-pass alternating switch
/// ends column-major.
inline Reference multipass(const BitVec& valid, std::size_t r, std::size_t s,
                           std::size_t passes, std::size_t m,
                           plan::ReshapeSchedule schedule) {
  sw::LabelMesh mesh = sw::LabelMesh::from_col_major_valid(valid, r, s);
  for (std::size_t p = 0; p < passes; ++p) {
    mesh.concentrate_columns();
    if (schedule == plan::ReshapeSchedule::kAlternating && p % 2 == 1) {
      mesh.rm_to_cm_reshape();
    } else {
      mesh.cm_to_rm_reshape();
    }
  }
  mesh.concentrate_columns();
  const bool row_major =
      !(schedule == plan::ReshapeSchedule::kAlternating && passes % 2 == 0);
  return from_sequence(row_major ? mesh.to_row_major() : mesh.to_col_major(),
                       valid.size(), m);
}

/// Full-sorting Revsort hyperconcentrator (m = n): repetitions of
/// (concentrate columns, concentrate rows, bit-reversed rotation) followed
/// by the three-phase shearsort cleanup.
inline Reference full_revsort(const BitVec& valid) {
  const std::size_t n = valid.size();
  const std::size_t side = isqrt(n);
  sw::LabelMesh mesh = sw::LabelMesh::from_col_major_valid(valid, side, side);
  const std::size_t reps =
      side >= 2 ? sortnet::full_revsort_repetitions(side) : 0;
  for (std::size_t t = 0; t < reps; ++t) {
    mesh.concentrate_columns();
    mesh.concentrate_rows();
    mesh.rotate_rows_bit_reversed();
  }
  mesh.concentrate_columns();
  for (int phase = 0; phase < 3; ++phase) {
    mesh.concentrate_rows_alternating();
    mesh.concentrate_columns();
  }
  mesh.concentrate_rows();
  return from_sequence(mesh.to_row_major(), n, n);
}

/// Full-sorting Columnsort hyperconcentrator (m = n): the full eight-step
/// Columnsort on labels, read column-major.
inline Reference full_columnsort(const BitVec& valid, std::size_t r,
                                 std::size_t s) {
  sw::LabelMesh mesh = sw::LabelMesh::from_col_major_valid(valid, r, s);
  mesh.concentrate_columns();
  mesh.cm_to_rm_reshape();
  mesh.concentrate_columns();
  mesh.rm_to_cm_reshape();
  mesh.concentrate_columns();
  mesh.shift_concentrate_unshift();
  return from_sequence(mesh.to_col_major(), valid.size(), valid.size());
}

}  // namespace pcs::legacy
