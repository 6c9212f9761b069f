#include "plan/compile.hpp"

#include <cmath>
#include <sstream>
#include <utility>

#include "sortnet/columnsort.hpp"
#include "sortnet/revsort.hpp"
#include "switch/wiring.hpp"
#include "util/assert.hpp"
#include "util/mathutil.hpp"

namespace pcs::plan {

namespace {

/// A stage whose inbound link is the given wiring permutation:
/// in_src is the permutation's inverse (wire w is fed by dest^-1(w)).
PlanStage stage_from_wiring(std::size_t chips, std::size_t width,
                            const sw::Permutation& link) {
  PlanStage st;
  st.chips = chips;
  st.width = width;
  st.in_src.resize(chips * width);
  const auto& dest = link.dests();
  PCS_REQUIRE(dest.size() == st.in_src.size(),
              "stage link size: " << dest.size() << " wires=" << st.in_src.size());
  for (std::size_t i = 0; i < dest.size(); ++i) {
    st.in_src[dest[i]] = static_cast<std::int32_t>(i);
  }
  return st;
}

/// A first stage fed directly by the switch inputs (identity link).
PlanStage input_stage(std::size_t chips, std::size_t width) {
  PlanStage st;
  st.chips = chips;
  st.width = width;
  st.in_src.resize(chips * width);
  for (std::size_t w = 0; w < st.in_src.size(); ++w) {
    st.in_src[w] = static_cast<std::int32_t>(w);
  }
  return st;
}

/// Row-major readout of an r-by-s mesh whose final stage holds the wires
/// column-major: output position i*s + j observes wire j*r + i.
std::vector<std::uint32_t> row_major_readout(std::size_t r, std::size_t s) {
  std::vector<std::uint32_t> readout(r * s);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < s; ++j) {
      readout[i * s + j] = static_cast<std::uint32_t>(j * r + i);
    }
  }
  return readout;
}

std::vector<std::uint32_t> identity_readout(std::size_t n) {
  std::vector<std::uint32_t> readout(n);
  for (std::size_t i = 0; i < n; ++i) readout[i] = static_cast<std::uint32_t>(i);
  return readout;
}

void tag_connectors(PlanStage& st, std::size_t connectors, std::size_t volume) {
  st.link_connectors = connectors;
  st.connector_volume = volume;
}

/// Fill in tracing labels any compiler left empty: "<prefix>.s<idx>" for
/// main stages and "<prefix>.safety<idx>" for the safety net.  Labels are
/// presentation-only (excluded from digest()).
void label_stages(SwitchPlan& plan, const char* prefix) {
  for (std::size_t i = 0; i < plan.stages.size(); ++i) {
    if (plan.stages[i].label.empty()) {
      std::ostringstream os;
      os << prefix << ".s" << i;
      plan.stages[i].label = os.str();
    }
  }
  for (std::size_t i = 0; i < plan.safety_stages.size(); ++i) {
    if (plan.safety_stages[i].label.empty()) {
      std::ostringstream os;
      os << prefix << ".safety" << i;
      plan.safety_stages[i].label = os.str();
    }
  }
}

}  // namespace

SwitchPlan compile_revsort_plan(std::size_t n, std::size_t m) {
  PCS_REQUIRE(n > 0, "compile_revsort_plan n must be positive");
  const std::size_t side = isqrt(n);
  PCS_REQUIRE(side * side == n,
              "compile_revsort_plan n must be a perfect square: n=" << n);
  PCS_REQUIRE(is_pow2(side),
              "compile_revsort_plan sqrt(n) must be a power of two: n="
                  << n << " side=" << side);
  PCS_REQUIRE(m >= 1 && m <= n, "compile_revsort_plan m range: m=" << m
                                    << " n=" << n);
  SwitchPlan plan;
  plan.family = PlanFamily::kRevsort;
  plan.n = n;
  plan.m = m;
  // Dirty rows after Algorithm 1, times the row width.
  plan.epsilon = sortnet::algorithm1_dirty_row_bound(side) * side;
  plan.stages.push_back(input_stage(side, side));
  plan.stages.back().label = "revsort.s0.columns";
  plan.stages.push_back(
      stage_from_wiring(side, side, sw::transpose_wiring(side)));
  plan.stages.back().has_shifter = true;
  plan.stages.back().label = "revsort.s1.rows+shift";
  plan.stages.push_back(
      stage_from_wiring(side, side, sw::rev_rotate_transpose_wiring(side)));
  plan.stages.back().label = "revsort.s2.columns";
  plan.readout = row_major_readout(side, side);

  plan.fast_path = FastPathKind::kRevsortCount;
  plan.fp_side = side;
  const unsigned q = exact_log2(side);
  plan.fp_rev.resize(side);
  for (std::size_t i = 0; i < side; ++i) {
    plan.fp_rev[i] = static_cast<std::uint32_t>(bit_reverse(i, q));
  }

  std::ostringstream os;
  os << "revsort(" << n << "," << m << ")";
  plan.name = os.str();
  return plan;
}

SwitchPlan compile_columnsort_plan(std::size_t r, std::size_t s, std::size_t m) {
  PCS_REQUIRE(r > 0 && s > 0,
              "compile_columnsort_plan shape: r=" << r << " s=" << s);
  PCS_REQUIRE(r % s == 0,
              "compile_columnsort_plan requires s to divide r: r=" << r
                                                                   << " s=" << s);
  const std::size_t n = r * s;
  PCS_REQUIRE(m >= 1 && m <= n, "compile_columnsort_plan m range: m="
                                    << m << " n=" << n << " (r=" << r
                                    << " s=" << s << ")");
  SwitchPlan plan;
  plan.family = PlanFamily::kColumnsort;
  plan.n = n;
  plan.m = m;
  plan.epsilon = sortnet::algorithm2_epsilon_bound(s);
  plan.stages.push_back(input_stage(s, r));
  plan.stages.back().label = "columnsort.s0.columns";
  plan.stages.push_back(stage_from_wiring(s, r, sw::cm_to_rm_wiring(r, s)));
  // Figure 8 packaging: the CM -> RM link is s^2 interstack wire
  // transposers, each spanning an (r/s)-by-(r/s) wire block.
  tag_connectors(plan.stages.back(), s * s, (r / s) * (r / s));
  plan.stages.back().label = "columnsort.s1.rows";
  plan.readout = row_major_readout(r, s);

  plan.fast_path = FastPathKind::kColumnsortCount;
  plan.fp_r = r;
  plan.fp_s = s;

  std::ostringstream os;
  os << "columnsort(r=" << r << ",s=" << s << ",m=" << m << ")";
  plan.name = os.str();
  return plan;
}

SwitchPlan compile_columnsort_plan_beta(std::size_t n, double beta, std::size_t m) {
  PCS_REQUIRE(is_pow2(n), "compile_columnsort_plan_beta requires power-of-two n");
  PCS_REQUIRE(beta >= 0.5 && beta <= 1.0,
              "compile_columnsort_plan_beta requires 1/2 <= beta <= 1");
  const unsigned lgn = exact_log2(n);
  // r = 2^e with e the nearest integer to beta * lg n, clamped so that
  // s = 2^(lg n - e) divides r, i.e. lg n - e <= e.
  auto e = static_cast<unsigned>(std::lround(beta * lgn));
  unsigned e_min = (lgn + 1) / 2;
  if (e < e_min) e = e_min;
  if (e > lgn) e = lgn;
  const std::size_t r = std::size_t{1} << e;
  const std::size_t s = n / r;
  return compile_columnsort_plan(r, s, m);
}

SwitchPlan compile_multipass_plan(std::size_t r, std::size_t s, std::size_t passes,
                                  std::size_t m, ReshapeSchedule schedule) {
  PCS_REQUIRE(r > 0 && s > 0 && r % s == 0,
              "compile_multipass_plan requires s to divide r: r=" << r
                                                                  << " s=" << s);
  PCS_REQUIRE(passes >= 1,
              "compile_multipass_plan needs at least one pass, got " << passes);
  const std::size_t n = r * s;
  PCS_REQUIRE(m >= 1 && m <= n,
              "compile_multipass_plan m range: m=" << m << " n=" << n);
  SwitchPlan plan;
  plan.family = PlanFamily::kMultipass;
  plan.n = n;
  plan.m = m;
  plan.epsilon = sortnet::algorithm2_epsilon_bound(s);

  const sw::Permutation cm_to_rm = sw::cm_to_rm_wiring(r, s);
  const sw::Permutation rm_to_cm = cm_to_rm.inverse();
  plan.stages.push_back(input_stage(s, r));
  for (std::size_t k = 1; k <= passes; ++k) {
    // The link out of pass k-1: alternating schedules flip direction on
    // odd-numbered passes (pass index p = k-1).
    const bool reverse =
        schedule == ReshapeSchedule::kAlternating && (k - 1) % 2 == 1;
    plan.stages.push_back(
        stage_from_wiring(s, r, reverse ? rm_to_cm : cm_to_rm));
    tag_connectors(plan.stages.back(), s * s, (r / s) * (r / s));
  }
  // With the alternating schedule and an even pass count the last reshape
  // was RM -> CM, so the nearly-sorted read-out order is column-major
  // (exactly as in full Columnsort, whose output order is column-major).
  const bool reads_row_major =
      !(schedule == ReshapeSchedule::kAlternating && passes % 2 == 0);
  plan.readout = reads_row_major ? row_major_readout(r, s) : identity_readout(n);

  std::ostringstream os;
  os << "multipass-columnsort(r=" << r << ",s=" << s << ",d=" << passes
     << (schedule == ReshapeSchedule::kAlternating ? ",alt" : ",same")
     << ",m=" << m << ")";
  plan.name = os.str();
  label_stages(plan, "multipass");
  return plan;
}

SwitchPlan compile_full_revsort_plan(std::size_t n) {
  PCS_REQUIRE(n > 0, "compile_full_revsort_plan n must be positive");
  const std::size_t side = isqrt(n);
  PCS_REQUIRE(side * side == n,
              "compile_full_revsort_plan n must be a perfect square: n=" << n);
  PCS_REQUIRE(is_pow2(side),
              "compile_full_revsort_plan sqrt(n) must be a power of two: n="
                  << n << " side=" << side);
  const std::size_t reps = sortnet::full_revsort_repetitions(side);

  const sw::Permutation transpose = sw::transpose_wiring(side);
  const sw::Permutation rev_rot = sw::rev_rotate_transpose_wiring(side);
  const sw::Permutation rev_odd = sw::reverse_odd_rows_wiring(side);
  // Shearsort alternating row phase with plain chips: reverse the odd rows
  // on the way in, front-concentrate, un-reverse on the way out (folded
  // into the next link).
  const sw::Permutation into_alt_rows = transpose.then(rev_odd);
  const sw::Permutation alt_rows_to_cols = rev_odd.then(transpose);

  SwitchPlan plan;
  plan.family = PlanFamily::kFullRevsort;
  plan.n = n;
  plan.m = n;
  plan.epsilon = 0;
  plan.fully_sorting = true;
  // Repetitions of Revsort steps 1-3: column sort, row sort (+ on-board
  // shifters feeding the rev-rotate link), back to columns.
  for (std::size_t t = 0; t < reps; ++t) {
    plan.stages.push_back(t == 0 ? input_stage(side, side)
                                 : stage_from_wiring(side, side, rev_rot));
    plan.stages.push_back(stage_from_wiring(side, side, transpose));
    plan.stages.back().has_shifter = true;
  }
  // Column sort, three Shearsort phases, final 1s-first row sort.
  plan.stages.push_back(stage_from_wiring(side, side, rev_rot));
  for (int phase = 0; phase < 3; ++phase) {
    plan.stages.push_back(stage_from_wiring(side, side, into_alt_rows));
    plan.stages.push_back(stage_from_wiring(side, side, alt_rows_to_cols));
  }
  plan.stages.push_back(stage_from_wiring(side, side, transpose));
  // Final stage sorts rows in row-major layout: the readout is the wires
  // themselves.
  plan.readout = identity_readout(n);

  // Safety net: one extra Shearsort phase (alternating rows, columns, rows)
  // per iteration, looping back onto the row-major output layout.
  plan.safety_stages.push_back(stage_from_wiring(side, side, rev_odd));
  plan.safety_stages.push_back(
      stage_from_wiring(side, side, alt_rows_to_cols));
  plan.safety_stages.push_back(stage_from_wiring(side, side, transpose));
  plan.safety_limit = side;

  std::ostringstream os;
  os << "full-revsort-hyper(" << n << ")";
  plan.name = os.str();
  label_stages(plan, "full-revsort");
  return plan;
}

SwitchPlan compile_full_columnsort_plan(std::size_t r, std::size_t s) {
  PCS_REQUIRE(sortnet::columnsort_shape_ok(r, s),
              "compile_full_columnsort_plan requires s | r and r >= 2(s-1)^2: r="
                  << r << " s=" << s);
  const std::size_t n = r * s;
  SwitchPlan plan;
  plan.family = PlanFamily::kFullColumnsort;
  plan.n = n;
  plan.m = n;
  plan.epsilon = 0;
  plan.fully_sorting = true;

  plan.stages.push_back(input_stage(s, r));                       // step 1
  plan.stages.push_back(
      stage_from_wiring(s, r, sw::cm_to_rm_wiring(r, s)));        // steps 2-3
  tag_connectors(plan.stages.back(), s * s, (r / s) * (r / s));
  plan.stages.push_back(
      stage_from_wiring(s, r, sw::cm_to_rm_wiring(r, s).inverse()));  // 4-5
  tag_connectors(plan.stages.back(), s * s, (r / s) * (r / s));

  // Steps 6-8: shift the column-major sequence down by floor(r/2) across a
  // widened (s+1)-chip stage, with "sorts-before-everything" pads ahead of
  // the window and idles behind it; the readout un-shifts.
  const std::size_t shift = r / 2;
  PlanStage shifted;
  shifted.chips = s + 1;
  shifted.width = r;
  shifted.in_src.resize(shifted.wires());
  for (std::size_t w = 0; w < shifted.wires(); ++w) {
    if (w < shift) {
      shifted.in_src[w] = kFeedPad;
    } else if (w < shift + n) {
      shifted.in_src[w] = static_cast<std::int32_t>(w - shift);
    } else {
      shifted.in_src[w] = kFeedIdle;
    }
  }
  tag_connectors(shifted, s * s, (r / s) * (r / s));
  plan.stages.push_back(std::move(shifted));

  // Column-major readout through the un-shift window.  The pads provably
  // stay below it: the executor asserts none escapes.
  plan.readout.resize(n);
  for (std::size_t x = 0; x < n; ++x) {
    plan.readout[x] = static_cast<std::uint32_t>(shift + x);
  }

  std::ostringstream os;
  os << "full-columnsort-hyper(r=" << r << ",s=" << s << ")";
  plan.name = os.str();
  label_stages(plan, "full-columnsort");
  return plan;
}

SwitchPlan compile_hyper_plan(std::size_t n, std::size_t m) {
  PCS_REQUIRE(n >= 1, "compile_hyper_plan n must be positive");
  PCS_REQUIRE(m >= 1 && m <= n,
              "compile_hyper_plan m range: m=" << m << " n=" << n);
  SwitchPlan plan;
  plan.family = PlanFamily::kHyper;
  plan.n = n;
  plan.m = m;
  plan.epsilon = 0;
  plan.fully_sorting = true;
  plan.stages.push_back(input_stage(1, n));
  plan.stages.back().label = "hyper.s0.chip";
  plan.readout = identity_readout(n);
  plan.fast_path = FastPathKind::kHyperScan;

  std::ostringstream os;
  os << "hyperconcentrator(" << n << "," << m << ")";
  plan.name = os.str();
  return plan;
}

}  // namespace pcs::plan
