// Compilers from the paper's switch families to the staged-plan IR.
//
// Each compiler emits the family's fixed hardware as data: stage shapes,
// inter-stage links (as in_src gathers built from the wiring builders in
// switch/wiring.hpp), readout order, epsilon bound, and the batch fast-path
// parameters.  pcs::make_switch_plan (switch/make_switch.hpp) picks the
// compiler for a SwitchSpec, and plan::PlanSwitch runs any plan (or a
// fault-rewritten variant) behind the ConcentratorSwitch interface.
#pragma once

#include "plan/switch_plan.hpp"

namespace pcs::plan {

/// Section 4 Revsort partial concentrator: three stages of sqrt(n)-wide
/// chips, barrel shifters on stage 2.  n = side^2, side a power of two,
/// 1 <= m <= n.
SwitchPlan compile_revsort_plan(std::size_t n, std::size_t m);

/// Section 5 Columnsort partial concentrator: two stages of s chips of
/// width r joined by the CM -> RM wiring.  s divides r, 1 <= m <= r*s.
SwitchPlan compile_columnsort_plan(std::size_t r, std::size_t s, std::size_t m);

/// Columnsort shape from the paper's beta parameter (r nearest n^beta that
/// keeps s = n/r a divisor of r).  n a power of two, 1/2 <= beta <= 1.
SwitchPlan compile_columnsort_plan_beta(std::size_t n, double beta, std::size_t m);

/// Section 6 open-question multipass switch: `passes` sort+reshape passes
/// plus a final column sort.
SwitchPlan compile_multipass_plan(std::size_t r, std::size_t s, std::size_t passes,
                                  std::size_t m,
                                  ReshapeSchedule schedule = ReshapeSchedule::kSame);

/// Section 6 full-sorting Revsort hyperconcentrator (m = n), including its
/// Shearsort safety net as the plan's safety stages.
SwitchPlan compile_full_revsort_plan(std::size_t n);

/// Section 6 full-sorting Columnsort hyperconcentrator (m = n): all eight
/// steps, with the shift step as a widened (s+1)-chip stage fed pads.
SwitchPlan compile_full_columnsort_plan(std::size_t r, std::size_t s);

/// Section 1 single-chip hyperconcentrator: one stage holding one n-wide
/// chip, identity wiring and readout, epsilon = 0; the n-by-m perfect
/// concentrator keeps the first m outputs.  n >= 1, 1 <= m <= n.
SwitchPlan compile_hyper_plan(std::size_t n, std::size_t m);

}  // namespace pcs::plan
