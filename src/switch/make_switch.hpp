// The one public construction path for every switch in the library.
//
// A SwitchSpec names a family and its shape; make_switch() returns the
// switch behind the ConcentratorSwitch interface, and make_switch_plan()
// returns the compiled staged plan for the plan-backed families (every
// family except "hyper", which is a single chip, not a multichip plan).
// runtime/config.cpp, the examples, and anything outside src/ construct
// switches exclusively through here -- the per-family classes in switch/
// remain for code that needs their extra accessors (wiring-literal
// reference routes, shape getters), not as entry points.
//
// Families and the shape fields they read:
//   "revsort"          n, m            (n = side^2, side a power of two)
//   "columnsort"       r, s, m -- or n, beta, m when r/s are left 0
//   "multipass"        r, s, passes, schedule, m
//   "full-revsort"     n               (fully sorting, m = n)
//   "full-columnsort"  r, s            (fully sorting, m = n)
//   "hyper"            n, m            (single hyperconcentrator chip)
// m = 0 means "all n outputs".  `faults` marks dead chips (plan families
// only): the compiled plan is rewritten via plan::apply_chip_faults, so the
// returned switch advertises the weakened guarantees.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "plan/switch_plan.hpp"
#include "switch/concentrator.hpp"

namespace pcs {

struct SwitchSpec {
  std::string family = "revsort";
  std::size_t n = 0;   ///< input wires (revsort / full-revsort / hyper / beta shapes)
  std::size_t m = 0;   ///< output wires; 0 = n
  double beta = 0.75;  ///< Columnsort r = ~n^beta when r/s are unset
  std::size_t r = 0;   ///< explicit Columnsort-family chip width
  std::size_t s = 0;   ///< explicit Columnsort-family chip count
  std::size_t passes = 1;  ///< multipass sort+reshape passes
  plan::ReshapeSchedule schedule = plan::ReshapeSchedule::kSame;
  std::vector<plan::ChipFault> faults;  ///< dead chips (plan families only)

  /// Stable FNV-1a fingerprint over EVERY spec field (family bytes, shape,
  /// beta bits, passes, schedule, the fault list in order), closed by a
  /// constant 0 byte that once named the executor engine and now keeps the
  /// pinned values unchanged.  This is the serving daemon's plan-cache key
  /// (serve/plan_cache.hpp); the value is pinned by a golden test
  /// (test_switch_digest.cpp) so it cannot silently drift across refactors
  /// and strand every cached plan.
  std::uint64_t digest() const;
};

/// Compile the spec's staged plan, faults applied.  Throws ContractViolation
/// for "hyper" (no plan), unknown families, and out-of-range shapes.
plan::SwitchPlan make_switch_plan(const SwitchSpec& spec);

/// Build the switch: plan families run behind plan::PlanSwitch (identical
/// name, routing, and fast paths as the legacy per-family classes); "hyper"
/// returns sw::HyperSwitch.  Throws ContractViolation on bad specs,
/// including faults on "hyper".
std::unique_ptr<sw::ConcentratorSwitch> make_switch(const SwitchSpec& spec);

}  // namespace pcs
