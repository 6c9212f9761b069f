#include "switch/make_switch.hpp"

#include <bit>
#include <utility>

#include "plan/compile.hpp"
#include "plan/plan_switch.hpp"
#include "switch/hyper_switch.hpp"
#include "util/assert.hpp"
#include "util/digest.hpp"

namespace pcs {

namespace {

std::size_t outputs_or_all(const SwitchSpec& spec, std::size_t n) {
  return spec.m == 0 ? n : spec.m;
}

}  // namespace

std::uint64_t SwitchSpec::digest() const {
  Digest d;
  // Length-prefixed family bytes so ("ab", n=1) can never collide with
  // ("a", ...) by concatenation ambiguity.
  d.mix_u64(family.size());
  for (char c : family) d.mix_byte(static_cast<std::uint8_t>(c));
  d.mix_u64(n);
  d.mix_u64(m);
  d.mix_u64(std::bit_cast<std::uint64_t>(beta));
  d.mix_u64(r);
  d.mix_u64(s);
  d.mix_u64(passes);
  d.mix_byte(static_cast<std::uint8_t>(schedule));
  d.mix_u64(faults.size());
  for (const plan::ChipFault& f : faults) {
    d.mix_u64(f.stage);
    d.mix_u64(f.chip);
  }
  d.mix_byte(0);  // the former engine byte; keeps pinned digests stable
  return d.value();
}

plan::SwitchPlan make_switch_plan(const SwitchSpec& spec) {
  plan::SwitchPlan p;
  if (spec.family == "revsort") {
    p = plan::compile_revsort_plan(spec.n, outputs_or_all(spec, spec.n));
  } else if (spec.family == "columnsort") {
    if (spec.r != 0 || spec.s != 0) {
      PCS_REQUIRE(spec.r != 0 && spec.s != 0,
                  "SwitchSpec columnsort: set both r and s or neither (r="
                      << spec.r << " s=" << spec.s << ")");
      p = plan::compile_columnsort_plan(spec.r, spec.s,
                                        outputs_or_all(spec, spec.r * spec.s));
    } else {
      p = plan::compile_columnsort_plan_beta(spec.n, spec.beta,
                                             outputs_or_all(spec, spec.n));
    }
  } else if (spec.family == "multipass") {
    PCS_REQUIRE(spec.r != 0 && spec.s != 0,
                "SwitchSpec multipass needs an explicit r x s shape");
    p = plan::compile_multipass_plan(spec.r, spec.s, spec.passes,
                                     outputs_or_all(spec, spec.r * spec.s),
                                     spec.schedule);
  } else if (spec.family == "full-revsort") {
    PCS_REQUIRE(spec.m == 0 || spec.m == spec.n,
                "SwitchSpec full-revsort is fully sorting: m must be n or 0");
    p = plan::compile_full_revsort_plan(spec.n);
  } else if (spec.family == "full-columnsort") {
    PCS_REQUIRE(spec.r != 0 && spec.s != 0,
                "SwitchSpec full-columnsort needs an explicit r x s shape");
    PCS_REQUIRE(spec.m == 0 || spec.m == spec.r * spec.s,
                "SwitchSpec full-columnsort is fully sorting: m must be n or 0");
    p = plan::compile_full_columnsort_plan(spec.r, spec.s);
  } else {
    PCS_REQUIRE(false, "SwitchSpec family '"
                           << spec.family
                           << "' has no staged plan (known plan families: "
                              "revsort, columnsort, multipass, full-revsort, "
                              "full-columnsort)");
  }
  if (!spec.faults.empty()) plan::apply_chip_faults(p, spec.faults);
  return p;
}

std::unique_ptr<sw::ConcentratorSwitch> make_switch(const SwitchSpec& spec) {
  if (spec.family == "hyper") {
    PCS_REQUIRE(spec.faults.empty(),
                "SwitchSpec faults need a plan family; 'hyper' has no plan");
    return std::make_unique<sw::HyperSwitch>(spec.n,
                                             outputs_or_all(spec, spec.n));
  }
  return std::make_unique<plan::PlanSwitch>(make_switch_plan(spec));
}

}  // namespace pcs
