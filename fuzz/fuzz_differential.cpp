// Deterministic differential fuzzer for the concentrator switches.
//
// Sweeps every switch family x degenerate output counts (m in {1, 2, n-1, n}
// plus a random m) x structured and random valid-bit patterns (empty, full,
// single-bit, prefix/suffix, alternating, block, three densities) x batch
// sizes straddling the 64-lane word width (1, 63, 64, 65, 128), and
// cross-checks three independent routing paths against the shared invariant
// library (core/invariants.hpp):
//   scalar      route() / nearsorted_valid_bits() through the PlanExecutor,
//   batch       route_batch() / nearsorted_batch() / route_batch_mask()
//               (counting kernels, LaneBatch lanes, the AVX-512 stage
//               split, the thread pool),
//   gate-level  the composed HyperCircuit realization, on small shapes,
//   oracle      the single hyperconcentrator chip (tests/switch_oracles.hpp)
//               for every hyper case,
//   legacy      the pre-plan LabelMesh recipes (tests/legacy_reference.hpp),
//               cross-checked against every family including faulty plans.
//   fabric      multi-hop fabric campaigns (random topology / allocator /
//               route policy / credit depth) at epochs_in_flight 1, 2, and 5:
//               conservation, replay identity, and pipelined-vs-serial
//               campaign-counter identity.
// Faulty switches are swept too, against the fault-loss accounting invariant.
//
// Every case is derived deterministically from (seed, case index), so a
// failure report's case index replays alone:
//   pcs_fuzz --seed 1987 --start 4242 --cases 1
// Exit code 0 = clean sweep, 1 = invariant violation (first one reported),
// 2 = usage error.
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/invariants.hpp"
#include "fabric/fabric_sim.hpp"
#include "legacy_reference.hpp"
#include "plan/compile.hpp"
#include "plan/plan_switch.hpp"
#include "runtime/metrics.hpp"
#include "switch/gate_level_switch.hpp"
#include "switch/make_switch.hpp"
#include "switch_oracles.hpp"
#include "traffic/factory.hpp"
#include "traffic/trace.hpp"
#include "util/bitvec.hpp"
#include "util/rng.hpp"

namespace {

using pcs::BitVec;
using pcs::Rng;
namespace core = pcs::core;
namespace sw = pcs::sw;

struct Options {
  std::size_t cases = 1000;
  std::size_t start = 0;
  std::uint64_t seed = 1987;
  bool verbose = false;
};

/// splitmix64 step: decorrelates the per-case seed from the case index.
std::uint64_t mix(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// --- pattern zoo ----------------------------------------------------------

constexpr std::size_t kPatternKinds = 10;

BitVec make_pattern(std::size_t kind, std::size_t n, Rng& rng) {
  BitVec v(n);
  switch (kind % kPatternKinds) {
    case 0:  // empty
      return v;
    case 1:  // full
      for (std::size_t i = 0; i < n; ++i) v.set(i, true);
      return v;
    case 2:  // single bit
      v.set(rng.below(n), true);
      return v;
    case 3:  // all but one
      for (std::size_t i = 0; i < n; ++i) v.set(i, true);
      v.set(rng.below(n), false);
      return v;
    case 4:  // prefix of ones (already concentrated)
      return BitVec::prefix_ones(n, rng.below(n + 1));
    case 5: {  // suffix of ones (maximally displaced)
      const std::size_t k = rng.below(n + 1);
      for (std::size_t i = n - k; i < n; ++i) v.set(i, true);
      return v;
    }
    case 6:  // alternating, random phase
      for (std::size_t i = rng.below(2); i < n; i += 2) v.set(i, true);
      return v;
    case 7: {  // one solid block at a random offset
      const std::size_t len = rng.below(n + 1);
      const std::size_t at = len == n ? 0 : rng.below(n - len + 1);
      for (std::size_t i = at; i < at + len; ++i) v.set(i, true);
      return v;
    }
    case 8:  // sparse / dense random
      return rng.bernoulli_bits(n, rng.chance(0.5) ? 0.1 : 0.9);
    default:  // balanced random
      return rng.bernoulli_bits(n, 0.5);
  }
}

std::vector<BitVec> make_batch(std::size_t n, std::size_t count, Rng& rng) {
  std::vector<BitVec> out;
  out.reserve(count);
  // Rotate through the pattern zoo from a random phase so every kind shows
  // up at every batch size, including size 1.
  const std::size_t phase = rng.below(kPatternKinds);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(make_pattern(phase + i, n, rng));
  }
  return out;
}

/// Batch sizes straddling the 64-lane word width, trimmed on big shapes so a
/// 10k-case sweep stays fast under the sanitizers.
std::size_t pick_batch_size(std::size_t n, Rng& rng) {
  static constexpr std::size_t kSizes[] = {1, 63, 64, 65, 128};
  const std::size_t span = n > 512 ? 2 : (n > 128 ? 3 : 5);
  return kSizes[rng.below(span)];
}

/// Degenerate-first m selection: 1, 2, n-1, n, then random interior.
std::size_t pick_m(std::size_t n, Rng& rng) {
  switch (rng.below(5)) {
    case 0: return 1;
    case 1: return n >= 2 ? 2 : 1;
    case 2: return n >= 2 ? n - 1 : 1;
    case 3: return n;
    default: return 1 + rng.below(n);
  }
}

// --- switch construction (cached; shapes repeat across cases) -------------

struct SwitchCache {
  std::map<std::string, std::unique_ptr<sw::ConcentratorSwitch>> switches;
  std::map<std::string, std::unique_ptr<sw::GateLevelSwitch>> gates;

  sw::ConcentratorSwitch* get(const std::string& key,
                              std::unique_ptr<sw::ConcentratorSwitch> (*build)(
                                  std::size_t, std::size_t, std::size_t),
                              std::size_t a, std::size_t b, std::size_t c) {
    auto it = switches.find(key);
    if (it == switches.end()) {
      it = switches.emplace(key, build(a, b, c)).first;
    }
    return it->second.get();
  }
};

std::unique_ptr<sw::ConcentratorSwitch> build_hyper(std::size_t n, std::size_t m,
                                                    std::size_t) {
  return pcs::make_switch({"hyper", n, m});
}
std::unique_ptr<sw::ConcentratorSwitch> build_hyper_oracle(std::size_t n,
                                                           std::size_t m,
                                                           std::size_t) {
  return std::make_unique<pcs::oracle::HyperOracle>(n, m);
}
std::unique_ptr<sw::ConcentratorSwitch> build_revsort(std::size_t n, std::size_t m,
                                                      std::size_t) {
  return pcs::make_switch({"revsort", n, m});
}
std::unique_ptr<sw::ConcentratorSwitch> build_columnsort(std::size_t r, std::size_t s,
                                                         std::size_t m) {
  return pcs::make_switch({.family = "columnsort", .m = m, .r = r, .s = s});
}
std::unique_ptr<sw::ConcentratorSwitch> build_full_revsort(std::size_t n, std::size_t,
                                                           std::size_t) {
  return pcs::make_switch({"full-revsort", n});
}
std::unique_ptr<sw::ConcentratorSwitch> build_full_columnsort(std::size_t r,
                                                              std::size_t s,
                                                              std::size_t) {
  return pcs::make_switch({.family = "full-columnsort", .r = r, .s = s});
}
std::unique_ptr<sw::ConcentratorSwitch> build_multipass(std::size_t r, std::size_t s,
                                                        std::size_t code) {
  // code packs (passes, schedule, m): built by the caller below.
  const std::size_t passes = code >> 33;
  const bool alternating = (code >> 32) & 1;
  const std::size_t m = code & 0xffffffffull;
  return pcs::make_switch({.family = "multipass",
                           .m = m,
                           .r = r,
                           .s = s,
                           .passes = passes,
                           .schedule = alternating
                                           ? pcs::plan::ReshapeSchedule::kAlternating
                                           : pcs::plan::ReshapeSchedule::kSame});
}

// --- per-family case drivers ----------------------------------------------

struct CaseContext {
  std::string description;  ///< shape summary for the failure report
  sw::ConcentratorSwitch* sw = nullptr;
  sw::ConcentratorSwitch* baseline = nullptr;  ///< fault-free twin (faulty cases)
  /// Independent reference routing every pattern must match exactly (the
  /// hyperconcentrator chip of tests/switch_oracles.hpp for hyper cases).
  sw::ConcentratorSwitch* oracle = nullptr;
  std::size_t max_fault_loss = 0;              ///< nonzero marks a faulty switch
};

CaseContext pick_case(std::size_t family, Rng& rng, SwitchCache& cache) {
  CaseContext ctx;
  std::ostringstream key;
  switch (family % 6) {
    case 0: {  // single-chip hyperconcentrator
      static constexpr std::size_t kN[] = {1, 2, 7, 33, 64, 100, 256};
      const std::size_t n = kN[rng.below(std::size(kN))];
      const std::size_t m = pick_m(n, rng);
      key << "hyper/" << n << "/" << m;
      ctx.sw = cache.get(key.str(), build_hyper, n, m, 0);
      ctx.oracle = cache.get("hyper-oracle/" + std::to_string(n) + "/" +
                                 std::to_string(m),
                             build_hyper_oracle, n, m, 0);
      break;
    }
    case 1: {  // Revsort partial concentrator
      // 4096 (side 64) takes the dense-prefix kernel; smaller sides the
      // scalar one.
      static constexpr std::size_t kN[] = {1, 4, 16, 64, 256, 1024, 4096};
      const std::size_t n = kN[rng.below(std::size(kN))];
      const std::size_t m = pick_m(n, rng);
      key << "revsort/" << n << "/" << m;
      ctx.sw = cache.get(key.str(), build_revsort, n, m, 0);
      break;
    }
    case 2: {  // Columnsort partial concentrator
      static constexpr std::size_t kRS[][2] = {{1, 1}, {2, 1}, {4, 2},  {8, 2},
                                               {16, 4}, {32, 4}, {64, 8}};
      const auto& rs = kRS[rng.below(std::size(kRS))];
      const std::size_t m = pick_m(rs[0] * rs[1], rng);
      key << "columnsort/" << rs[0] << "x" << rs[1] << "/" << m;
      ctx.sw = cache.get(key.str(), build_columnsort, rs[0], rs[1], m);
      break;
    }
    case 3: {  // full-sorting multichip hyperconcentrators (m = n by class)
      if (rng.chance(0.5)) {
        static constexpr std::size_t kN[] = {4, 16, 64, 256};
        const std::size_t n = kN[rng.below(std::size(kN))];
        key << "fullrevsort/" << n;
        ctx.sw = cache.get(key.str(), build_full_revsort, n, 0, 0);
      } else {
        static constexpr std::size_t kRS[][2] = {{2, 1}, {8, 2}, {32, 4}};
        const auto& rs = kRS[rng.below(std::size(kRS))];
        key << "fullcolumnsort/" << rs[0] << "x" << rs[1];
        ctx.sw = cache.get(key.str(), build_full_columnsort, rs[0], rs[1], 0);
      }
      break;
    }
    case 4: {  // multipass Columnsort (the open-question switch)
      static constexpr std::size_t kRS[][2] = {{16, 4}, {32, 4}, {64, 8}};
      const auto& rs = kRS[rng.below(std::size(kRS))];
      const std::size_t passes = 1 + rng.below(3);
      const bool alternating = rng.chance(0.5);
      const std::size_t m = pick_m(rs[0] * rs[1], rng);
      key << "multipass/" << rs[0] << "x" << rs[1] << "/" << passes << "/"
          << alternating << "/" << m;
      ctx.sw = cache.get(key.str(), build_multipass, rs[0], rs[1],
                         (passes << 33) | (std::size_t{alternating} << 32) | m);
      break;
    }
    default: {  // faulty switches: graceful-degradation accounting
      if (rng.chance(0.5)) {
        static constexpr std::size_t kN[] = {16, 64, 256};
        const std::size_t n = kN[rng.below(std::size(kN))];
        const std::size_t side = n == 16 ? 4 : (n == 64 ? 8 : 16);
        const std::size_t m = pick_m(n, rng);
        std::vector<pcs::plan::ChipFault> faults;
        const std::size_t count = 1 + rng.below(3);
        for (std::size_t f = 0; f < count; ++f) {
          faults.push_back(pcs::plan::ChipFault{rng.below(3), rng.below(side)});
        }
        pcs::plan::SwitchPlan p = pcs::plan::compile_revsort_plan(n, m);
        pcs::plan::apply_chip_faults(p, std::move(faults));
        auto faulty = std::make_unique<pcs::plan::PlanSwitch>(std::move(p));
        ctx.max_fault_loss = faulty->max_fault_loss();
        ctx.description = faulty->name();
        // Not cached under a shape key: fault sets vary per case.
        cache.switches["faulty-scratch"] = std::move(faulty);
        ctx.sw = cache.switches["faulty-scratch"].get();
        key << "revsort/" << n << "/" << m;
        ctx.baseline = cache.get(key.str(), build_revsort, n, m, 0);
      } else {
        static constexpr std::size_t kRS[][2] = {{8, 2}, {16, 4}, {64, 8}};
        const auto& rs = kRS[rng.below(std::size(kRS))];
        const std::size_t m = pick_m(rs[0] * rs[1], rng);
        std::vector<pcs::plan::ChipFault> faults;
        const std::size_t count = 1 + rng.below(3);
        for (std::size_t f = 0; f < count; ++f) {
          faults.push_back(pcs::plan::ChipFault{rng.below(2), rng.below(rs[1])});
        }
        pcs::plan::SwitchPlan p =
            pcs::plan::compile_columnsort_plan(rs[0], rs[1], m);
        pcs::plan::apply_chip_faults(p, std::move(faults));
        auto faulty = std::make_unique<pcs::plan::PlanSwitch>(std::move(p));
        ctx.max_fault_loss = faulty->max_fault_loss();
        ctx.description = faulty->name();
        cache.switches["faulty-scratch"] = std::move(faulty);
        ctx.sw = cache.switches["faulty-scratch"].get();
        key << "columnsort/" << rs[0] << "x" << rs[1] << "/" << m;
        ctx.baseline = cache.get(key.str(), build_columnsort, rs[0], rs[1], m);
      }
      break;
    }
  }
  if (ctx.description.empty()) ctx.description = ctx.sw->name();
  return ctx;
}

// --- gate-level cross-check ------------------------------------------------

/// Compare the composed gate-level circuit against the behavioural m = n
/// switch on one (valid, data) pair: identical valid arrangement, and every
/// occupied output position carries its routed input's payload bit.
bool check_gate_level(const sw::GateLevelSwitch& gate,
                      const sw::ConcentratorSwitch& model, const BitVec& valid,
                      const BitVec& data, core::InvariantReport& report) {
  ++report.checks_run;
  const sw::GateLevelResult res = gate.evaluate(valid, data);
  const BitVec arrangement = model.nearsorted_valid_bits(valid);
  if (res.valid.size() != arrangement.size() ||
      res.valid.count_diff(arrangement) != 0) {
    report.add("gate-level",
               model.name() + " valid bits diverge from the gate-level circuit on " +
                   core::describe_pattern(valid));
    return false;
  }
  const sw::SwitchRouting routing = model.route(valid);
  for (std::size_t p = 0; p < gate.n(); ++p) {
    const std::int32_t src = routing.input_of_output[p];
    const bool expect = src >= 0 && data.get(static_cast<std::size_t>(src));
    if (res.data.get(p) != expect) {
      std::ostringstream os;
      os << model.name() << " gate-level data bit at output " << p << " is "
         << res.data.get(p) << ", behavioural routing expects " << expect << " on "
         << core::describe_pattern(valid);
      report.add("gate-level", os.str());
      return false;
    }
  }
  return true;
}

bool run_gate_level_case(std::size_t idx, Rng& rng, SwitchCache& cache,
                         core::InvariantReport& report) {
  // Alternate between the two gate-level designs; shapes stay small because
  // gate counts grow as stages * chips * w^2.
  const bool revsort = idx % 2 == 0;
  std::string key;
  sw::GateLevelSwitch* gate = nullptr;
  sw::ConcentratorSwitch* model = nullptr;
  if (revsort) {
    static constexpr std::size_t kN[] = {16, 64};
    const std::size_t n = kN[rng.below(std::size(kN))];
    key = "gate-revsort/" + std::to_string(n);
    auto it = cache.gates.find(key);
    if (it == cache.gates.end()) {
      it = cache.gates
               .emplace(key, std::make_unique<sw::GateLevelSwitch>(
                                 pcs::make_switch_plan({"revsort", n})))
               .first;
    }
    gate = it->second.get();
    model = cache.get("revsort/" + std::to_string(n) + "/" + std::to_string(n),
                      build_revsort, n, n, 0);
  } else {
    static constexpr std::size_t kRS[][2] = {{8, 2}, {16, 4}};
    const auto& rs = kRS[rng.below(std::size(kRS))];
    key = "gate-columnsort/" + std::to_string(rs[0]) + "x" + std::to_string(rs[1]);
    auto it = cache.gates.find(key);
    if (it == cache.gates.end()) {
      it = cache.gates
               .emplace(key, std::make_unique<sw::GateLevelSwitch>(
                                 pcs::make_switch_plan({.family = "columnsort",
                                                        .r = rs[0],
                                                        .s = rs[1]})))
               .first;
    }
    gate = it->second.get();
    const std::size_t n = rs[0] * rs[1];
    model = cache.get("columnsort/" + std::to_string(rs[0]) + "x" +
                          std::to_string(rs[1]) + "/" + std::to_string(n),
                      build_columnsort, rs[0], rs[1], n);
  }
  bool ok = true;
  for (int t = 0; t < 4 && ok; ++t) {
    const BitVec valid = make_pattern(rng.below(kPatternKinds), gate->n(), rng);
    const BitVec data = rng.bernoulli_bits(gate->n(), 0.5);
    ok = check_gate_level(*gate, *model, valid, data, report);
  }
  return ok;
}

// --- plan-vs-legacy cross-check --------------------------------------------

/// Compare one switch (now a compiled plan behind the shared executor)
/// against the family's pre-plan LabelMesh recipe on one pattern: identical
/// routing in both directions and identical nearsorted occupancy.
bool check_against_legacy(const sw::ConcentratorSwitch& model, const BitVec& valid,
                          const pcs::legacy::Reference& ref,
                          core::InvariantReport& report) {
  ++report.checks_run;
  const sw::SwitchRouting got = model.route(valid);
  if (got.output_of_input != ref.routing.output_of_input ||
      got.input_of_output != ref.routing.input_of_output) {
    report.add("plan-vs-legacy",
               model.name() + " route diverges from the LabelMesh reference on " +
                   core::describe_pattern(valid));
    return false;
  }
  if (model.nearsorted_valid_bits(valid) != ref.nearsorted) {
    report.add("plan-vs-legacy",
               model.name() +
                   " nearsorted bits diverge from the LabelMesh reference on " +
                   core::describe_pattern(valid));
    return false;
  }
  return true;
}

bool run_legacy_oracle_case(Rng& rng, SwitchCache& cache,
                            core::InvariantReport& report) {
  namespace plan = pcs::plan;
  std::function<pcs::legacy::Reference(const BitVec&)> oracle;
  sw::ConcentratorSwitch* model = nullptr;
  std::ostringstream key;
  switch (rng.below(6)) {
    case 0: {
      static constexpr std::size_t kN[] = {4, 16, 64, 256};
      const std::size_t n = kN[rng.below(std::size(kN))];
      const std::size_t m = pick_m(n, rng);
      key << "revsort/" << n << "/" << m;
      model = cache.get(key.str(), build_revsort, n, m, 0);
      oracle = [m](const BitVec& v) { return pcs::legacy::revsort(v, m); };
      break;
    }
    case 1: {
      static constexpr std::size_t kRS[][2] = {{4, 2}, {16, 4}, {64, 8}};
      const auto& rs = kRS[rng.below(std::size(kRS))];
      const std::size_t m = pick_m(rs[0] * rs[1], rng);
      key << "columnsort/" << rs[0] << "x" << rs[1] << "/" << m;
      model = cache.get(key.str(), build_columnsort, rs[0], rs[1], m);
      oracle = [r = rs[0], s = rs[1], m](const BitVec& v) {
        return pcs::legacy::columnsort(v, r, s, m);
      };
      break;
    }
    case 2: {
      static constexpr std::size_t kRS[][2] = {{16, 4}, {64, 8}};
      const auto& rs = kRS[rng.below(std::size(kRS))];
      const std::size_t passes = 1 + rng.below(3);
      const bool alternating = rng.chance(0.5);
      const std::size_t m = pick_m(rs[0] * rs[1], rng);
      key << "multipass/" << rs[0] << "x" << rs[1] << "/" << passes << "/"
          << alternating << "/" << m;
      model = cache.get(key.str(), build_multipass, rs[0], rs[1],
                        (passes << 33) | (std::size_t{alternating} << 32) | m);
      oracle = [r = rs[0], s = rs[1], passes, m, alternating](const BitVec& v) {
        return pcs::legacy::multipass(v, r, s, passes, m,
                                      alternating
                                          ? pcs::plan::ReshapeSchedule::kAlternating
                                          : pcs::plan::ReshapeSchedule::kSame);
      };
      break;
    }
    case 3: {
      static constexpr std::size_t kN[] = {4, 16, 64};
      const std::size_t n = kN[rng.below(std::size(kN))];
      key << "fullrevsort/" << n;
      model = cache.get(key.str(), build_full_revsort, n, 0, 0);
      oracle = [](const BitVec& v) { return pcs::legacy::full_revsort(v); };
      break;
    }
    case 4: {
      static constexpr std::size_t kRS[][2] = {{2, 1}, {8, 2}, {32, 4}};
      const auto& rs = kRS[rng.below(std::size(kRS))];
      key << "fullcolumnsort/" << rs[0] << "x" << rs[1];
      model = cache.get(key.str(), build_full_columnsort, rs[0], rs[1], 0);
      oracle = [r = rs[0], s = rs[1]](const BitVec& v) {
        return pcs::legacy::full_columnsort(v, r, s);
      };
      break;
    }
    default: {  // faulty plans against the legacy kill-after-stage recipe
      const bool rev = rng.chance(0.5);
      std::vector<plan::ChipFault> faults;
      const std::size_t count = 1 + rng.below(3);
      if (rev) {
        const std::size_t n = 64, side = 8;
        const std::size_t m = pick_m(n, rng);
        for (std::size_t f = 0; f < count; ++f) {
          faults.push_back(plan::ChipFault{rng.below(3), rng.below(side)});
        }
        plan::SwitchPlan p = plan::compile_revsort_plan(n, m);
        plan::apply_chip_faults(p, faults);
        cache.switches["legacy-faulty-scratch"] =
            std::make_unique<plan::PlanSwitch>(std::move(p));
        oracle = [m, faults](const BitVec& v) {
          return pcs::legacy::revsort(v, m, faults);
        };
      } else {
        const std::size_t r = 16, cs = 4;
        const std::size_t m = pick_m(r * cs, rng);
        for (std::size_t f = 0; f < count; ++f) {
          faults.push_back(plan::ChipFault{rng.below(2), rng.below(cs)});
        }
        plan::SwitchPlan p = plan::compile_columnsort_plan(r, cs, m);
        plan::apply_chip_faults(p, faults);
        cache.switches["legacy-faulty-scratch"] =
            std::make_unique<plan::PlanSwitch>(std::move(p));
        oracle = [r, cs, m, faults](const BitVec& v) {
          return pcs::legacy::columnsort(v, r, cs, m, faults);
        };
      }
      model = cache.switches["legacy-faulty-scratch"].get();
      break;
    }
  }
  bool ok = true;
  for (int t = 0; t < 6 && ok; ++t) {
    const BitVec valid = make_pattern(rng.below(kPatternKinds), model->inputs(), rng);
    ok = check_against_legacy(*model, valid, oracle(valid), report);
  }
  if (!ok) std::cerr << "FAIL plan-vs-legacy: " << model->name() << "\n";
  return ok;
}

// --- traffic-source cross-check --------------------------------------------

/// Sweep random composable traffic specs through the src/traffic factory and
/// check the source-level invariants: every epoch is `width` wide, the exact
/// injection keeps its count, destinations stay below the sink count, the
/// offered count is conserved through trace record -> replay, and the replay
/// is byte-identical to what the recorder saw.
bool run_traffic_case(Rng& rng, core::InvariantReport& report) {
  namespace traffic = pcs::traffic;
  static constexpr std::size_t kWidths[] = {1, 7, 16, 64, 100, 256};

  traffic::TrafficSpec spec;
  spec.width = kWidths[rng.below(std::size(kWidths))];
  static const char* kInjections[] = {"bernoulli", "onoff", "exact"};
  spec.injection = kInjections[rng.below(std::size(kInjections))];
  spec.intensity = rng.uniform01();
  spec.hotspot_fraction = 0.05 + 0.9 * rng.uniform01();
  spec.chip_w = 1 + rng.below(8);

  // Patterns that address by destination need an addressable sink count;
  // everything here uses sinks == width, so gate the pick on the width.
  std::vector<const char*> patterns = {"uniform", "hotspot", "tornado",
                                       "adversarial"};
  const bool pow2 = spec.width != 0 && (spec.width & (spec.width - 1)) == 0;
  std::size_t bits = 0;
  while ((std::size_t{1} << bits) < spec.width) ++bits;
  if (pow2) {
    patterns.push_back("bitcomp");
    patterns.push_back("bitrev");
    patterns.push_back("shuffle");
    if (bits % 2 == 0) patterns.push_back("transpose");
  }
  spec.pattern = patterns[rng.below(patterns.size())];

  const std::uint64_t stream_seed = rng.next();
  const std::size_t epochs = 1 + rng.below(8);
  const std::size_t sinks = spec.width;

  traffic::TraceRecorder recorder(spec.width, 1);
  auto source = recorder.wrap(traffic::make_source(spec), 0);
  Rng stream(stream_seed);
  std::vector<BitVec> offered;
  std::vector<std::vector<std::uint32_t>> dests;
  std::size_t offered_total = 0;
  const std::size_t exact_k = std::min(
      static_cast<std::size_t>(
          std::llround(spec.intensity * static_cast<double>(spec.width))),
      spec.width);
  for (std::size_t e = 0; e < epochs; ++e) {
    offered.push_back(source->next_valid(stream));
    const BitVec& v = offered.back();
    ++report.checks_run;
    if (v.size() != spec.width) {
      report.add("traffic", spec.pattern + std::string("/") + spec.injection +
                                " epoch width mismatch");
      return false;
    }
    if (spec.injection == "exact" && spec.pattern != "adversarial" &&
        v.count() != exact_k) {
      report.add("traffic", "exact injection drifted from k");
      return false;
    }
    offered_total += v.count();
    dests.emplace_back();
    for (std::size_t g = 0; g < spec.width; ++g) {
      if (!v.get(g)) continue;
      const std::uint32_t d = source->dest_for(stream, g, sinks);
      ++report.checks_run;
      if (d >= sinks) {
        report.add("traffic", "destination past the sink count");
        return false;
      }
      dests.back().push_back(d);
    }
  }

  // Offered-count conservation through the recorder, then byte-identical
  // replay (valid bits and destinations both).
  std::size_t recorded_total = 0;
  for (const auto& epoch : recorder.log().streams[0].epochs) {
    recorded_total += epoch.valid.count();
  }
  ++report.checks_run;
  if (recorded_total != offered_total) {
    report.add("traffic", "recorder lost offered messages");
    return false;
  }
  auto replay = traffic::make_replay(
      std::make_shared<const traffic::TraceLog>(recorder.log()), 0);
  Rng unused(0);
  for (std::size_t e = 0; e < epochs; ++e) {
    ++report.checks_run;
    const BitVec v = replay->next_valid(unused);
    if (v != offered[e]) {
      report.add("traffic", "replayed valid bits diverge from the recording");
      return false;
    }
    std::size_t i = 0;
    for (std::size_t g = 0; g < spec.width; ++g) {
      if (!v.get(g)) continue;
      if (replay->dest_for(unused, g, sinks) != dests[e][i++]) {
        report.add("traffic", "replayed destination diverges from the recording");
        return false;
      }
    }
  }
  return true;
}

// --- fabric pipeline cross-check -------------------------------------------

/// Deterministic dump of one fabric campaign's outcome: the run report plus
/// every counter, gauge, and histogram EXCEPT the fabric.pipeline.* family,
/// which describes the physical schedule (merge shapes) and legitimately
/// varies with epochs_in_flight.
std::string fabric_fingerprint(const pcs::rt::MetricsRegistry& m,
                               const pcs::rt::RuntimeReport& r) {
  std::ostringstream os;
  os << "drained=" << r.drained << ";saturated=" << r.saturated
     << ";drain_used=" << r.drain_epochs_used
     << ";residual=" << r.residual_backlog << "\n";
  const auto pipeline_metric = [](const std::string& name) {
    return name.rfind("fabric.pipeline.", 0) == 0;
  };
  for (const auto& [name, c] : m.counters()) {
    if (!pipeline_metric(name)) os << name << "=" << c.value() << "\n";
  }
  for (const auto& [name, g] : m.gauges()) {
    if (!pipeline_metric(name)) os << name << "=" << g.value() << "\n";
  }
  for (const auto& [name, h] : m.histograms()) {
    if (pipeline_metric(name)) continue;
    const auto s = h.snapshot();
    os << name << ":" << s.count << "," << s.sum << "," << s.min << ","
       << s.max;
    for (const std::uint64_t b : s.buckets) os << "|" << b;
    os << "\n";
  }
  return os.str();
}

/// Random small fabric campaigns at epochs_in_flight 1, 1 (replay), 2, and 5,
/// with deflection on and off, against three oracles: the sim's own
/// conservation / credit-mirror contracts (check_invariants=true turns every
/// violation into an exception), exact counter conservation at exit, and
/// campaign-outcome identity -- the same seed must reproduce itself, and the
/// pipelined schedules must match the serial schedule metric for metric.
bool run_fabric_case(Rng& rng, core::InvariantReport& report) {
  namespace fabric = pcs::fabric;

  pcs::FabricSpec spec;
  spec.hops = 2 + rng.below(3);  // 2..4
  spec.topology = spec.hops == 3 && rng.chance(0.3)
                      ? fabric::Topology::kFatTree
                      : (rng.chance(0.5) ? fabric::Topology::kOmega
                                         : fabric::Topology::kButterfly);
  spec.radix = 2;
  if (rng.chance(0.5)) {
    spec.node.family = "columnsort";
    spec.node.n = 64;
    spec.node.m = 32;
  } else {
    spec.node.family = "revsort";
    spec.node.n = 64;
    spec.node.m = 48;
  }
  spec.credits = 1 + rng.below(4);  // 1 exercises sustained starvation
  spec.alloc = rng.chance(0.5) ? "rr" : "islip";
  spec.route = rng.chance(0.5) ? "adaptive" : "deterministic";
  spec.deflect_max = spec.route == "adaptive" && rng.chance(0.5)
                         ? 1 + rng.below(3)
                         : 0;

  pcs::fabric::FabricOptions opts;
  opts.queue_depth = 1 + rng.below(3);
  opts.seed = rng.next();
  opts.warmup_epochs = 2;
  opts.measure_epochs = 6;
  opts.drain_epochs_max = 64;
  opts.check_invariants = true;
  const double load = rng.chance(0.25) ? 1.0 : 0.15 + 0.7 * rng.uniform01();

  std::ostringstream desc;
  desc << fabric::topology_name(spec.topology) << "/" << spec.hops << "x"
       << spec.radix << "/" << spec.node.family << "/" << spec.alloc << "/"
       << spec.route << "/dmax" << spec.deflect_max << "/credits"
       << spec.credits << "/load" << load << "/seed" << opts.seed;

  auto campaign = [&](std::size_t epochs_in_flight) {
    pcs::fabric::FabricOptions o = opts;
    o.epochs_in_flight = epochs_in_flight;
    pcs::fabric::FabricSim sim(
        spec, o, [load](std::size_t width) {
          return std::unique_ptr<pcs::traffic::TrafficSource>(
              std::make_unique<pcs::traffic::ComposedSource>(
                  pcs::traffic::PatternKind::kUniform,
                  std::make_unique<pcs::traffic::BernoulliProcess>(width,
                                                                   load),
                  0.125));
        });
    pcs::rt::MetricsRegistry metrics;
    const pcs::rt::RuntimeReport r = sim.run(metrics);
    ++report.checks_run;
    const auto& c = metrics.counters();
    const auto val = [&](const char* name) { return c.at(name).value(); };
    if (val("total.offered") !=
        val("total.delivered") + val("total.dropped") + val("total.residual")) {
      report.add("fabric", "campaign counters break conservation on " +
                               desc.str());
      return std::string();
    }
    return fabric_fingerprint(metrics, r);
  };

  const std::string serial = campaign(1);
  if (serial.empty()) return false;
  ++report.checks_run;
  if (campaign(1) != serial) {
    report.add("fabric", "serial replay diverged from itself on " + desc.str());
    return false;
  }
  for (const std::size_t e : {std::size_t{2}, std::size_t{5}}) {
    ++report.checks_run;
    if (campaign(e) != serial) {
      report.add("fabric", "epochs_in_flight=" + std::to_string(e) +
                               " diverged from the serial campaign on " +
                               desc.str());
      return false;
    }
  }
  return true;
}

// --- driver ----------------------------------------------------------------

/// The case's switch routes and nearsorts one pattern exactly as its
/// independent oracle does.
bool check_against_oracle(const CaseContext& ctx, const BitVec& valid,
                          core::InvariantReport& report) {
  ++report.checks_run;
  const sw::SwitchRouting got = ctx.sw->route(valid);
  const sw::SwitchRouting want = ctx.oracle->route(valid);
  if (got.output_of_input != want.output_of_input ||
      got.input_of_output != want.input_of_output) {
    report.add("oracle", ctx.description + " routing diverges from " +
                             ctx.oracle->name() + " on " +
                             core::describe_pattern(valid));
    return false;
  }
  if (ctx.sw->nearsorted_valid_bits(valid) !=
      ctx.oracle->nearsorted_valid_bits(valid)) {
    report.add("oracle", ctx.description + " nearsorted bits diverge from " +
                             ctx.oracle->name() + " on " +
                             core::describe_pattern(valid));
    return false;
  }
  return true;
}

bool run_case(std::size_t idx, const Options& opt, SwitchCache& cache,
              core::InvariantReport& report) {
  Rng rng(mix(opt.seed ^ idx));
  // Every 8th case exercises the gate-level path instead of a batch sweep,
  // another 8th cross-checks compiled plans against the legacy recipes,
  // another 8th sweeps the composable traffic sources, and every 16th runs
  // full multi-hop fabric campaigns through the pipeline-identity oracles.
  if (idx % 8 == 7) return run_gate_level_case(idx, rng, cache, report);
  if (idx % 8 == 3) return run_legacy_oracle_case(rng, cache, report);
  if (idx % 8 == 5) return run_traffic_case(rng, report);
  if (idx % 16 == 2) return run_fabric_case(rng, report);

  const CaseContext ctx = pick_case(idx % 6, rng, cache);
  const std::size_t n = ctx.sw->inputs();
  const std::size_t batch = pick_batch_size(n, rng);
  const std::vector<BitVec> patterns = make_batch(n, batch, rng);

  if (opt.verbose) {
    std::cerr << "case " << idx << ": " << ctx.description << " batch=" << batch
              << "\n";
  }

  bool ok = core::check_batch_identity(*ctx.sw, patterns, report);
  for (const BitVec& valid : patterns) {
    if (!ok) break;
    if (ctx.max_fault_loss > 0) {
      const sw::SwitchRouting routing = ctx.sw->route(valid);
      const std::size_t baseline = ctx.baseline->route(valid).routed_count();
      ok = core::check_partial_injection(*ctx.sw, valid, routing, report) &&
           core::check_fault_loss(*ctx.sw, valid, routing, baseline,
                                  ctx.max_fault_loss, report);
    } else {
      ok = core::check_pattern(*ctx.sw, valid, report);
    }
    if (ok && ctx.oracle != nullptr) ok = check_against_oracle(ctx, valid, report);
  }
  if (!ok) {
    std::cerr << "FAIL at case " << idx << ": " << ctx.description
              << " batch=" << batch << "\n";
  }
  return ok;
}

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--cases N] [--seed S] [--start K] [--verbose]\n"
               "Deterministic differential fuzz sweep; replay one case with\n"
               "--start <case> --cases 1 and the same --seed.\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    auto next = [&]() -> const char* { return a + 1 < argc ? argv[++a] : nullptr; };
    if (arg == "--cases") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      opt.cases = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seed") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--start") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      opt.start = std::strtoull(v, nullptr, 10);
    } else if (arg == "--verbose") {
      opt.verbose = true;
    } else {
      return usage(argv[0]);
    }
  }

  SwitchCache cache;
  core::InvariantReport report;
  for (std::size_t idx = opt.start; idx < opt.start + opt.cases; ++idx) {
    bool ok = false;
    try {
      ok = run_case(idx, opt, cache, report);
    } catch (const std::exception& e) {
      std::cerr << "FAIL at case " << idx << ": unexpected exception: " << e.what()
                << "\n";
      return 1;
    }
    if (!ok) {
      std::cerr << report.to_string() << "\n"
                << "replay: --seed " << opt.seed << " --start " << idx
                << " --cases 1\n";
      return 1;
    }
  }
  std::cout << "fuzz sweep clean: " << opt.cases << " cases, " << report.checks_run
            << " invariant checks, seed " << opt.seed << "\n";
  return 0;
}
