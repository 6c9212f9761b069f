#include "core/invariants.hpp"

#include <algorithm>
#include <sstream>

#include "sortnet/nearsort.hpp"

namespace pcs::core {

using pcs::sw::ConcentratorSwitch;
using pcs::sw::SwitchRouting;

void InvariantReport::add(std::string invariant, std::string detail) {
  violations.push_back(InvariantViolation{std::move(invariant), std::move(detail)});
}

std::string InvariantReport::to_string() const {
  std::ostringstream os;
  if (ok()) {
    os << "all " << checks_run << " invariant checks passed";
    return os.str();
  }
  os << violations.size() << " violation(s) in " << checks_run << " checks:";
  for (const InvariantViolation& v : violations) {
    os << "\n  [" << v.invariant << "] " << v.detail;
  }
  return os.str();
}

std::string describe_pattern(const BitVec& valid) {
  constexpr std::size_t kShow = 96;
  std::ostringstream os;
  os << "n=" << valid.size() << " k=" << valid.count() << " bits=";
  const std::size_t show = std::min(valid.size(), kShow);
  for (std::size_t i = 0; i < show; ++i) os << (valid.get(i) ? '1' : '0');
  if (valid.size() > kShow) os << "...(" << valid.size() - kShow << " more)";
  return os.str();
}

namespace {

/// Common preamble for a violation detail: which switch, which pattern.
std::string context(const ConcentratorSwitch& sw, const BitVec& valid) {
  std::ostringstream os;
  os << sw.name() << " m=" << sw.outputs() << " on " << describe_pattern(valid);
  return os.str();
}

}  // namespace

bool check_partial_injection(const ConcentratorSwitch& sw, const BitVec& valid,
                             const SwitchRouting& routing, InvariantReport& report) {
  ++report.checks_run;
  const std::size_t n = sw.inputs();
  const std::size_t m = sw.outputs();
  if (routing.output_of_input.size() != n || routing.input_of_output.size() != m) {
    std::ostringstream os;
    os << context(sw, valid) << ": routing sized " << routing.output_of_input.size()
       << "x" << routing.input_of_output.size() << ", expected " << n << "x" << m;
    report.add("partial-injection", os.str());
    return false;
  }
  if (!routing.is_partial_injection()) {
    report.add("partial-injection",
               context(sw, valid) + ": maps are not a consistent partial injection");
    return false;
  }
  for (std::size_t j = 0; j < m; ++j) {
    const std::int32_t src = routing.input_of_output[j];
    if (src < 0) continue;
    if (static_cast<std::size_t>(src) >= n || !valid.get(static_cast<std::size_t>(src))) {
      std::ostringstream os;
      os << context(sw, valid) << ": output " << j << " carries input " << src
         << " which is not a valid input";
      report.add("partial-injection", os.str());
      return false;
    }
  }
  return true;
}

bool check_concentration(const ConcentratorSwitch& sw, const BitVec& valid,
                         const SwitchRouting& routing, InvariantReport& report) {
  ++report.checks_run;
  const std::size_t k = valid.count();
  const std::size_t m = sw.outputs();
  const std::size_t capacity = sw.guaranteed_capacity();
  const std::size_t routed = routing.routed_count();
  if (routed > k) {
    std::ostringstream os;
    os << context(sw, valid) << ": routed " << routed << " > k=" << k;
    report.add("concentration", os.str());
    return false;
  }
  if (k <= capacity && routed != k) {
    std::ostringstream os;
    os << context(sw, valid) << ": k=" << k << " <= capacity=" << capacity
       << " but only " << routed << " routed";
    report.add("concentration", os.str());
    return false;
  }
  if (k > capacity && routed < std::min(capacity, k)) {
    std::ostringstream os;
    os << context(sw, valid) << ": k=" << k << " > capacity=" << capacity
       << " but only " << routed << " outputs filled";
    report.add("concentration", os.str());
    return false;
  }
  if (sw.epsilon_bound() == 0) {
    // Hyperconcentrator prefix property: exactly the first min(k, m) outputs
    // carry messages.  (Input order on that prefix is a stability promise
    // some full sorters do not make, so occupancy is what we check here.)
    const std::size_t expect = std::min(k, m);
    for (std::size_t j = 0; j < m; ++j) {
      const bool occupied = routing.input_of_output[j] >= 0;
      if (occupied == (j < expect)) continue;
      std::ostringstream os;
      os << context(sw, valid) << ": output " << j
         << (occupied ? " carries a message beyond" : " is a hole inside")
         << " the min(k,m)=" << expect << " prefix";
      report.add("concentration", os.str());
      return false;
    }
  }
  return true;
}

bool check_epsilon_bound(const ConcentratorSwitch& sw, const BitVec& valid,
                         const BitVec& arrangement, InvariantReport& report) {
  ++report.checks_run;
  if (arrangement.size() != sw.inputs()) {
    std::ostringstream os;
    os << context(sw, valid) << ": arrangement has " << arrangement.size()
       << " bits, expected n=" << sw.inputs();
    report.add("epsilon-bound", os.str());
    return false;
  }
  const std::size_t k = valid.count();
  const std::size_t carried = arrangement.count();
  const std::size_t max_loss = sw.max_fault_loss();
  if (carried > k || carried + max_loss < k) {
    std::ostringstream os;
    os << context(sw, valid) << ": arrangement carries " << carried
       << " ones, input had k=" << k << " (messages created or lost beyond"
       << " max_fault_loss=" << max_loss << ")";
    report.add("epsilon-bound", os.str());
    return false;
  }
  const std::size_t bound = sw.epsilon_bound();
  if (bound >= sw.inputs()) return true;  // no advertised guarantee (faulty)
  const std::size_t measured = sortnet::min_nearsort_epsilon(arrangement);
  if (measured > bound) {
    std::ostringstream os;
    os << context(sw, valid) << ": measured epsilon " << measured
       << " exceeds advertised bound " << bound;
    report.add("epsilon-bound", os.str());
    return false;
  }
  return true;
}

bool check_batch_identity(const ConcentratorSwitch& sw,
                          const std::vector<BitVec>& valids,
                          InvariantReport& report) {
  ++report.checks_run;
  const std::size_t b = valids.size();
  const std::vector<SwitchRouting> routes = sw.route_batch(valids);
  const std::vector<BitVec> arrangements = sw.nearsorted_batch(valids);
  std::vector<BitVec> routed;
  sw.route_batch_mask(valids, routed);
  if (routes.size() != b || arrangements.size() != b || routed.size() != b) {
    std::ostringstream os;
    os << sw.name() << ": batch of " << b << " returned " << routes.size()
       << " routings, " << arrangements.size() << " arrangements and "
       << routed.size() << " routed masks";
    report.add("batch-identity", os.str());
    return false;
  }
  for (std::size_t i = 0; i < b; ++i) {
    const SwitchRouting ref = sw.route(valids[i]);
    if (routes[i].output_of_input != ref.output_of_input ||
        routes[i].input_of_output != ref.input_of_output) {
      std::ostringstream os;
      os << context(sw, valids[i]) << ": route_batch diverges from route() at "
         << "pattern " << i << " of batch size " << b;
      report.add("batch-identity", os.str());
      return false;
    }
    BitVec ref_routed;
    pcs::sw::routed_inputs(ref, ref_routed);
    if (routed[i] != ref_routed) {
      std::ostringstream os;
      os << context(sw, valids[i]) << ": route_batch_mask diverges from "
         << "route() at pattern " << i << " of batch size " << b;
      report.add("batch-identity", os.str());
      return false;
    }
    const BitVec ref_arr = sw.nearsorted_valid_bits(valids[i]);
    if (arrangements[i].size() != ref_arr.size() ||
        arrangements[i].count_diff(ref_arr) != 0) {
      std::ostringstream os;
      os << context(sw, valids[i]) << ": nearsorted_batch diverges from "
         << "nearsorted_valid_bits() at pattern " << i << " of batch size " << b;
      report.add("batch-identity", os.str());
      return false;
    }
  }
  return true;
}

bool check_fault_loss(const ConcentratorSwitch& sw, const BitVec& valid,
                      const SwitchRouting& routing, std::size_t baseline_routed,
                      std::size_t max_loss, InvariantReport& report) {
  ++report.checks_run;
  const std::size_t k = valid.count();
  const std::size_t routed = routing.routed_count();
  if (routed > k) {
    std::ostringstream os;
    os << context(sw, valid) << ": routed " << routed << " > k=" << k
       << " (phantom messages)";
    report.add("fault-loss", os.str());
    return false;
  }
  if (routed < baseline_routed && baseline_routed - routed > max_loss) {
    std::ostringstream os;
    os << context(sw, valid) << ": routed " << routed << ", fault-free baseline "
       << baseline_routed << " -- lost " << baseline_routed - routed
       << " to faults, max_fault_loss=" << max_loss;
    report.add("fault-loss", os.str());
    return false;
  }
  return true;
}

bool check_pattern(const ConcentratorSwitch& sw, const BitVec& valid,
                   InvariantReport& report) {
  const SwitchRouting routing = sw.route(valid);
  bool ok = check_partial_injection(sw, valid, routing, report);
  // A faulty switch (no advertised epsilon bound) loses messages by design;
  // the concentration contract only binds working hardware.
  if (sw.epsilon_bound() < sw.inputs()) {
    ok = check_concentration(sw, valid, routing, report) && ok;
  }
  ok = check_epsilon_bound(sw, valid, sw.nearsorted_valid_bits(valid), report) && ok;
  return ok;
}

}  // namespace pcs::core
