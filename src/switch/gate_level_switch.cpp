#include "switch/gate_level_switch.hpp"

#include <algorithm>

#include "gates/evaluator.hpp"
#include "hyper/hyper_circuit.hpp"
#include "util/assert.hpp"

namespace pcs::sw {

namespace {

using gates::NodeId;

/// One inter-stage wire: its valid bit and its data bit, as circuit nodes.
struct Wire {
  NodeId valid;
  NodeId data;
};

/// Instantiate one stage of `chips` w-wide hyperconcentrator chips over the
/// wires (chip c owns wires [c*w, (c+1)*w)).
void instantiate_stage(gates::Circuit& circuit, const gates::Circuit& chip_template,
                       std::size_t chips, std::size_t w, std::vector<Wire>& wires) {
  for (std::size_t c = 0; c < chips; ++c) {
    std::vector<NodeId> bindings;
    bindings.reserve(2 * w);
    for (std::size_t i = 0; i < w; ++i) bindings.push_back(wires[c * w + i].valid);
    for (std::size_t i = 0; i < w; ++i) bindings.push_back(wires[c * w + i].data);
    std::vector<NodeId> outs = circuit.instantiate(chip_template, bindings);
    // Chip outputs: data 0..w-1, then sorted valid bits w..2w-1.
    for (std::size_t i = 0; i < w; ++i) {
      wires[c * w + i] = Wire{outs[w + i], outs[i]};
    }
  }
}

}  // namespace

GateLevelSwitch::GateLevelSwitch(const plan::SwitchPlan& plan) : n_(plan.n) {
  plan.validate();
  const std::size_t n = plan.n;
  for (const plan::PlanStage& st : plan.stages) {
    PCS_REQUIRE(!st.any_dead(),
                "GateLevelSwitch: " << plan.name << " has dead chips; the "
                "gate-level builder realizes fault-free plans only");
  }

  for (std::size_t i = 0; i < n; ++i) valid_inputs_.push_back(circuit_.add_input());
  for (std::size_t i = 0; i < n; ++i) data_inputs_.push_back(circuit_.add_input());

  std::vector<Wire> wires(n);
  for (std::size_t x = 0; x < n; ++x) {
    wires[x] = Wire{valid_inputs_[x], data_inputs_[x]};
  }

  for (const plan::PlanStage& st : plan.stages) {
    PCS_REQUIRE(st.wires() == n,
                "GateLevelSwitch: " << plan.name << " stage feeds "
                << st.wires() << " wires (plan has n=" << n << "); plans with "
                "pad-widened stages have no gate-level realization here");
    // The inbound link: wire w of this stage is upstream wire in_src[w].
    std::vector<Wire> next(n, Wire{0, 0});
    for (std::size_t w = 0; w < n; ++w) {
      const std::int32_t src = st.in_src[w];
      PCS_REQUIRE(src >= 0, "GateLevelSwitch: " << plan.name
                  << " link feeds a constant; not realizable as renaming");
      next[w] = wires[static_cast<std::size_t>(src)];
    }
    wires = std::move(next);
    hyper::HyperCircuit chip(st.width);
    instantiate_stage(circuit_, chip.circuit(), st.chips, st.width, wires);
  }

  for (std::size_t pos = 0; pos < n; ++pos) {
    circuit_.mark_output(wires[plan.readout[pos]].data);
  }
  for (std::size_t pos = 0; pos < n; ++pos) {
    circuit_.mark_output(wires[plan.readout[pos]].valid);
  }
}

GateLevelResult GateLevelSwitch::evaluate(const BitVec& valid,
                                              const BitVec& data) const {
  gates::EvalScratch scratch;
  GateLevelResult res;
  evaluate(valid, data, scratch, res);
  return res;
}

void GateLevelSwitch::evaluate(const BitVec& valid, const BitVec& data,
                                   gates::EvalScratch& scratch,
                                   GateLevelResult& res) const {
  PCS_REQUIRE(valid.size() == n_ && data.size() == n_, "GateLevelSwitch width");
  // Stage the inputs straight into the lane buffer (lane 0 only) instead of
  // round-tripping through a BitVec.
  scratch.lanes.resize(2 * n_);
  for (std::size_t i = 0; i < n_; ++i) {
    scratch.lanes[i] = valid.get(i) ? 1u : 0u;
    scratch.lanes[n_ + i] = data.get(i) ? 1u : 0u;
  }
  gates::Evaluator eval(circuit_);
  const std::vector<std::uint64_t>& out = eval.evaluate_lanes(scratch.lanes, scratch);
  if (res.data.size() != n_) res.data = BitVec(n_); else res.data.fill(false);
  if (res.valid.size() != n_) res.valid = BitVec(n_); else res.valid.fill(false);
  for (std::size_t j = 0; j < n_; ++j) {
    if ((out[j] & 1u) != 0) res.data.set(j, true);
    if ((out[n_ + j] & 1u) != 0) res.valid.set(j, true);
  }
}

std::uint32_t GateLevelSwitch::data_path_depth() const {
  auto depths = circuit_.output_depths_from(data_inputs_);
  std::int64_t best = 0;
  for (std::size_t j = 0; j < n_; ++j) best = std::max(best, depths[j]);
  return static_cast<std::uint32_t>(best);
}

std::uint32_t GateLevelSwitch::control_path_depth() const {
  auto depths = circuit_.output_depths_from(valid_inputs_);
  std::int64_t best = 0;
  for (std::int64_t d : depths) best = std::max(best, d);
  return static_cast<std::uint32_t>(best);
}

}  // namespace pcs::sw
