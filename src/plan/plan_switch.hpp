// PlanSwitch: any compiled (or fault-rewritten) SwitchPlan behind the
// ConcentratorSwitch interface.  This is how family-agnostic consumers --
// the clocked simulator, the runtime, the fuzzer's fault family -- run a
// plan without knowing which compiler produced it.
#pragma once

#include <utility>

#include "plan/plan_executor.hpp"
#include "switch/concentrator.hpp"

namespace pcs::plan {

class PlanSwitch : public sw::ConcentratorSwitch {
 public:
  explicit PlanSwitch(SwitchPlan plan) : exec_(std::move(plan)) {}

  std::size_t inputs() const override { return exec_.inputs(); }
  std::size_t outputs() const override { return exec_.outputs(); }
  std::size_t epsilon_bound() const override { return exec_.plan().epsilon; }
  sw::SwitchRouting route(const BitVec& valid) const override {
    return exec_.route(valid);
  }
  BitVec nearsorted_valid_bits(const BitVec& valid) const override {
    return exec_.nearsorted_valid_bits(valid);
  }
  std::vector<sw::SwitchRouting> route_batch(
      const std::vector<BitVec>& valids) const override {
    return exec_.route_batch(valids);
  }
  void route_batch_mask(const std::vector<BitVec>& valids,
                        std::vector<BitVec>& routed) const override {
    exec_.route_batch_mask(valids, routed);
  }
  std::vector<BitVec> nearsorted_batch(
      const std::vector<BitVec>& valids) const override {
    return exec_.nearsorted_batch(valids);
  }
  std::string name() const override { return exec_.plan().name; }

  const SwitchPlan& plan() const noexcept { return exec_.plan(); }
  const PlanExecutor& executor() const noexcept { return exec_; }

  /// Upper bound on messages a setup can lose to the plan's dead chips.
  std::size_t max_fault_loss() const noexcept override {
    return exec_.plan().max_fault_loss;
  }

 private:
  PlanExecutor exec_;
};

}  // namespace pcs::plan
