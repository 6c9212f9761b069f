#include "switch/concentrator.hpp"

#include <algorithm>

#include "util/parallel.hpp"

namespace pcs::sw {

std::size_t SwitchRouting::routed_count() const noexcept {
  std::size_t k = 0;
  for (std::int32_t o : output_of_input) {
    if (o >= 0) ++k;
  }
  return k;
}

bool SwitchRouting::is_partial_injection() const noexcept {
  for (std::size_t i = 0; i < output_of_input.size(); ++i) {
    std::int32_t o = output_of_input[i];
    if (o < 0) continue;
    if (static_cast<std::size_t>(o) >= input_of_output.size()) return false;
    if (input_of_output[static_cast<std::size_t>(o)] != static_cast<std::int32_t>(i)) {
      return false;
    }
  }
  for (std::size_t j = 0; j < input_of_output.size(); ++j) {
    std::int32_t i = input_of_output[j];
    if (i < 0) continue;
    if (static_cast<std::size_t>(i) >= output_of_input.size()) return false;
    if (output_of_input[static_cast<std::size_t>(i)] != static_cast<std::int32_t>(j)) {
      return false;
    }
  }
  return true;
}

std::vector<SwitchRouting> ConcentratorSwitch::route_batch(
    const std::vector<BitVec>& valids) const {
  std::vector<SwitchRouting> out(valids.size());
  parallel_for_work(valids.size(), inputs(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) out[i] = route(valids[i]);
  });
  return out;
}

void ConcentratorSwitch::route_batch_mask(const std::vector<BitVec>& valids,
                                          std::vector<BitVec>& routed) const {
  const std::vector<SwitchRouting> routings = route_batch(valids);
  if (routed.size() < routings.size()) routed.resize(routings.size());
  for (std::size_t i = 0; i < routings.size(); ++i) {
    routed_inputs(routings[i], routed[i]);
  }
}

void routed_inputs(const SwitchRouting& routing, BitVec& routed) {
  routed.reset(routing.output_of_input.size());
  for (std::size_t x = 0; x < routing.output_of_input.size(); ++x) {
    if (routing.output_of_input[x] >= 0) routed.set(x, true);
  }
}

std::vector<BitVec> ConcentratorSwitch::nearsorted_batch(
    const std::vector<BitVec>& valids) const {
  std::vector<BitVec> out(valids.size());
  parallel_for_work(valids.size(), inputs(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) out[i] = nearsorted_valid_bits(valids[i]);
  });
  return out;
}

double ConcentratorSwitch::load_ratio_bound() const {
  const double m = static_cast<double>(outputs());
  if (m == 0) return 0.0;
  double alpha = 1.0 - static_cast<double>(epsilon_bound()) / m;
  return std::clamp(alpha, 0.0, 1.0);
}

std::size_t ConcentratorSwitch::guaranteed_capacity() const {
  std::size_t m = outputs();
  std::size_t eps = epsilon_bound();
  return eps >= m ? 0 : m - eps;
}

bool concentration_contract_holds(const ConcentratorSwitch& sw, const BitVec& valid,
                                  const SwitchRouting& routing) {
  if (!routing.is_partial_injection()) return false;
  const std::size_t k = valid.count();
  const std::size_t capacity = sw.guaranteed_capacity();
  const std::size_t routed = routing.routed_count();
  if (k <= capacity) {
    return routed == k;  // every valid message must have been routed
  }
  return routed >= std::min(capacity, k);
}

}  // namespace pcs::sw
