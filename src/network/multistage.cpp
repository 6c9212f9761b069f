#include "network/multistage.hpp"

#include <algorithm>

#include "switch/make_switch.hpp"
#include "util/assert.hpp"
#include "util/mathutil.hpp"

namespace pcs::net {

MultistageNetwork::MultistageNetwork(std::size_t sources,
                                     const std::vector<LevelSpec>& levels,
                                     const SwitchFactory& factory)
    : sources_(sources) {
  PCS_REQUIRE(sources > 0, "MultistageNetwork sources");
  PCS_REQUIRE(!levels.empty(), "MultistageNetwork needs at least one level");
  std::size_t width = sources;
  for (const LevelSpec& spec : levels) {
    PCS_REQUIRE(spec.fan_in > 0 && spec.fan_out > 0 && spec.fan_out <= spec.fan_in,
                "MultistageNetwork level spec");
    PCS_REQUIRE(width % spec.fan_in == 0,
                "MultistageNetwork fan_in must divide the level width");
    Stage stage;
    stage.fan_in = spec.fan_in;
    stage.fan_out = spec.fan_out;
    const std::size_t count = width / spec.fan_in;
    stage.switches.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      auto sw = factory(spec.fan_in, spec.fan_out);
      PCS_REQUIRE(sw != nullptr && sw->inputs() == spec.fan_in &&
                      sw->outputs() == spec.fan_out,
                  "MultistageNetwork factory produced a mismatched switch");
      stage.switches.push_back(std::move(sw));
    }
    width = count * spec.fan_out;
    stages_.push_back(std::move(stage));
  }
}

std::size_t MultistageNetwork::trunk_width() const {
  const Stage& last = stages_.back();
  return last.switches.size() * last.fan_out;
}

std::size_t MultistageNetwork::switches_at(std::size_t level) const {
  PCS_REQUIRE(level < stages_.size(), "MultistageNetwork level index");
  return stages_[level].switches.size();
}

std::size_t MultistageNetwork::total_switches() const {
  std::size_t total = 0;
  for (const Stage& s : stages_) total += s.switches.size();
  return total;
}

const pcs::sw::ConcentratorSwitch& MultistageNetwork::switch_at(
    std::size_t level, std::size_t index) const {
  PCS_REQUIRE(level < stages_.size(), "MultistageNetwork level index");
  PCS_REQUIRE(index < stages_[level].switches.size(), "MultistageNetwork node index");
  return *stages_[level].switches[index];
}

MultistageNetwork::ShotResult MultistageNetwork::route_once(const BitVec& valid) const {
  PCS_REQUIRE(valid.size() == sources_, "MultistageNetwork::route_once width");
  ShotResult result;
  result.offered = valid.count();

  // wires[w] = source index carried by wire w at the current level, or -1.
  std::vector<std::int32_t> wires(sources_, -1);
  for (std::size_t i = 0; i < sources_; ++i) {
    if (valid.get(i)) wires[i] = static_cast<std::int32_t>(i);
  }

  for (const Stage& stage : stages_) {
    const std::size_t count = stage.switches.size();
    std::vector<std::int32_t> next(count * stage.fan_out, -1);
    std::size_t survivors = 0;
    for (std::size_t g = 0; g < count; ++g) {
      BitVec group_valid(stage.fan_in);
      for (std::size_t i = 0; i < stage.fan_in; ++i) {
        group_valid.set(i, wires[g * stage.fan_in + i] >= 0);
      }
      pcs::sw::SwitchRouting r = stage.switches[g]->route(group_valid);
      for (std::size_t j = 0; j < stage.fan_out; ++j) {
        std::int32_t local = r.input_of_output[j];
        if (local >= 0) {
          next[g * stage.fan_out + j] =
              wires[g * stage.fan_in + static_cast<std::size_t>(local)];
          ++survivors;
        }
      }
    }
    wires = std::move(next);
    result.survivors.push_back(survivors);
  }

  result.trunk_output_of_source.assign(sources_, -1);
  for (std::size_t w = 0; w < wires.size(); ++w) {
    if (wires[w] >= 0) {
      result.trunk_output_of_source[static_cast<std::size_t>(wires[w])] =
          static_cast<std::int32_t>(w);
    }
  }
  return result;
}

std::size_t MultistageNetwork::guaranteed_end_to_end_capacity() const {
  std::size_t cap = sources_;
  for (const Stage& s : stages_) {
    cap = std::min(cap, s.switches[0]->guaranteed_capacity());
  }
  return cap;
}

double MultistageNetwork::SimStats::delivery_rate() const {
  return offered == 0 ? 1.0
                      : static_cast<double>(delivered) / static_cast<double>(offered);
}

double MultistageNetwork::SimStats::mean_latency() const {
  return delivered == 0 ? 0.0 : total_latency_rounds / static_cast<double>(delivered);
}

MultistageNetwork::SimStats MultistageNetwork::simulate(double arrival_p,
                                                        std::size_t rounds,
                                                        Rng& rng) const {
  SimStats stats;
  stats.rounds = rounds;
  stats.cut_at_level.assign(levels(), 0);
  std::vector<std::int64_t> born(sources_, -1);
  for (std::size_t round = 0; round < rounds; ++round) {
    for (std::size_t i = 0; i < sources_; ++i) {
      if (born[i] < 0 && rng.chance(arrival_p)) {
        born[i] = static_cast<std::int64_t>(round);
        ++stats.offered;
      }
    }
    BitVec valid(sources_);
    std::size_t backlog = 0;
    for (std::size_t i = 0; i < sources_; ++i) {
      if (born[i] >= 0) {
        valid.set(i, true);
        ++backlog;
      }
    }
    stats.max_backlog = std::max(stats.max_backlog, backlog);
    if (backlog == 0) continue;

    ShotResult shot = route_once(valid);
    std::size_t entering = backlog;
    for (std::size_t l = 0; l < shot.survivors.size(); ++l) {
      stats.cut_at_level[l] += entering - shot.survivors[l];
      entering = shot.survivors[l];
    }
    for (std::size_t i = 0; i < sources_; ++i) {
      if (born[i] >= 0 && shot.trunk_output_of_source[i] >= 0) {
        stats.total_latency_rounds +=
            static_cast<double>(round - static_cast<std::size_t>(born[i]));
        ++stats.delivered;
        born[i] = -1;
      }
    }
  }
  return stats;
}

SwitchFactory hyper_factory() {
  return [](std::size_t inputs, std::size_t outputs) {
    return pcs::make_switch({"hyper", inputs, outputs});
  };
}

SwitchFactory revsort_or_hyper_factory() {
  return [](std::size_t inputs,
            std::size_t outputs) -> std::unique_ptr<pcs::sw::ConcentratorSwitch> {
    std::size_t side = isqrt(inputs);
    if (side * side == inputs && is_pow2(side)) {
      return pcs::make_switch({"revsort", inputs, outputs});
    }
    return pcs::make_switch({"hyper", inputs, outputs});
  };
}

}  // namespace pcs::net
