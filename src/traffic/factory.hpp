// The one construction point for traffic sources.  Every campaign layer
// (runtime, fabric, daemon, CLIs, benches) builds its sources here.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "switch/concentrator.hpp"
#include "traffic/traffic_source.hpp"

namespace pcs::traffic {

/// Declarative description of a source.  Defaults reproduce the legacy
/// arrival processes exactly: `bernoulli` = uniform x bernoulli, `exact` =
/// uniform x exact(k = round(p * width)), `bursty` = uniform x onoff with
/// p_on = min(1, 3p), p_off = p/3, 0.05 transitions, `hotspot` = hotspot x
/// bernoulli (hot block at min(1, 4p), cold at p/2).
struct TrafficSpec {
  std::size_t width = 0;
  /// uniform | transpose | bitcomp | bitrev | shuffle | tornado | hotspot |
  /// adversarial | worstcase.
  std::string pattern = "uniform";
  /// bernoulli | onoff | exact.  Ignored by adversarial/worstcase, whose
  /// valid-bit streams are deterministic with k = round(intensity * width).
  std::string injection = "bernoulli";
  double intensity = 0.25;  ///< nominal per-wire intensity p

  double hotspot_fraction = 0.125;  ///< hot block fraction, in (0,1]

  // On-off shape (legacy bursty defaults): p_on = min(1, on_scale * rate),
  // p_off = min(1, off_scale * rate) per wire of the pattern's rate profile.
  double on_scale = 3.0;
  double off_scale = 1.0 / 3.0;
  double on_to_off = 0.05;
  double off_to_on = 0.05;

  std::size_t chip_w = 8;  ///< chip width for the structured adversarial family

  /// worstcase pattern only: the switch to stress plus the search shape.
  /// The search runs once at construction; the source then replays the
  /// worst pattern found every epoch.
  const sw::ConcentratorSwitch* search_switch = nullptr;
  std::size_t search_restarts = 8;
  std::size_t search_steps = 200;
  std::uint64_t search_seed = 1;
};

/// True when `s` is a known pattern keyword (including "worstcase").
bool known_pattern(const std::string& s);

/// True when `s` is a known injection keyword.
bool known_injection(const std::string& s);

/// Build a source.  Throws ContractViolation on unknown keywords, invalid
/// intensities or fractions (naming the field), patterns that cannot
/// address the width, or worstcase without a switch.
std::unique_ptr<TrafficSource> make_source(const TrafficSpec& spec);

}  // namespace pcs::traffic
