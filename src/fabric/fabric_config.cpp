#include "fabric/fabric_config.hpp"

#include <utility>

#include "fabric/make_fabric.hpp"
#include "traffic/trace.hpp"
#include "util/assert.hpp"

namespace pcs::fabric {

FabricSpec fabric_spec_from(const rt::RuntimeConfig& cfg,
                            const std::string& family) {
  PCS_REQUIRE(!cfg.topology.empty(),
              "fabric_spec_from needs a non-empty topology");
  FabricSpec spec;
  spec.topology = topology_from_string(cfg.topology);
  spec.hops = cfg.fabric_hops;
  spec.radix = cfg.fabric_radix;
  spec.credits = cfg.fabric_credits;
  spec.alloc = cfg.fabric_alloc;
  spec.route = cfg.fabric_route;
  spec.deflect_max = cfg.fabric_deflect_max;
  spec.fault_hop = cfg.fault_hop;
  spec.node = rt::switch_spec_from(cfg, family);
  return spec;
}

FabricOptions fabric_options_from(const rt::RuntimeConfig& cfg) {
  FabricOptions opts;
  opts.queue_depth = cfg.queue_depth;
  opts.seed = cfg.seed;
  opts.warmup_epochs = cfg.warmup_epochs;
  opts.measure_epochs = cfg.measure_epochs;
  opts.drain_epochs_max = cfg.drain_epochs_max;
  opts.check_invariants = cfg.check_invariants;
  opts.epochs_in_flight = cfg.fabric_epochs_in_flight;
  return opts;
}

std::unique_ptr<FabricSim> make_fabric_sim(const rt::RuntimeConfig& cfg,
                                           const std::string& family,
                                           double arrival_p) {
  rt::RuntimeConfig point = cfg;
  point.arrival_p = arrival_p;
  FabricSim::TrafficFactory traffic;
  if (!cfg.replay.empty()) {
    // A fabric campaign has one source bundle, so the recording's stream 0
    // is the whole offered history.
    auto log = std::make_shared<const traffic::TraceLog>(
        traffic::TraceLog::read_file(cfg.replay));
    traffic = [log](std::size_t width) {
      PCS_REQUIRE(log->width == width,
                  "replay trace width " << log->width
                                        << " does not match fabric sources "
                                        << width);
      return traffic::make_replay(log, 0);
    };
  } else {
    traffic = [point](std::size_t width) {
      return rt::make_traffic(point, width);
    };
  }
  // The runtime constructs fabrics exclusively through the public
  // make_fabric entry point, as it builds switches only through make_switch.
  return pcs::make_fabric(fabric_spec_from(cfg, family),
                          fabric_options_from(cfg), std::move(traffic));
}

}  // namespace pcs::fabric
