#include "fabric/make_fabric.hpp"

#include <utility>

namespace pcs {

std::unique_ptr<fabric::FabricSim> make_fabric(
    FabricSpec spec, fabric::FabricOptions opts,
    fabric::FabricSim::TrafficFactory traffic) {
  // FabricSim's FabricGraph member validates the spec before the node plan
  // compiles, so a bad spec still fails before any switch exists.
  return std::make_unique<fabric::FabricSim>(std::move(spec), std::move(opts),
                                             std::move(traffic));
}

}  // namespace pcs
