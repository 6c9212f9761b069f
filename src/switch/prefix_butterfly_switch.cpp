#include "switch/prefix_butterfly_switch.hpp"

#include <sstream>

#include "util/assert.hpp"

namespace pcs::sw {

PrefixButterflyHyperSwitch::PrefixButterflyHyperSwitch(std::size_t n, std::size_t m)
    : fabric_(n), m_(m) {
  PCS_REQUIRE(m >= 1 && m <= n,
              "PrefixButterflyHyperSwitch m range: m=" << m << " n=" << n);
}

std::size_t PrefixButterflyHyperSwitch::inputs() const { return fabric_.n(); }

SwitchRouting PrefixButterflyHyperSwitch::route(const BitVec& valid) const {
  hyper::Routing r = fabric_.route(valid);
  SwitchRouting out;
  out.output_of_input.assign(fabric_.n(), -1);
  out.input_of_output.assign(m_, -1);
  for (std::size_t j = 0; j < m_; ++j) {
    std::int32_t src = r.input_of_output[j];
    if (src >= 0) {
      out.input_of_output[j] = src;
      out.output_of_input[static_cast<std::size_t>(src)] =
          static_cast<std::int32_t>(j);
    }
  }
  return out;
}

BitVec PrefixButterflyHyperSwitch::nearsorted_valid_bits(const BitVec& valid) const {
  PCS_REQUIRE(valid.size() == fabric_.n(),
              "PrefixButterflyHyperSwitch width: pattern has " << valid.size()
              << " bits, switch has n=" << fabric_.n());
  return BitVec::prefix_ones(fabric_.n(), valid.count());
}

std::string PrefixButterflyHyperSwitch::name() const {
  std::ostringstream os;
  os << "prefix-butterfly(" << fabric_.n() << "," << m_ << ")";
  return os.str();
}

}  // namespace pcs::sw
