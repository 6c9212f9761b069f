#include "switch/hyper_switch.hpp"

#include <bit>
#include <sstream>

#include "util/assert.hpp"
#include "util/parallel.hpp"

namespace pcs::sw {

HyperSwitch::HyperSwitch(std::size_t n, std::size_t m) : chip_(n), m_(m) {
  PCS_REQUIRE(m >= 1 && m <= n, "HyperSwitch m range: m=" << m << " n=" << n);
}

SwitchRouting HyperSwitch::route(const BitVec& valid) const {
  hyper::Routing r = chip_.route(valid);
  SwitchRouting out;
  out.output_of_input.assign(chip_.n(), -1);
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

BitVec HyperSwitch::nearsorted_valid_bits(const BitVec& valid) const {
  return chip_.output_valid_bits(valid);
}

std::vector<SwitchRouting> HyperSwitch::route_batch(
    const std::vector<BitVec>& valids) const {
  const std::size_t n = chip_.n();
  std::vector<SwitchRouting> out(valids.size());
  parallel_for_work(valids.size(), n, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const BitVec& valid = valids[i];
      PCS_REQUIRE(valid.size() == n,
                  "HyperSwitch::route_batch width: pattern " << i << " of "
                  << valids.size() << " has " << valid.size()
                  << " bits, switch has n=" << n);
      SwitchRouting& out_i = out[i];
      out_i.output_of_input.assign(n, -1);
      out_i.input_of_output.assign(m_, -1);
      std::size_t j = 0;
      const auto& words = valid.words();
      for (std::size_t wi = 0; wi < words.size() && j < m_; ++wi) {
        std::uint64_t w = words[wi];
        while (w != 0 && j < m_) {
          const std::size_t x =
              wi * 64 + static_cast<std::size_t>(std::countr_zero(w));
          w &= w - 1;
          out_i.input_of_output[j] = static_cast<std::int32_t>(x);
          out_i.output_of_input[x] = static_cast<std::int32_t>(j);
          ++j;
        }
      }
    }
  });
  return out;
}

std::vector<BitVec> HyperSwitch::nearsorted_batch(
    const std::vector<BitVec>& valids) const {
  const std::size_t n = chip_.n();
  std::vector<BitVec> out(valids.size());
  parallel_for_work(valids.size(), n, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      PCS_REQUIRE(valids[i].size() == n,
                  "HyperSwitch::nearsorted_batch width: pattern " << i << " of "
                  << valids.size() << " has " << valids[i].size()
                  << " bits, switch has n=" << n);
      out[i] = BitVec::prefix_ones(n, valids[i].count());
    }
  });
  return out;
}

std::string HyperSwitch::name() const {
  std::ostringstream os;
  os << "hyperconcentrator(" << chip_.n() << "," << m_ << ")";
  return os.str();
}

Bom HyperSwitch::bill_of_materials() const {
  Bom bom;
  bom.items.push_back(
      ChipSpec{ChipKind::kHyperconcentrator, chip_.n(), 2 * chip_.n(), 0, 1});
  return bom;
}

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
