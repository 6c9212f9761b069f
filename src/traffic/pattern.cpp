#include "traffic/pattern.hpp"

#include <sstream>

#include "util/assert.hpp"

namespace pcs::traffic {
namespace {

bool power_of_two(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

std::size_t log2_exact(std::size_t n) {
  std::size_t b = 0;
  while ((std::size_t{1} << b) < n) ++b;
  return b;
}

}  // namespace

PatternKind pattern_from_string(const std::string& s) {
  if (s == "uniform") return PatternKind::kUniform;
  if (s == "transpose") return PatternKind::kTranspose;
  if (s == "bitcomp") return PatternKind::kBitComp;
  if (s == "bitrev") return PatternKind::kBitRev;
  if (s == "shuffle") return PatternKind::kShuffle;
  if (s == "tornado") return PatternKind::kTornado;
  if (s == "hotspot") return PatternKind::kHotspot;
  if (s == "adversarial") return PatternKind::kAdversarial;
  PCS_REQUIRE(false, "unknown traffic pattern '" + s + "'");
  return PatternKind::kUniform;  // unreachable
}

const char* pattern_name(PatternKind kind) noexcept {
  switch (kind) {
    case PatternKind::kUniform: return "uniform";
    case PatternKind::kTranspose: return "transpose";
    case PatternKind::kBitComp: return "bitcomp";
    case PatternKind::kBitRev: return "bitrev";
    case PatternKind::kShuffle: return "shuffle";
    case PatternKind::kTornado: return "tornado";
    case PatternKind::kHotspot: return "hotspot";
    case PatternKind::kAdversarial: return "adversarial";
  }
  return "?";
}

bool is_permutation(PatternKind kind) noexcept {
  switch (kind) {
    case PatternKind::kTranspose:
    case PatternKind::kBitComp:
    case PatternKind::kBitRev:
    case PatternKind::kShuffle:
    case PatternKind::kTornado:
      return true;
    default:
      return false;
  }
}

void require_addressable(PatternKind kind, std::size_t n) {
  PCS_REQUIRE(n >= 1, "traffic pattern needs at least one endpoint");
  switch (kind) {
    case PatternKind::kTranspose: {
      if (!power_of_two(n) || (log2_exact(n) % 2) != 0) {
        std::ostringstream os;
        os << "pattern 'transpose' needs an even power-of-two endpoint count "
              "(4^k), got "
           << n;
        PCS_REQUIRE(false, os.str());
      }
      break;
    }
    case PatternKind::kBitComp:
    case PatternKind::kBitRev:
    case PatternKind::kShuffle: {
      if (!power_of_two(n)) {
        std::ostringstream os;
        os << "pattern '" << pattern_name(kind)
           << "' needs a power-of-two endpoint count, got " << n;
        PCS_REQUIRE(false, os.str());
      }
      break;
    }
    default:
      break;  // tornado/uniform/hotspot/adversarial work at any n
  }
}

std::size_t permute_dest(PatternKind kind, std::size_t src, std::size_t n) {
  require_addressable(kind, n);
  PCS_REQUIRE(src < n, "permute_dest source out of range");
  const std::size_t bits = log2_exact(n);
  switch (kind) {
    case PatternKind::kTranspose: {
      const std::size_t half = bits / 2;
      const std::size_t lo_mask = (std::size_t{1} << half) - 1;
      return (src >> half) | ((src & lo_mask) << half);
    }
    case PatternKind::kBitComp:
      return (~src) & (n - 1);
    case PatternKind::kBitRev: {
      std::size_t out = 0;
      for (std::size_t b = 0; b < bits; ++b) {
        out = (out << 1) | ((src >> b) & 1);
      }
      return out;
    }
    case PatternKind::kShuffle:
      // One wire (bits == 0) has nothing to rotate, and a shift by
      // bits - 1 would be undefined.
      if (bits == 0) return 0;
      return ((src << 1) | (src >> (bits - 1))) & (n - 1);
    case PatternKind::kTornado:
      return (src + (n + 1) / 2 - 1) % n;
    default:
      PCS_REQUIRE(false, "permute_dest: not a permutation pattern");
      return 0;  // unreachable
  }
}

std::size_t hotspot_wires(std::size_t width, double fraction) {
  PCS_REQUIRE(fraction > 0.0 && fraction <= 1.0,
              "hotspot_fraction must be in (0,1]");
  const auto hot = static_cast<std::size_t>(static_cast<double>(width) * fraction);
  return hot < 1 ? 1 : (hot > width ? width : hot);
}

std::vector<double> rate_profile(PatternKind kind, std::size_t width, double p,
                                 double hotspot_fraction) {
  PCS_REQUIRE(p >= 0.0 && p <= 1.0, "traffic intensity must be in [0,1]");
  std::vector<double> rates(width, p);
  if (kind == PatternKind::kHotspot) {
    const std::size_t hot = hotspot_wires(width, hotspot_fraction);
    const double p_hot = 4.0 * p > 1.0 ? 1.0 : 4.0 * p;
    const double p_cold = p / 2.0;
    for (std::size_t i = 0; i < width; ++i) rates[i] = i < hot ? p_hot : p_cold;
  }
  return rates;
}

BitVec adversarial_layout(std::size_t width, std::size_t k, std::size_t chip_w,
                          std::size_t index) {
  PCS_REQUIRE(width >= 1, "adversarial_layout width");
  PCS_REQUIRE(k <= width, "adversarial_layout k");
  PCS_REQUIRE(chip_w >= 1, "adversarial_layout chip width");
  BitVec out(width);
  std::size_t placed = 0;
  switch (index % kAdversarialFamilySize) {
    case 0:  // prefix block
      for (std::size_t i = 0; i < k; ++i) out.set(i, true);
      break;
    case 1:  // suffix block
      for (std::size_t i = 0; i < k; ++i) out.set(width - 1 - i, true);
      break;
    case 2:  // even stride across the whole width
      if (k > 0) {
        for (std::size_t i = 0; i < k; ++i) out.set((i * width) / k, true);
      }
      break;
    case 3:  // first pins of each chip first (fills chips breadth-first)
      for (std::size_t pin = 0; pin < chip_w && placed < k; ++pin) {
        for (std::size_t chip = 0; chip * chip_w + pin < width && placed < k;
             ++chip) {
          out.set(chip * chip_w + pin, true);
          ++placed;
        }
      }
      break;
    case 4:  // diagonal within chips
      for (std::size_t d = 0; placed < k; ++d) {
        for (std::size_t chip = 0; chip * chip_w < width && placed < k; ++chip) {
          std::size_t idx = chip * chip_w + ((chip + d) % chip_w);
          if (idx < width && !out.get(idx)) {
            out.set(idx, true);
            ++placed;
          }
        }
        if (d > width) break;  // safety for degenerate shapes
      }
      break;
  }
  return out;
}

}  // namespace pcs::traffic
