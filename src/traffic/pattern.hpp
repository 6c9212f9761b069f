// Spatial traffic patterns: the booksim-style vocabulary of *where* load
// lands, independent of *when* it is injected (that is injection.hpp).
//
// A pattern plays two roles depending on the campaign kind:
//
//  * Single-switch campaigns consume valid-bit vectors, so a pattern
//    contributes a per-wire intensity profile (`rate_profile`) that the
//    injection process modulates -- uniform for most patterns, skewed for
//    hotspot, and fully deterministic layouts for the adversarial family.
//
//  * Fabric campaigns consume destination-addressed flits, so a pattern
//    contributes a destination map (`permute_dest` for the permutation
//    patterns, a biased draw for hotspot, a uniform draw otherwise).
//
// The permutation patterns follow the classic definitions: transpose swaps
// the high and low address-bit halves (needs an even bit count), bitcomp
// complements every address bit, bitrev mirrors them, shuffle rotates left
// by one, and tornado sends to (src + ceil(N/2) - 1) mod N at any N.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/bitvec.hpp"

namespace pcs::traffic {

enum class PatternKind : unsigned char {
  kUniform,
  kTranspose,
  kBitComp,
  kBitRev,
  kShuffle,
  kTornado,
  kHotspot,
  kAdversarial,
};

/// Parse a pattern keyword (uniform|transpose|bitcomp|bitrev|shuffle|
/// tornado|hotspot|adversarial).  Throws ContractViolation on anything else.
PatternKind pattern_from_string(const std::string& s);

/// Canonical keyword for the kind (inverse of pattern_from_string).
const char* pattern_name(PatternKind kind) noexcept;

/// True for the deterministic address-permutation patterns (transpose,
/// bitcomp, bitrev, shuffle, tornado); these consume no randomness in
/// destination mode, which keeps trace replay and determinism trivial.
bool is_permutation(PatternKind kind) noexcept;

/// Validate that `kind` can address `n` endpoints in destination mode:
/// bit-manipulating patterns need a power of two, transpose additionally an
/// even number of address bits.  Throws ContractViolation naming the
/// pattern and the offending n.
void require_addressable(PatternKind kind, std::size_t n);

/// Destination of `src` under a permutation pattern over `n` endpoints.
/// Pre: is_permutation(kind), src < n, require_addressable passes.
std::size_t permute_dest(PatternKind kind, std::size_t src, std::size_t n);

/// Per-wire intensity profile for valid-bit campaigns: entry i is the
/// Bernoulli/Markov base rate of wire i given nominal per-input intensity
/// `p`.  Every pattern is flat at p except hotspot, which reproduces the
/// arrival=hotspot shape: the first max(1, floor(width*fraction))
/// wires run at min(1, 4p) and the rest at p/2, so `p` stays a *per-input*
/// nominal intensity that the hot block front-loads (aggregate offered load
/// is approximately 15/16 of width*p at fraction 1/8, not width*p).
std::vector<double> rate_profile(PatternKind kind, std::size_t width, double p,
                                 double hotspot_fraction);

/// Number of wires in the hotspot block: max(1, floor(width * fraction)).
/// Throws ContractViolation naming "hotspot_fraction" unless 0 < fraction <= 1.
std::size_t hotspot_wires(std::size_t width, double fraction);

/// Number of structured layouts in the adversarial family.
inline constexpr std::size_t kAdversarialFamilySize = 5;

/// Structured adversarial layout number `index % kAdversarialFamilySize`
/// with exactly min(k, width) valid bits: prefix block, suffix block, even
/// stride, chip-breadth-first pins, diagonal within chips of width chip_w.
/// These historically maximize measured nearsortedness epsilon for
/// mesh-based switches.
BitVec adversarial_layout(std::size_t width, std::size_t k, std::size_t chip_w,
                          std::size_t index);

}  // namespace pcs::traffic
