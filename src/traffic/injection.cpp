#include "traffic/injection.hpp"

#include <sstream>

#include "util/assert.hpp"

namespace pcs::traffic {
namespace {

void require_rates(const std::vector<double>& rates, const char* what) {
  for (double r : rates) {
    PCS_REQUIRE(r >= 0.0 && r <= 1.0, what);
  }
}

/// One Bernoulli bit per wire in ascending order, packed straight into
/// words.  `draw(i)` is wire i's trial and must consume exactly the raw
/// draws Rng::chance would, which keeps the pinned streams.
template <class Draw>
BitVec draw_bits(std::size_t width, Draw&& draw) {
  std::vector<std::uint64_t> words((width + 63) / 64, 0);
  for (std::size_t i = 0; i < width; ++i) {
    words[i >> 6] |= static_cast<std::uint64_t>(draw(i)) << (i & 63);
  }
  return BitVec::from_words(std::move(words), width);
}

}  // namespace

BernoulliProcess::BernoulliProcess(std::size_t width, double p)
    : InjectionProcess(width), rates_(width, p), flat_(true) {
  PCS_REQUIRE(p >= 0.0 && p <= 1.0, "BernoulliProcess p");
}

BernoulliProcess::BernoulliProcess(std::vector<double> rates)
    : InjectionProcess(rates.size()), rates_(std::move(rates)) {
  require_rates(rates_, "BernoulliProcess rate");
  flat_ = true;
  for (double r : rates_) {
    if (r != rates_.front()) {
      flat_ = false;
      break;
    }
  }
}

BitVec BernoulliProcess::next(Rng& rng) {
  // The per-bit loop in ascending index order draws exactly the uniforms
  // Rng::bernoulli_bits(width, p) would, so flat profiles stay bit-identical
  // with the pinned arrival=bernoulli stream.
  // Rates were range-checked at construction, so each wire's trial is
  // chance()'s comparison without its per-call check.
  return draw_bits(width_,
                   [&](std::size_t i) { return rng.uniform01() < rates_[i]; });
}

std::string BernoulliProcess::name() const {
  std::ostringstream os;
  if (flat_) {
    os << "bernoulli(p=" << (rates_.empty() ? 0.0 : rates_.front()) << ")";
  } else {
    os << "bernoulli(profiled/" << width_ << ")";
  }
  return os.str();
}

OnOffProcess::OnOffProcess(std::size_t width, double p_on, double p_off,
                           double on_to_off, double off_to_on)
    : OnOffProcess(std::vector<double>(width, p_on),
                   std::vector<double>(width, p_off), on_to_off, off_to_on) {}

OnOffProcess::OnOffProcess(std::vector<double> p_on, std::vector<double> p_off,
                           double on_to_off, double off_to_on)
    : InjectionProcess(p_on.size()),
      p_on_(std::move(p_on)),
      p_off_(std::move(p_off)),
      on_to_off_(on_to_off),
      off_to_on_(off_to_on),
      state_on_(width_, false) {
  PCS_REQUIRE(p_on_.size() == p_off_.size(), "OnOffProcess rate vectors");
  require_rates(p_on_, "OnOffProcess p");
  require_rates(p_off_, "OnOffProcess p");
  PCS_REQUIRE(on_to_off >= 0 && on_to_off <= 1 && off_to_on >= 0 && off_to_on <= 1,
              "OnOffProcess transitions");
}

BitVec OnOffProcess::next(Rng& rng) {
  return draw_bits(width_, [&](std::size_t i) {
    if (state_on_[i]) {
      if (rng.uniform01() < on_to_off_) state_on_[i] = false;
    } else {
      if (rng.uniform01() < off_to_on_) state_on_[i] = true;
    }
    return rng.uniform01() < (state_on_[i] ? p_on_[i] : p_off_[i]);
  });
}

std::string OnOffProcess::name() const {
  std::ostringstream os;
  os << "onoff(on=" << (p_on_.empty() ? 0.0 : p_on_.front())
     << ",off=" << (p_off_.empty() ? 0.0 : p_off_.front()) << ")";
  return os.str();
}

ExactCountProcess::ExactCountProcess(std::size_t width, std::size_t k)
    : InjectionProcess(width), k_(k) {
  PCS_REQUIRE(k <= width, "ExactCountProcess k");
}

BitVec ExactCountProcess::next(Rng& rng) {
  return rng.exact_weight_bits(width_, k_);
}

std::string ExactCountProcess::name() const {
  std::ostringstream os;
  os << "exact(k=" << k_ << ")";
  return os.str();
}

}  // namespace pcs::traffic
