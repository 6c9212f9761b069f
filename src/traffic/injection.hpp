// Injection processes: the booksim-style vocabulary of *when* load is
// injected, independent of *where* it lands (that is pattern.hpp).
//
// A process turns a per-wire rate profile into one valid-bit vector per
// epoch.  The three processes keep the Rng call order of the generators
// they replaced, so every campaign replays its historical random stream bit
// for bit (the golden-pinned stream hashes in the traffic suite depend on
// this):
//
//  * Bernoulli draws one uniform per wire in ascending index order, which
//    is precisely Rng::bernoulli_bits when the profile is flat.
//  * OnOff runs one two-state Markov chain per wire -- per wire, first the
//    state-transition draw, then the emission draw.
//  * ExactCount places exactly k bits via Rng::exact_weight_bits (Floyd)
//    and ignores the spatial profile by construction.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "util/bitvec.hpp"
#include "util/rng.hpp"

namespace pcs::traffic {

class InjectionProcess {
 public:
  virtual ~InjectionProcess() = default;
  virtual BitVec next(Rng& rng) = 0;
  virtual std::string name() const = 0;
  std::size_t width() const noexcept { return width_; }

 protected:
  explicit InjectionProcess(std::size_t width) : width_(width) {}
  std::size_t width_;
};

/// Independent Bernoulli draws against a per-wire rate vector.  With a flat
/// vector this emits the same stream as Rng::bernoulli_bits(width, p).
class BernoulliProcess : public InjectionProcess {
 public:
  BernoulliProcess(std::size_t width, double p);
  BernoulliProcess(std::vector<double> rates);
  BitVec next(Rng& rng) override;
  std::string name() const override;

 private:
  std::vector<double> rates_;
  bool flat_;
};

/// Per-wire two-state Markov chain (on-off bursty).  Per-wire rate scaling
/// comes in through the p_on/p_off vectors; the flat constructor emits the
/// pinned arrival=bursty stream.
class OnOffProcess : public InjectionProcess {
 public:
  OnOffProcess(std::size_t width, double p_on, double p_off, double on_to_off,
               double off_to_on);
  OnOffProcess(std::vector<double> p_on, std::vector<double> p_off,
               double on_to_off, double off_to_on);
  BitVec next(Rng& rng) override;
  std::string name() const override;

 private:
  std::vector<double> p_on_, p_off_;
  double on_to_off_, off_to_on_;
  std::vector<bool> state_on_;
};

/// Exactly k valid bits, uniformly placed (Floyd's sampling).
class ExactCountProcess : public InjectionProcess {
 public:
  ExactCountProcess(std::size_t width, std::size_t k);
  BitVec next(Rng& rng) override;
  std::string name() const override;
  std::size_t count() const noexcept { return k_; }

 private:
  std::size_t k_;
};

}  // namespace pcs::traffic
