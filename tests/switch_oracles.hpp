// Hardware-literal switch oracles, independent of src/plan.
//
// RevsortWiring and ColumnsortWiring route one setup the way the paper's
// hardware is built: per-chip stable concentrations joined by the explicit
// inter-stage wiring permutations of switch/wiring.hpp.  HyperOracle is
// Section 1's single hyperconcentrator chip routed through
// hyper::Hyperconcentrator.  None of them reads a SwitchPlan or runs the
// PlanExecutor, so the differential tests and the fuzzer can hold the plan
// path that make_switch() builds to them.  Keep them obviously correct.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hyper/hyperconcentrator.hpp"
#include "switch/concentrator.hpp"
#include "switch/wiring.hpp"
#include "util/bitvec.hpp"

namespace pcs::oracle {

/// Revsort switch (Section 4) on n = side^2 inputs, m outputs: stage-1
/// column chips, transpose, stage-2 row chips, rev-rotate + transpose,
/// stage-3 column chips, row-major read-out.
class RevsortWiring {
 public:
  RevsortWiring(std::size_t n, std::size_t m);

  sw::SwitchRouting route(const BitVec& valid) const;

 private:
  std::size_t n_;
  std::size_t m_;
  std::size_t side_;
  sw::Permutation stage1_to_2_;
  sw::Permutation stage2_to_3_;
};

/// Columnsort switch (Section 5) on an r-by-s mesh, m outputs: stage-1
/// column chips, CM -> RM wiring, stage-2 chips, row-major read-out.
class ColumnsortWiring {
 public:
  ColumnsortWiring(std::size_t r, std::size_t s, std::size_t m);

  sw::SwitchRouting route(const BitVec& valid) const;

 private:
  std::size_t r_;
  std::size_t s_;
  std::size_t n_;
  std::size_t m_;
  sw::Permutation stage1_to_2_;
};

/// The n-by-m perfect concentrator of Section 1: one n-by-n
/// hyperconcentrator chip keeping its first m outputs.  The batch entry
/// points are ConcentratorSwitch's per-pattern defaults.
class HyperOracle : public sw::ConcentratorSwitch {
 public:
  HyperOracle(std::size_t n, std::size_t m);

  std::size_t inputs() const override { return chip_.n(); }
  std::size_t outputs() const override { return m_; }
  std::size_t epsilon_bound() const override { return 0; }
  sw::SwitchRouting route(const BitVec& valid) const override;
  BitVec nearsorted_valid_bits(const BitVec& valid) const override;
  std::string name() const override;

 private:
  hyper::Hyperconcentrator chip_;
  std::size_t m_;
};

}  // namespace pcs::oracle
