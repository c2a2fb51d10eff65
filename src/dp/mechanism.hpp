// Common interface for additive-noise mechanisms over scalar statistics.
//
// Mechanisms are stateless value objects: construction validates and caches
// the calibration (noise scale); AddNoise draws from the caller's Rng.  This
// keeps the privacy-relevant arithmetic in constructors, testable without
// randomness.
#pragma once

#include <span>

#include "common/rng.hpp"

namespace gdp::dp {

class NumericMechanism {
 public:
  virtual ~NumericMechanism() = default;

  // Perturb a single true answer.
  [[nodiscard]] virtual double AddNoise(double true_value,
                                        gdp::common::Rng& rng) const = 0;

  // The standard deviation of the injected noise (exact for Gaussian,
  // sqrt(2)*b for Laplace, etc.).  Used by utility estimators and benches.
  [[nodiscard]] virtual double NoiseStddev() const noexcept = 0;

  // Human-readable name ("laplace", "gaussian", ...), for logs and tables.
  [[nodiscard]] virtual const char* Name() const noexcept = 0;

  // Perturb each entry of `values` in place, independently.  The default
  // draws the scalar AddNoise once per entry, in order; a mechanism whose
  // sampler yields several draws per step overrides it.
  virtual void AddNoise(std::span<double> values, gdp::common::Rng& rng) const {
    for (double& v : values) {
      v = AddNoise(v, rng);
    }
  }

 protected:
  NumericMechanism() = default;
  NumericMechanism(const NumericMechanism&) = default;
  NumericMechanism& operator=(const NumericMechanism&) = default;
};

}  // namespace gdp::dp
