// Gaussian Mechanism: (ε, δ)-DP for a query with L2 sensitivity Δ2 by adding
// N(0, σ²) noise.
//
// Two calibrations are provided:
//  * kClassic  — σ = Δ2·sqrt(2·ln(1.25/δ))/ε  (Dwork–Roth Thm 3.22; valid
//                only for ε ≤ 1, enforced — the paper's εg = 0.999 fits).
//  * kAnalytic — the tight calibration of Balle & Wang (ICML 2018), valid for
//                every ε > 0, found by binary search on the exact Gaussian
//                privacy curve  δ(ε,σ) = Φ(Δ/2σ − εσ/Δ) − e^ε·Φ(−Δ/2σ − εσ/Δ).
//
// The paper's Phase 2 uses the classic mechanism; the analytic variant is
// used by the mechanism ablation (bench_ablation_mechanisms).
#pragma once

#include <span>

#include "dp/distributions.hpp"
#include "dp/mechanism.hpp"
#include "dp/privacy_params.hpp"
#include "dp/sensitivity.hpp"

namespace gdp::dp {

enum class GaussianCalibration { kClassic, kAnalytic };

// σ for the classic calibration.  Throws if eps > 1.0 (outside the
// theorem's validity) — use kAnalytic there.
[[nodiscard]] double ClassicGaussianSigma(Epsilon eps, Delta delta,
                                          L2Sensitivity sensitivity);

// σ for the analytic (Balle–Wang) calibration; valid for all ε > 0.
[[nodiscard]] double AnalyticGaussianSigma(Epsilon eps, Delta delta,
                                           L2Sensitivity sensitivity);

// The exact δ achieved by a Gaussian mechanism with the given σ at ε
// (the Balle–Wang privacy curve).  Exposed for tests and calibration audits.
[[nodiscard]] double GaussianDeltaForSigma(double sigma, Epsilon eps,
                                           L2Sensitivity sensitivity);

class GaussianMechanism final : public NumericMechanism {
 public:
  GaussianMechanism(Epsilon eps, Delta delta, L2Sensitivity sensitivity,
                    GaussianCalibration calibration = GaussianCalibration::kClassic);

  [[nodiscard]] double AddNoise(double true_value,
                                gdp::common::Rng& rng) const override {
    return true_value + SampleGaussian(rng, sigma_);
  }
  // Both variates of each polar draw, from the span sampler: about half the
  // polar draws of the per-entry default.
  void AddNoise(std::span<double> values,
                gdp::common::Rng& rng) const override;

  [[nodiscard]] double sigma() const noexcept { return sigma_; }
  [[nodiscard]] double NoiseStddev() const noexcept override { return sigma_; }
  [[nodiscard]] const char* Name() const noexcept override { return "gaussian"; }

  [[nodiscard]] Epsilon epsilon() const noexcept { return eps_; }
  [[nodiscard]] Delta delta() const noexcept { return delta_; }
  [[nodiscard]] L2Sensitivity sensitivity() const noexcept { return sensitivity_; }
  [[nodiscard]] GaussianCalibration calibration() const noexcept {
    return calibration_;
  }

  // E|noise| = σ·sqrt(2/π); closed form used by expected-RER analyses.
  [[nodiscard]] double ExpectedAbsNoise() const noexcept {
    return sigma_ * 0.7978845608028654;
  }

 private:
  double sigma_;
  Epsilon eps_;
  Delta delta_;
  L2Sensitivity sensitivity_;
  GaussianCalibration calibration_;
};

}  // namespace gdp::dp
