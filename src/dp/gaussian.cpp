#include "dp/gaussian.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "common/math.hpp"

namespace gdp::dp {

double ClassicGaussianSigma(Epsilon eps, Delta delta, L2Sensitivity sensitivity) {
  // Dwork–Roth Theorem 3.22 is valid only for ε ≤ 1 (the paper's εg = 0.999
  // sweep endpoint is inside the range; the old `< 1.0001` allowance
  // admitted ε ∈ (1, 1.0001) outside the theorem with no error).
  if (eps.value() > 1.0) {
    throw std::invalid_argument(
        "ClassicGaussianSigma: classic calibration requires eps <= 1; "
        "use GaussianCalibration::kAnalytic");
  }
  return sensitivity.value() * std::sqrt(2.0 * std::log(1.25 / delta.value())) /
         eps.value();
}

double GaussianDeltaForSigma(double sigma, Epsilon eps, L2Sensitivity sensitivity) {
  if (!(sigma > 0.0) || !std::isfinite(sigma)) {
    throw std::invalid_argument("GaussianDeltaForSigma: sigma must be > 0");
  }
  const double d = sensitivity.value();
  const double e = eps.value();
  // Balle & Wang (2018), Eq. (6).
  const double a = d / (2.0 * sigma) - e * sigma / d;
  const double b = -d / (2.0 * sigma) - e * sigma / d;
  return gdp::common::NormalCdf(a) - std::exp(e) * gdp::common::NormalCdf(b);
}

double AnalyticGaussianSigma(Epsilon eps, Delta delta, L2Sensitivity sensitivity) {
  // δ(σ) is strictly decreasing in σ, so binary search solves
  // GaussianDeltaForSigma(σ) = δ.  Bracket by doubling.
  const double target = delta.value();
  double lo = 1e-12 * sensitivity.value();
  double hi = sensitivity.value();
  while (GaussianDeltaForSigma(hi, eps, sensitivity) > target) {
    hi *= 2.0;
    if (hi > 1e100) {
      throw std::runtime_error("AnalyticGaussianSigma: failed to bracket");
    }
  }
  while (GaussianDeltaForSigma(lo, eps, sensitivity) < target) {
    lo *= 0.5;
    if (lo < 1e-300) {
      // Even negligible noise already satisfies the target δ.
      return lo;
    }
  }
  for (int iter = 0; iter < 200; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (GaussianDeltaForSigma(mid, eps, sensitivity) > target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return hi;  // the smaller δ side: errs on extra privacy
}

GaussianMechanism::GaussianMechanism(Epsilon eps, Delta delta,
                                     L2Sensitivity sensitivity,
                                     GaussianCalibration calibration)
    : sigma_(calibration == GaussianCalibration::kClassic
                 ? ClassicGaussianSigma(eps, delta, sensitivity)
                 : AnalyticGaussianSigma(eps, delta, sensitivity)),
      eps_(eps),
      delta_(delta),
      sensitivity_(sensitivity),
      calibration_(calibration) {}

void GaussianMechanism::AddNoise(std::span<double> values,
                                 gdp::common::Rng& rng) const {
  // The block length is even, so every block but the last holds whole polar
  // pairs: the values equal one span draw over all of `values`.
  constexpr std::size_t kBlock = 128;
  std::array<double, kBlock> noise{};
  for (std::size_t begin = 0; begin < values.size(); begin += kBlock) {
    const std::span<double> block =
        values.subspan(begin, std::min(kBlock, values.size() - begin));
    SampleGaussian(rng, sigma_, std::span<double>(noise).first(block.size()));
    for (std::size_t i = 0; i < block.size(); ++i) {
      block[i] += noise[i];
    }
  }
}

}  // namespace gdp::dp
