#include "dp/distributions.hpp"

#include <cmath>
#include <stdexcept>

namespace gdp::dp {

using gdp::common::Rng;

double SampleLaplace(Rng& rng, double scale) {
  if (!(scale > 0.0) || !std::isfinite(scale)) {
    throw std::invalid_argument("SampleLaplace: scale must be finite and > 0");
  }
  // Inverse CDF: u uniform on (-1/2, 1/2]; x = -b * sgn(u) * ln(1 - 2|u|).
  const double u = rng.UniformPositiveUnit() - 0.5;
  const double mag = -scale * std::log1p(-2.0 * std::fabs(u));
  return u < 0.0 ? -mag : mag;
}

namespace {

void CheckGaussianStddev(double stddev) {
  if (!(stddev > 0.0) || !std::isfinite(stddev)) {
    throw std::invalid_argument("SampleGaussian: stddev must be finite and > 0");
  }
}

// One accepted polar Box–Muller draw: (u, v) uniform in the unit disc minus
// its centre and r = sqrt(-2 ln s / s) with s = u² + v², so u·r and v·r are
// independent standard normals.
struct PolarDraw {
  double u;
  double v;
  double r;
};

// `inline` keeps the loop inside both samplers: as a call returning the
// struct through memory it cost the scalar draw ~10%.
inline PolarDraw DrawPolar(Rng& rng) {
  for (;;) {
    const double u = 2.0 * rng.UniformUnit() - 1.0;
    const double v = 2.0 * rng.UniformUnit() - 1.0;
    const double s = u * u + v * v;
    if (s > 0.0 && s < 1.0) {
      return {u, v, std::sqrt(-2.0 * std::log(s) / s)};
    }
  }
}

}  // namespace

void SampleGaussian(Rng& rng, double stddev, std::span<double> out) {
  CheckGaussianStddev(stddev);
  for (std::size_t i = 0; i < out.size(); i += 2) {
    const PolarDraw d = DrawPolar(rng);
    out[i] = stddev * d.u * d.r;
    if (i + 1 < out.size()) {
      out[i + 1] = stddev * d.v * d.r;
    }
  }
}

double SampleGaussian(Rng& rng, double stddev) {
  CheckGaussianStddev(stddev);
  const PolarDraw d = DrawPolar(rng);
  return stddev * d.u * d.r;
}

std::uint64_t SampleGeometric(Rng& rng, double p) {
  if (!(p > 0.0) || !(p <= 1.0)) {
    throw std::invalid_argument("SampleGeometric: p must be in (0, 1]");
  }
  if (p == 1.0) {
    return 0;
  }
  const double u = rng.UniformPositiveUnit();
  return static_cast<std::uint64_t>(std::floor(std::log(u) / std::log1p(-p)));
}

std::int64_t SampleTwoSidedGeometric(Rng& rng, double scale) {
  if (!(scale > 0.0) || !std::isfinite(scale)) {
    throw std::invalid_argument(
        "SampleTwoSidedGeometric: scale must be finite and > 0");
  }
  const double alpha = std::exp(-1.0 / scale);
  // X = G1 - G2 with G1, G2 iid Geometric(1 - alpha) gives the two-sided
  // geometric with Pr[X = k] proportional to alpha^{|k|}.
  const auto g1 = static_cast<std::int64_t>(SampleGeometric(rng, 1.0 - alpha));
  const auto g2 = static_cast<std::int64_t>(SampleGeometric(rng, 1.0 - alpha));
  return g1 - g2;
}

bool BernoulliExpMinus(Rng& rng, double x) {
  if (!(x >= 0.0) || !std::isfinite(x)) {
    throw std::invalid_argument("BernoulliExpMinus: x must be finite and >= 0");
  }
  if (x <= 1.0) {
    // Forward sampling: accept with prob exp(-x) using the alternating
    // series; counts uniform draws until the product drops below threshold.
    std::uint64_t k = 1;
    for (;;) {
      if (!rng.Bernoulli(x / static_cast<double>(k))) {
        return (k % 2) == 1;
      }
      ++k;
    }
  }
  // exp(-x) = exp(-1)^floor(x) * exp(-(x - floor(x))).
  const double whole = std::floor(x);
  for (double i = 0.0; i < whole; i += 1.0) {
    if (!BernoulliExpMinus(rng, 1.0)) {
      return false;
    }
  }
  const double frac = x - whole;
  return frac == 0.0 ? true : BernoulliExpMinus(rng, frac);
}

std::int64_t SampleDiscreteGaussian(Rng& rng, double sigma) {
  if (!(sigma > 0.0) || !std::isfinite(sigma)) {
    throw std::invalid_argument(
        "SampleDiscreteGaussian: sigma must be finite and > 0");
  }
  // CKS'20 Algorithm 3: rejection-sample from a discrete Laplace with
  // t = floor(sigma) + 1.
  const auto t = static_cast<std::int64_t>(std::floor(sigma)) + 1;
  const double t_d = static_cast<double>(t);
  const double sigma2 = sigma * sigma;
  for (;;) {
    // Discrete Laplace with scale t: geometric difference construction.
    const double alpha = std::exp(-1.0 / t_d);
    const auto g1 = static_cast<std::int64_t>(SampleGeometric(rng, 1.0 - alpha));
    const auto g2 = static_cast<std::int64_t>(SampleGeometric(rng, 1.0 - alpha));
    const std::int64_t y = g1 - g2;
    const double y_d = static_cast<double>(y);
    const double num = std::fabs(y_d) - sigma2 / t_d;
    const double accept_exponent = num * num / (2.0 * sigma2);
    if (BernoulliExpMinus(rng, accept_exponent)) {
      return y;
    }
  }
}

double SampleGumbel(Rng& rng) {
  return -std::log(-std::log(rng.UniformPositiveUnit()));
}

}  // namespace gdp::dp
