// Noise distribution samplers.  All take the library Rng so experiments stay
// deterministic under a fixed seed.
#pragma once

#include <cstdint>
#include <span>

#include "common/rng.hpp"

namespace gdp::dp {

// Laplace(0, scale) via inverse CDF.  Requires scale > 0.
[[nodiscard]] double SampleLaplace(gdp::common::Rng& rng, double scale);

// Fills `out` with independent Gaussian(0, stddev) draws via polar
// Box–Muller.  Each accepted polar pair (u, v) writes two slots, σ·u·r and
// then σ·v·r with r = sqrt(-2 ln s / s); an odd length discards the last
// pair's second variate.  No spare is kept across calls, so the sampler is
// stateless and the values depend only on the rng state and out.size().
// Requires stddev > 0, checked before the rng is touched.
void SampleGaussian(gdp::common::Rng& rng, double stddev,
                    std::span<double> out);

// One Gaussian(0, stddev) draw from the same polar loop: the value and rng
// advance of the span sampler at length 1.
[[nodiscard]] double SampleGaussian(gdp::common::Rng& rng, double stddev);

// Two-sided geometric distribution on the integers with parameter
// p = 1 - exp(-1/scale): the discrete analogue of Laplace used by the
// geometric mechanism.  Requires scale > 0.
[[nodiscard]] std::int64_t SampleTwoSidedGeometric(gdp::common::Rng& rng,
                                                   double scale);

// Discrete Gaussian N_Z(0, sigma^2) by rejection from a discrete Laplace
// (Canonne–Kamath–Steinke, NeurIPS 2020, Algorithm 3).  Requires sigma > 0.
[[nodiscard]] std::int64_t SampleDiscreteGaussian(gdp::common::Rng& rng,
                                                  double sigma);

// Standard Gumbel(0, 1) sample; scale via multiplication.  Used by the
// Gumbel-max implementation of the Exponential Mechanism.
[[nodiscard]] double SampleGumbel(gdp::common::Rng& rng);

// Geometric(p) on {0, 1, 2, ...} (number of failures before first success).
// Requires p in (0, 1].
[[nodiscard]] std::uint64_t SampleGeometric(gdp::common::Rng& rng, double p);

// Bernoulli(exp(-x)) for x >= 0 without computing exp directly when x <= 1
// (the CKS forward-sampling trick); exact for all finite x >= 0.
[[nodiscard]] bool BernoulliExpMinus(gdp::common::Rng& rng, double x);

}  // namespace gdp::dp
