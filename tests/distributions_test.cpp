#include "dp/distributions.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/math.hpp"
#include "common/rng.hpp"

namespace gdp::dp {
namespace {

using gdp::common::Rng;
using gdp::common::RunningStats;

constexpr int kSamples = 200000;

TEST(SampleLaplaceTest, RejectsBadScale) {
  Rng rng(1);
  EXPECT_THROW((void)SampleLaplace(rng, 0.0), std::invalid_argument);
  EXPECT_THROW((void)SampleLaplace(rng, -1.0), std::invalid_argument);
  EXPECT_THROW((void)SampleLaplace(rng, std::numeric_limits<double>::infinity()),
               std::invalid_argument);
}

TEST(SampleLaplaceTest, MeanZeroVarianceTwoBSquared) {
  Rng rng(2);
  const double b = 3.0;
  RunningStats s;
  for (int i = 0; i < kSamples; ++i) {
    s.Add(SampleLaplace(rng, b));
  }
  EXPECT_NEAR(s.mean(), 0.0, 0.1);
  EXPECT_NEAR(s.variance(), 2.0 * b * b, 0.5);
}

TEST(SampleLaplaceTest, MedianAbsoluteDeviationMatchesTheory) {
  // For Laplace(b), P(|X| <= b ln 2) = 1/2.
  Rng rng(3);
  const double b = 2.0;
  int within = 0;
  for (int i = 0; i < kSamples; ++i) {
    if (std::fabs(SampleLaplace(rng, b)) <= b * std::log(2.0)) {
      ++within;
    }
  }
  EXPECT_NEAR(static_cast<double>(within) / kSamples, 0.5, 0.01);
}

TEST(SampleGaussianTest, RejectsBadStddev) {
  Rng rng(1);
  EXPECT_THROW((void)SampleGaussian(rng, 0.0), std::invalid_argument);
  EXPECT_THROW((void)SampleGaussian(rng, -2.0), std::invalid_argument);
}

TEST(SampleGaussianTest, MomentsMatch) {
  Rng rng(4);
  const double sigma = 5.0;
  RunningStats s;
  for (int i = 0; i < kSamples; ++i) {
    s.Add(SampleGaussian(rng, sigma));
  }
  EXPECT_NEAR(s.mean(), 0.0, 0.1);
  EXPECT_NEAR(s.stddev(), sigma, 0.1);
}

TEST(SampleGaussianTest, EmpiricalCdfMatchesNormal) {
  Rng rng(5);
  int below_one_sigma = 0;
  for (int i = 0; i < kSamples; ++i) {
    if (SampleGaussian(rng, 1.0) < 1.0) {
      ++below_one_sigma;
    }
  }
  EXPECT_NEAR(static_cast<double>(below_one_sigma) / kSamples,
              gdp::common::NormalCdf(1.0), 0.01);
}

// ---- The span sampler: both variates of every polar draw ----

// Six and a half standard errors: the tolerance of every statistical check
// on the span sampler (two-sided false-failure rate ~8e-11 per check).
constexpr double kTailZ = 6.5;

TEST(SampleGaussianSpanTest, FirstOutputIsTheScalarDraw) {
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    for (const std::size_t n : {1u, 2u, 5u}) {
      Rng scalar_rng(seed);
      Rng span_rng(seed);
      const double x = SampleGaussian(scalar_rng, 2.5);
      std::vector<double> out(n);
      SampleGaussian(span_rng, 2.5, std::span<double>(out));
      ASSERT_EQ(out[0], x) << "seed " << seed << " length " << n;
      if (n == 1) {
        // The length-1 case consumes exactly the scalar draw's uniforms.
        ASSERT_EQ(scalar_rng(), span_rng()) << "seed " << seed;
      }
    }
  }
}

TEST(SampleGaussianSpanTest, MomentsAndCdfWithinSamplingSpread) {
  Rng rng(16);
  const double sigma = 3.0;
  std::vector<double> out(kSamples);
  SampleGaussian(rng, sigma, std::span<double>(out));
  RunningStats s;
  for (const double x : out) {
    s.Add(x);
  }
  const double n = static_cast<double>(kSamples);
  EXPECT_NEAR(s.mean(), 0.0, kTailZ * sigma / std::sqrt(n));
  // Var(x²) = 2σ⁴ for a Gaussian, so the sample variance's spread is
  // σ²·sqrt(2/n).
  EXPECT_NEAR(s.variance() / (sigma * sigma), 1.0, kTailZ * std::sqrt(2.0 / n));
  for (const double t : {-2.5, -1.0, -0.3, 0.0, 0.7, 1.5, 3.0}) {
    const double p = gdp::common::NormalCdf(t);
    const auto below = std::count_if(out.begin(), out.end(),
                                     [&](double x) { return x < t * sigma; });
    EXPECT_NEAR(static_cast<double>(below) / n, p,
                kTailZ * std::sqrt(p * (1.0 - p) / n))
        << "at " << t << " sigma";
  }
}

TEST(SampleGaussianSpanTest, PairVariatesAreUncorrelated) {
  // Slots 2k and 2k+1 share one polar draw (u, v) and its radius factor;
  // they must still be independent, so their correlation over many pairs
  // stays within 6.5/sqrt(pairs) of 0.
  Rng rng(17);
  constexpr std::size_t kPairs = 100000;
  std::vector<double> out(2 * kPairs);
  SampleGaussian(rng, 1.0, std::span<double>(out));
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (std::size_t k = 0; k < kPairs; ++k) {
    const double x = out[2 * k];
    const double y = out[2 * k + 1];
    sxy += x * y;
    sxx += x * x;
    syy += y * y;
  }
  const double r = sxy / std::sqrt(sxx * syy);
  EXPECT_LE(std::abs(r), kTailZ / std::sqrt(static_cast<double>(kPairs)))
      << "r = " << r;
}

TEST(SampleGaussianSpanTest, FillsEverySlot) {
  for (const std::size_t n : {1u, 3u, 8193u}) {
    Rng rng(18);
    std::vector<double> out(n, std::numeric_limits<double>::quiet_NaN());
    SampleGaussian(rng, 1.0, std::span<double>(out));
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(std::isfinite(out[i])) << "length " << n << " slot " << i;
    }
  }
}

TEST(SampleGaussianSpanTest, BadStddevThrowsBeforeTheRngIsTouched) {
  Rng rng(19);
  Rng untouched = rng;
  std::vector<double> out(4, 7.0);
  for (const double bad : {0.0, -2.0, std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW(SampleGaussian(rng, bad, std::span<double>(out)),
                 std::invalid_argument);
  }
  EXPECT_THROW(SampleGaussian(rng, 0.0, std::span<double>()),
               std::invalid_argument);
  EXPECT_EQ(rng(), untouched());
  EXPECT_EQ(out, std::vector<double>(4, 7.0));
}

TEST(SampleGeometricTest, RejectsBadP) {
  Rng rng(1);
  EXPECT_THROW((void)SampleGeometric(rng, 0.0), std::invalid_argument);
  EXPECT_THROW((void)SampleGeometric(rng, 1.5), std::invalid_argument);
}

TEST(SampleGeometricTest, PEqualsOneAlwaysZero) {
  Rng rng(6);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(SampleGeometric(rng, 1.0), 0u);
  }
}

TEST(SampleGeometricTest, MeanMatchesTheory) {
  Rng rng(7);
  const double p = 0.25;
  RunningStats s;
  for (int i = 0; i < kSamples; ++i) {
    s.Add(static_cast<double>(SampleGeometric(rng, p)));
  }
  EXPECT_NEAR(s.mean(), (1.0 - p) / p, 0.05);
}

TEST(SampleTwoSidedGeometricTest, SymmetricAroundZero) {
  Rng rng(8);
  const double scale = 4.0;
  RunningStats s;
  for (int i = 0; i < kSamples; ++i) {
    s.Add(static_cast<double>(SampleTwoSidedGeometric(rng, scale)));
  }
  EXPECT_NEAR(s.mean(), 0.0, 0.1);
}

TEST(SampleTwoSidedGeometricTest, VarianceMatchesTheory) {
  Rng rng(9);
  const double scale = 3.0;
  const double a = std::exp(-1.0 / scale);
  const double expected_var = 2.0 * a / ((1.0 - a) * (1.0 - a));
  RunningStats s;
  for (int i = 0; i < kSamples; ++i) {
    s.Add(static_cast<double>(SampleTwoSidedGeometric(rng, scale)));
  }
  EXPECT_NEAR(s.variance(), expected_var, expected_var * 0.05);
}

TEST(SampleTwoSidedGeometricTest, RejectsBadScale) {
  Rng rng(1);
  EXPECT_THROW((void)SampleTwoSidedGeometric(rng, 0.0), std::invalid_argument);
  EXPECT_THROW((void)SampleTwoSidedGeometric(rng, -3.0), std::invalid_argument);
}

TEST(BernoulliExpMinusTest, ZeroAlwaysTrue) {
  Rng rng(10);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(BernoulliExpMinus(rng, 0.0));
  }
}

TEST(BernoulliExpMinusTest, RejectsNegative) {
  Rng rng(10);
  EXPECT_THROW((void)BernoulliExpMinus(rng, -0.1), std::invalid_argument);
}

TEST(BernoulliExpMinusTest, FrequencyMatchesExpSmallX) {
  Rng rng(11);
  const double x = 0.7;
  int accepted = 0;
  for (int i = 0; i < kSamples; ++i) {
    accepted += BernoulliExpMinus(rng, x) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(accepted) / kSamples, std::exp(-x), 0.01);
}

TEST(BernoulliExpMinusTest, FrequencyMatchesExpLargeX) {
  Rng rng(12);
  const double x = 2.5;
  int accepted = 0;
  for (int i = 0; i < kSamples; ++i) {
    accepted += BernoulliExpMinus(rng, x) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(accepted) / kSamples, std::exp(-x), 0.01);
}

TEST(SampleDiscreteGaussianTest, RejectsBadSigma) {
  Rng rng(1);
  EXPECT_THROW((void)SampleDiscreteGaussian(rng, 0.0), std::invalid_argument);
  EXPECT_THROW((void)SampleDiscreteGaussian(rng, -1.0), std::invalid_argument);
}

TEST(SampleDiscreteGaussianTest, MomentsApproachContinuous) {
  Rng rng(13);
  const double sigma = 6.0;
  RunningStats s;
  for (int i = 0; i < kSamples; ++i) {
    s.Add(static_cast<double>(SampleDiscreteGaussian(rng, sigma)));
  }
  EXPECT_NEAR(s.mean(), 0.0, 0.15);
  // Discrete Gaussian variance is within O(1) of sigma^2 for sigma >> 1.
  EXPECT_NEAR(s.stddev(), sigma, 0.2);
}

TEST(SampleDiscreteGaussianTest, SmallSigmaConcentratesOnZero) {
  Rng rng(14);
  int zeros = 0;
  for (int i = 0; i < 10000; ++i) {
    if (SampleDiscreteGaussian(rng, 0.2) == 0) {
      ++zeros;
    }
  }
  EXPECT_GT(zeros, 9900);  // mass overwhelmingly at 0 for sigma=0.2
}

TEST(SampleGumbelTest, MomentsMatchTheory) {
  Rng rng(15);
  RunningStats s;
  for (int i = 0; i < kSamples; ++i) {
    s.Add(SampleGumbel(rng));
  }
  constexpr double kEulerMascheroni = 0.5772156649015329;
  constexpr double kGumbelVar = 1.6449340668482264;  // pi^2/6
  EXPECT_NEAR(s.mean(), kEulerMascheroni, 0.02);
  EXPECT_NEAR(s.variance(), kGumbelVar, 0.05);
}

}  // namespace
}  // namespace gdp::dp
