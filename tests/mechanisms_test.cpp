#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

#include "common/math.hpp"
#include "common/rng.hpp"
#include "core/group_dp_engine.hpp"
#include "dp/discrete_gaussian.hpp"
#include "dp/gaussian.hpp"
#include "dp/geometric.hpp"
#include "dp/laplace.hpp"

namespace gdp::dp {
namespace {

using gdp::common::Rng;
using gdp::common::RunningStats;

// ---------- parameter types ----------

TEST(EpsilonTest, RejectsNonPositiveAndHuge) {
  EXPECT_THROW(Epsilon(0.0), std::invalid_argument);
  EXPECT_THROW(Epsilon(-1.0), std::invalid_argument);
  EXPECT_THROW(Epsilon(1e10), std::invalid_argument);
  EXPECT_NO_THROW(Epsilon(0.999));
}

TEST(DeltaTest, RejectsOutOfRange) {
  EXPECT_THROW(Delta(0.0), std::invalid_argument);
  EXPECT_THROW(Delta(1.0), std::invalid_argument);
  EXPECT_NO_THROW(Delta(1e-5));
}

TEST(PrivacyParamsTest, PureDpHasNoDelta) {
  const auto p = PrivacyParams::PureDp(Epsilon(1.0));
  EXPECT_FALSE(p.has_delta());
  EXPECT_EQ(p.delta_or_zero(), 0.0);
  EXPECT_THROW((void)p.delta(), std::logic_error);
}

TEST(PrivacyParamsTest, ApproxDpCarriesDelta) {
  const auto p = PrivacyParams::ApproxDp(Epsilon(1.0), Delta(1e-6));
  EXPECT_TRUE(p.has_delta());
  EXPECT_DOUBLE_EQ(p.delta().value(), 1e-6);
  EXPECT_DOUBLE_EQ(p.delta_or_zero(), 1e-6);
}

TEST(SensitivityTest, RejectsBadValues) {
  EXPECT_THROW(L1Sensitivity(0.0), std::invalid_argument);
  EXPECT_THROW(L2Sensitivity(-3.0), std::invalid_argument);
  EXPECT_NO_THROW(L1Sensitivity(1.0));
  EXPECT_NO_THROW(L2Sensitivity(6384117.0));
}

// ---------- Laplace ----------

TEST(LaplaceMechanismTest, ScaleIsSensitivityOverEpsilon) {
  const LaplaceMechanism m(Epsilon(0.5), L1Sensitivity(10.0));
  EXPECT_DOUBLE_EQ(m.scale(), 20.0);
  EXPECT_NEAR(m.NoiseStddev(), 20.0 * std::sqrt(2.0), 1e-12);
  EXPECT_DOUBLE_EQ(m.ExpectedAbsNoise(), 20.0);
  EXPECT_STREQ(m.Name(), "laplace");
}

TEST(LaplaceMechanismTest, NoiseCentredOnTruth) {
  const LaplaceMechanism m(Epsilon(1.0), L1Sensitivity(1.0));
  Rng rng(21);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) {
    s.Add(m.AddNoise(100.0, rng));
  }
  EXPECT_NEAR(s.mean(), 100.0, 0.05);
  EXPECT_NEAR(s.stddev(), std::sqrt(2.0), 0.05);
}

TEST(LaplaceMechanismTest, VectorOverloadPerturbsEachEntry) {
  const LaplaceMechanism m(Epsilon(10.0), L1Sensitivity(0.001));
  Rng rng(22);
  const std::vector<double> truth{1.0, 2.0, 3.0};
  std::vector<double> noisy = truth;
  m.AddNoise(std::span<double>(noisy), rng);
  ASSERT_EQ(noisy.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(noisy[i], truth[i], 0.1);
    EXPECT_NE(noisy[i], truth[i]);
  }
}

// Empirical DP check: the likelihood ratio between outputs on adjacent data
// must stay within e^eps (smoke-tested on binned output frequencies).
TEST(LaplaceMechanismTest, EmpiricalPrivacyRatioBounded) {
  const double eps = 1.0;
  const LaplaceMechanism m(Epsilon(eps), L1Sensitivity(1.0));
  Rng rng(23);
  constexpr int kN = 400000;
  constexpr int kBins = 20;
  // Outputs binned over [-5, 5] around each centre; adjacent datasets have
  // true answers 0 and 1.
  std::vector<int> h0(kBins, 0);
  std::vector<int> h1(kBins, 0);
  const auto bin_of = [&](double x) {
    const int b = static_cast<int>((x + 5.0) / 10.0 * kBins);
    return std::clamp(b, 0, kBins - 1);
  };
  for (int i = 0; i < kN; ++i) {
    ++h0[bin_of(m.AddNoise(0.0, rng))];
    ++h1[bin_of(m.AddNoise(1.0, rng))];
  }
  for (int b = 0; b < kBins; ++b) {
    if (h0[b] < 500 || h1[b] < 500) {
      continue;  // skip bins too rare for a stable ratio
    }
    const double ratio = static_cast<double>(h0[b]) / h1[b];
    EXPECT_LT(ratio, std::exp(eps) * 1.15) << "bin " << b;
    EXPECT_GT(ratio, std::exp(-eps) / 1.15) << "bin " << b;
  }
}

// ---------- Gaussian ----------

TEST(ClassicGaussianSigmaTest, MatchesFormula) {
  const double sigma =
      ClassicGaussianSigma(Epsilon(0.999), Delta(1e-5), L2Sensitivity(100.0));
  const double expected = 100.0 * std::sqrt(2.0 * std::log(1.25 / 1e-5)) / 0.999;
  EXPECT_NEAR(sigma, expected, 1e-9);
}

TEST(ClassicGaussianSigmaTest, RejectsLargeEpsilon) {
  EXPECT_THROW(
      (void)ClassicGaussianSigma(Epsilon(2.0), Delta(1e-5), L2Sensitivity(1.0)),
      std::invalid_argument);
}

TEST(GaussianDeltaForSigmaTest, DecreasesInSigma) {
  const Epsilon eps(1.0);
  const L2Sensitivity d(1.0);
  const double d1 = GaussianDeltaForSigma(0.5, eps, d);
  const double d2 = GaussianDeltaForSigma(1.0, eps, d);
  const double d3 = GaussianDeltaForSigma(2.0, eps, d);
  EXPECT_GT(d1, d2);
  EXPECT_GT(d2, d3);
}

TEST(AnalyticGaussianSigmaTest, AchievesTargetDelta) {
  const Epsilon eps(0.7);
  const Delta delta(1e-6);
  const L2Sensitivity d(42.0);
  const double sigma = AnalyticGaussianSigma(eps, delta, d);
  const double achieved = GaussianDeltaForSigma(sigma, eps, d);
  EXPECT_LE(achieved, delta.value() * 1.0001);
  EXPECT_GE(achieved, delta.value() * 0.99);
}

TEST(AnalyticGaussianSigmaTest, TighterThanClassicForSmallEps) {
  const Epsilon eps(0.5);
  const Delta delta(1e-5);
  const L2Sensitivity d(1.0);
  EXPECT_LT(AnalyticGaussianSigma(eps, delta, d),
            ClassicGaussianSigma(eps, delta, d));
}

TEST(AnalyticGaussianSigmaTest, WorksAboveEpsilonOne) {
  const double sigma =
      AnalyticGaussianSigma(Epsilon(4.0), Delta(1e-5), L2Sensitivity(1.0));
  EXPECT_GT(sigma, 0.0);
  const double achieved =
      GaussianDeltaForSigma(sigma, Epsilon(4.0), L2Sensitivity(1.0));
  EXPECT_LE(achieved, 1e-5 * 1.0001);
}

TEST(GaussianCalibrationBoundaryTest, FactorySwitchesToAnalyticStrictlyAboveOne) {
  // The classic bound (Dwork–Roth Thm 3.22) is valid only for ε ≤ 1.  The
  // factory used to admit ε ∈ (1, 1.0001) into the classic branch; pin the
  // tightened boundary on both sides.
  const auto at_one =
      gdp::core::MakeMechanism(gdp::core::NoiseKind::kGaussian, 1.0, 1e-5, 2.0);
  const auto* g_one = dynamic_cast<const GaussianMechanism*>(at_one.get());
  ASSERT_NE(g_one, nullptr);
  EXPECT_EQ(g_one->calibration(), GaussianCalibration::kClassic);

  const auto just_above = gdp::core::MakeMechanism(
      gdp::core::NoiseKind::kGaussian, 1.00005, 1e-5, 2.0);
  const auto* g_above = dynamic_cast<const GaussianMechanism*>(just_above.get());
  ASSERT_NE(g_above, nullptr);
  EXPECT_EQ(g_above->calibration(), GaussianCalibration::kAnalytic);

  // The paper's εg = 0.999 stays on the classic branch.
  const auto paper = gdp::core::MakeMechanism(gdp::core::NoiseKind::kGaussian,
                                              0.999, 1e-5, 2.0);
  const auto* g_paper = dynamic_cast<const GaussianMechanism*>(paper.get());
  ASSERT_NE(g_paper, nullptr);
  EXPECT_EQ(g_paper->calibration(), GaussianCalibration::kClassic);

  // The boundary holds at the calibration primitive too, not just the
  // factory: requesting classic above ε = 1 is an error, ε = 1 is not.
  EXPECT_NO_THROW((void)ClassicGaussianSigma(Epsilon(1.0), Delta(1e-5),
                                             L2Sensitivity(2.0)));
  EXPECT_THROW((void)ClassicGaussianSigma(Epsilon(1.00005), Delta(1e-5),
                                          L2Sensitivity(2.0)),
               std::invalid_argument);
  EXPECT_THROW(GaussianMechanism(Epsilon(1.00005), Delta(1e-5),
                                 L2Sensitivity(2.0)),
               std::invalid_argument);
}

TEST(GaussianMechanismTest, ClassicCalibrationByDefault) {
  const GaussianMechanism m(Epsilon(0.9), Delta(1e-5), L2Sensitivity(10.0));
  EXPECT_EQ(m.calibration(), GaussianCalibration::kClassic);
  EXPECT_NEAR(m.sigma(),
              ClassicGaussianSigma(Epsilon(0.9), Delta(1e-5), L2Sensitivity(10.0)),
              1e-12);
  EXPECT_STREQ(m.Name(), "gaussian");
}

TEST(GaussianMechanismTest, NoiseMomentsMatchSigma) {
  const GaussianMechanism m(Epsilon(0.999), Delta(1e-5), L2Sensitivity(1.0));
  Rng rng(24);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) {
    s.Add(m.AddNoise(0.0, rng));
  }
  EXPECT_NEAR(s.mean(), 0.0, m.sigma() * 0.02);
  EXPECT_NEAR(s.stddev(), m.sigma(), m.sigma() * 0.02);
}

TEST(GaussianMechanismTest, SpanNoiseIsOneSpanDrawAddedToTheValues) {
  // The override draws in fixed blocks; at every length, odd ones and those
  // crossing a block boundary included, the result must equal the truth
  // plus one span draw of the same length from the same rng state.
  const GaussianMechanism m(Epsilon(0.9), Delta(1e-5), L2Sensitivity(4.0));
  for (const std::size_t n : {1u, 2u, 127u, 128u, 129u, 257u, 1000u}) {
    std::vector<double> truth(n);
    for (std::size_t i = 0; i < n; ++i) {
      truth[i] = static_cast<double>(i) * 3.5;
    }
    Rng rng(26);
    std::vector<double> noisy = truth;
    m.AddNoise(std::span<double>(noisy), rng);
    Rng oracle(26);
    std::vector<double> noise(n);
    SampleGaussian(oracle, m.sigma(), std::span<double>(noise));
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(noisy[i], truth[i] + noise[i]) << "n " << n << " slot " << i;
    }
    EXPECT_EQ(rng(), oracle()) << "n " << n << ": streams left in step";
  }
}

TEST(GaussianMechanismTest, ExpectedAbsNoiseFormula) {
  const GaussianMechanism m(Epsilon(0.5), Delta(1e-5), L2Sensitivity(3.0));
  EXPECT_NEAR(m.ExpectedAbsNoise(), m.sigma() * std::sqrt(2.0 / M_PI), 1e-12);
}

// ---------- Geometric ----------

TEST(GeometricMechanismTest, OutputIsIntegerShifted) {
  const GeometricMechanism m(Epsilon(0.5), L1Sensitivity(2.0));
  Rng rng(25);
  for (int i = 0; i < 1000; ++i) {
    const double noisy = m.AddNoise(10.0, rng);
    EXPECT_DOUBLE_EQ(noisy, std::round(noisy));
  }
  EXPECT_STREQ(m.Name(), "geometric");
}

TEST(GeometricMechanismTest, StddevMatchesFormula) {
  const GeometricMechanism m(Epsilon(1.0), L1Sensitivity(1.0));
  Rng rng(26);
  RunningStats s;
  for (int i = 0; i < 200000; ++i) {
    s.Add(m.AddNoise(0.0, rng));
  }
  EXPECT_NEAR(s.stddev(), m.NoiseStddev(), m.NoiseStddev() * 0.03);
}

// ---------- Discrete Gaussian ----------

TEST(DiscreteGaussianMechanismTest, IntegerOutputAndSigma) {
  const DiscreteGaussianMechanism m(Epsilon(1.0), Delta(1e-5),
                                    L2Sensitivity(5.0));
  EXPECT_GT(m.sigma(), 0.0);
  Rng rng(27);
  for (int i = 0; i < 500; ++i) {
    const double noisy = m.AddNoise(7.0, rng);
    EXPECT_DOUBLE_EQ(noisy, std::round(noisy));
  }
  EXPECT_STREQ(m.Name(), "discrete_gaussian");
}

TEST(DiscreteGaussianMechanismTest, EmpiricalStddevNearSigma) {
  const DiscreteGaussianMechanism m(Epsilon(0.8), Delta(1e-5),
                                    L2Sensitivity(10.0));
  Rng rng(28);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) {
    s.Add(m.AddNoise(0.0, rng));
  }
  EXPECT_NEAR(s.stddev(), m.sigma(), m.sigma() * 0.05);
}

}  // namespace
}  // namespace gdp::dp
