// Property-style TEST_P sweeps over parameter grids: calibration curves,
// privacy-relevant invariants, and pipeline structure across configurations.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "dp/gaussian.hpp"
#include "graph/generators.hpp"
#include "hier/specialization.hpp"

namespace gdp {
namespace {

using common::Rng;

// ---------- Gaussian calibration curve over an (eps, delta) grid ----------

class GaussianCalibrationProperty
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(GaussianCalibrationProperty, AnalyticSigmaAchievesDelta) {
  const auto [eps, delta] = GetParam();
  const dp::L2Sensitivity sens(123.0);
  const double sigma =
      dp::AnalyticGaussianSigma(dp::Epsilon(eps), dp::Delta(delta), sens);
  const double achieved = dp::GaussianDeltaForSigma(sigma, dp::Epsilon(eps), sens);
  EXPECT_LE(achieved, delta * 1.001) << "eps=" << eps << " delta=" << delta;
}

TEST_P(GaussianCalibrationProperty, ClassicSigmaNeverBelowAnalytic) {
  const auto [eps, delta] = GetParam();
  if (eps >= 1.0) {
    GTEST_SKIP() << "classic calibration only valid below eps=1";
  }
  const dp::L2Sensitivity sens(123.0);
  EXPECT_GE(dp::ClassicGaussianSigma(dp::Epsilon(eps), dp::Delta(delta), sens),
            dp::AnalyticGaussianSigma(dp::Epsilon(eps), dp::Delta(delta), sens));
}

TEST_P(GaussianCalibrationProperty, SigmaScalesLinearlyWithSensitivity) {
  const auto [eps, delta] = GetParam();
  const double s1 = dp::AnalyticGaussianSigma(dp::Epsilon(eps), dp::Delta(delta),
                                              dp::L2Sensitivity(10.0));
  const double s2 = dp::AnalyticGaussianSigma(dp::Epsilon(eps), dp::Delta(delta),
                                              dp::L2Sensitivity(1000.0));
  EXPECT_NEAR(s2 / s1, 100.0, 0.5);
}

INSTANTIATE_TEST_SUITE_P(
    EpsDeltaGrid, GaussianCalibrationProperty,
    ::testing::Combine(::testing::Values(0.1, 0.5, 0.999, 2.0, 8.0),
                       ::testing::Values(1e-7, 1e-5, 1e-3)),
    [](const ::testing::TestParamInfo<std::tuple<double, double>>& info) {
      // NOTE: no structured bindings here -- the comma inside [eps, delta]
      // would split the macro argument.
      std::string name = "eps" + std::to_string(std::get<0>(info.param)) +
                         "_delta" + std::to_string(std::get<1>(info.param));
      for (char& c : name) {
        if (c == '.' || c == '-') {
          c = '_';
        }
      }
      return name;
    });

// ---------- empirical eps-DP of Laplace over an eps grid ----------

class LaplacePrivacyProperty : public ::testing::TestWithParam<double> {};

TEST_P(LaplacePrivacyProperty, LikelihoodRatioWithinExpEps) {
  const double eps = GetParam();
  // Exact density ratio check: for Laplace(b = 1/eps) centred at 0 vs 1,
  // the log-density difference at any x is bounded by eps * Delta = eps.
  const double b = 1.0 / eps;
  for (double x = -5.0; x <= 5.0; x += 0.25) {
    const double log_ratio = (std::fabs(x - 1.0) - std::fabs(x)) / b;
    EXPECT_LE(std::fabs(log_ratio), eps * 1.0000001) << "x=" << x;
  }
}

INSTANTIATE_TEST_SUITE_P(EpsGrid, LaplacePrivacyProperty,
                         ::testing::Values(0.1, 0.5, 1.0, 2.0));

// ---------- pipeline invariants across configuration grid ----------

struct PipelineGridParam {
  int depth;
  int arity;
  core::NoiseKind noise;
};

class PipelineProperty : public ::testing::TestWithParam<PipelineGridParam> {
 protected:
  static graph::BipartiteGraph MakeGraph() {
    Rng rng(555);
    graph::DblpLikeParams p;
    p.num_left = 600;
    p.num_right = 800;
    p.num_edges = 4000;
    return GenerateDblpLike(p, rng);
  }
};

TEST_P(PipelineProperty, StructureAndBudgetInvariants) {
  const auto param = GetParam();
  const graph::BipartiteGraph g = MakeGraph();
  core::SessionSpec cfg;
  cfg.hierarchy.depth = param.depth;
  cfg.hierarchy.arity = param.arity;
  cfg.budget.noise = param.noise;
  Rng rng(777);
  const core::DisclosureResult result = core::RunDisclosure(g, cfg, rng);

  // (1) one release per level, levels ascending.
  EXPECT_EQ(result.release.num_levels(), param.depth + 1);
  // (2) sensitivities non-decreasing in level.
  const auto sens = result.hierarchy.LevelSensitivities(g);
  for (std::size_t i = 1; i < sens.size(); ++i) {
    EXPECT_GE(sens[i], sens[i - 1]);
  }
  // (3) per-level group-count vectors pair with the hierarchy.
  for (int lvl = 0; lvl <= param.depth; ++lvl) {
    EXPECT_EQ(result.release.level(lvl).noisy_group_counts.size(),
              result.hierarchy.level(lvl).num_groups());
  }
  // (4) budget conserved.
  EXPECT_LE(result.ledger.epsilon_spent(), cfg.budget.epsilon_g + 1e-9);
  // (5) every level's noisy answer is finite.
  for (const auto& lvl : result.release.levels()) {
    EXPECT_TRUE(std::isfinite(lvl.noisy_total));
  }
}

TEST_P(PipelineProperty, RefinementHoldsAtEveryLevel) {
  const auto param = GetParam();
  const graph::BipartiteGraph g = MakeGraph();
  core::SessionSpec cfg;
  cfg.hierarchy.depth = param.depth;
  cfg.hierarchy.arity = param.arity;
  cfg.budget.noise = param.noise;
  cfg.hierarchy.validate_hierarchy = false;  // we re-validate by hand below
  Rng rng(888);
  const core::DisclosureResult result = core::RunDisclosure(g, cfg, rng);
  for (int lvl = 1; lvl <= param.depth; ++lvl) {
    EXPECT_TRUE(result.hierarchy.level(lvl).IsRefinedBy(
        result.hierarchy.level(lvl - 1)))
        << "level " << lvl;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ConfigGrid, PipelineProperty,
    ::testing::Values(PipelineGridParam{3, 2, core::NoiseKind::kGaussian},
                      PipelineGridParam{5, 4, core::NoiseKind::kGaussian},
                      PipelineGridParam{7, 4, core::NoiseKind::kLaplace},
                      PipelineGridParam{4, 8, core::NoiseKind::kGaussian},
                      PipelineGridParam{6, 2, core::NoiseKind::kGeometric}),
    [](const ::testing::TestParamInfo<PipelineGridParam>& info) {
      return "d" + std::to_string(info.param.depth) + "_a" +
             std::to_string(info.param.arity) + "_" +
             core::NoiseKindName(info.param.noise);
    });

}  // namespace
}  // namespace gdp
