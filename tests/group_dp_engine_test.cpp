#include "core/group_dp_engine.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/math.hpp"
#include "common/rng.hpp"
#include "dp/gaussian.hpp"
#include "graph/generators.hpp"
#include "hier/specialization.hpp"
#include "release_oracle.hpp"

namespace gdp::core {
namespace {

using gdp::common::Rng;
using gdp::graph::BipartiteGraph;

BipartiteGraph TestGraph() {
  Rng rng(3);
  return gdp::graph::GenerateUniformRandom(64, 64, 1000, rng);
}

gdp::hier::GroupHierarchy TestHierarchy(const BipartiteGraph& g, int depth = 4) {
  gdp::hier::SpecializationConfig cfg;
  cfg.depth = depth;
  const gdp::hier::Specializer spec(cfg);
  Rng rng(5);
  return spec.BuildHierarchy(g, rng).hierarchy;
}

// Minimal valid hierarchy over an edgeless 2x2 graph: singletons -> top.
gdp::hier::GroupHierarchy EdgelessHierarchy() {
  using gdp::hier::GroupInfo;
  using gdp::hier::Side;
  std::vector<GroupInfo> g0{GroupInfo{Side::kLeft, 1, 0},
                            GroupInfo{Side::kLeft, 1, 0},
                            GroupInfo{Side::kRight, 1, 1},
                            GroupInfo{Side::kRight, 1, 1}};
  std::vector<Partition> levels;
  levels.emplace_back(std::vector<gdp::hier::GroupId>{0, 1},
                      std::vector<gdp::hier::GroupId>{2, 3}, std::move(g0));
  levels.push_back(Partition::TopLevel(2, 2));
  return gdp::hier::GroupHierarchy(std::move(levels));
}

TEST(NoiseKindNameTest, AllNamed) {
  EXPECT_STREQ(NoiseKindName(NoiseKind::kGaussian), "gaussian");
  EXPECT_STREQ(NoiseKindName(NoiseKind::kAnalyticGaussian), "analytic_gaussian");
  EXPECT_STREQ(NoiseKindName(NoiseKind::kLaplace), "laplace");
  EXPECT_STREQ(NoiseKindName(NoiseKind::kDiscreteGaussian), "discrete_gaussian");
  EXPECT_STREQ(NoiseKindName(NoiseKind::kGeometric), "geometric");
}

TEST(MakeMechanismTest, ProducesEveryKind) {
  for (const NoiseKind kind :
       {NoiseKind::kGaussian, NoiseKind::kAnalyticGaussian, NoiseKind::kLaplace,
        NoiseKind::kDiscreteGaussian, NoiseKind::kGeometric}) {
    const auto m = MakeMechanism(kind, 0.9, 1e-5, 10.0);
    ASSERT_NE(m, nullptr);
    EXPECT_GT(m->NoiseStddev(), 0.0);
  }
}

TEST(MakeMechanismTest, GaussianAutoUpgradesAboveEpsilonOne) {
  // Classic calibration is invalid at eps=2; the factory must switch to the
  // analytic curve instead of throwing.
  const auto m = MakeMechanism(NoiseKind::kGaussian, 2.0, 1e-5, 10.0);
  EXPECT_GT(m->NoiseStddev(), 0.0);
}

TEST(ReleaseDrawTest, NoiseStddevMatchesClassicGaussianFormula) {
  const BipartiteGraph g = TestGraph();
  const auto h = TestHierarchy(g);
  Rng rng(11);
  const MultiLevelRelease r =
      ArtifactFor(g, h)->Release(Phase2Budget(0.999), rng);
  for (const auto& lvl : r.levels()) {
    const double sigma = gdp::dp::ClassicGaussianSigma(
        gdp::dp::Epsilon(0.999), gdp::dp::Delta(1e-5),
        gdp::dp::L2Sensitivity(lvl.sensitivity));
    EXPECT_NEAR(lvl.noise_stddev, sigma, 1e-9 * sigma)
        << "level " << lvl.level;
  }
}

TEST(ReleaseDrawTest, ReleaseLevelRecordsSensitivityAndTruth) {
  const BipartiteGraph g = TestGraph();
  const auto h = TestHierarchy(g);
  Rng rng(11);
  const LevelRelease lr =
      ArtifactFor(g, h)->Release(Phase2Budget(0.999), rng).level(2);
  EXPECT_EQ(lr.level, 2);
  EXPECT_DOUBLE_EQ(lr.true_total, static_cast<double>(g.num_edges()));
  EXPECT_DOUBLE_EQ(lr.sensitivity,
                   static_cast<double>(h.level(2).MaxGroupDegreeSum(g)));
  EXPECT_GT(lr.noise_stddev, 0.0);
  EXPECT_NE(lr.noisy_total, lr.true_total);
}

TEST(ReleaseDrawTest, GroupCountsIncludedByDefault) {
  const BipartiteGraph g = TestGraph();
  const auto h = TestHierarchy(g);
  Rng rng(13);
  const LevelRelease lr =
      ArtifactFor(g, h)->Release(Phase2Budget(0.999), rng).level(3);
  EXPECT_EQ(lr.true_group_counts.size(), h.level(3).num_groups());
  EXPECT_EQ(lr.noisy_group_counts.size(), h.level(3).num_groups());
}

TEST(ReleaseDrawTest, GroupCountsOmittedWhenDisabled) {
  const BipartiteGraph g = TestGraph();
  const auto h = TestHierarchy(g);
  ExecSpec exec;
  exec.include_group_counts = false;
  Rng rng(13);
  const LevelRelease lr =
      ArtifactFor(g, h, exec)->Release(Phase2Budget(0.999), rng).level(3);
  EXPECT_TRUE(lr.true_group_counts.empty());
  EXPECT_TRUE(lr.noisy_group_counts.empty());
  EXPECT_EQ(lr.group_noise_stddev, 0.0);
}

TEST(ReleaseDrawTest, CoarserLevelsGetMoreNoise) {
  const BipartiteGraph g = TestGraph();
  const auto h = TestHierarchy(g, 5);
  Rng rng(17);
  const MultiLevelRelease r =
      ArtifactFor(g, h)->Release(Phase2Budget(0.999), rng);
  for (int lvl = 1; lvl < r.num_levels(); ++lvl) {
    EXPECT_GE(r.level(lvl).noise_stddev, r.level(lvl - 1).noise_stddev)
        << "level " << lvl;
  }
}

TEST(ReleaseDrawTest, SmallerEpsilonMeansMoreNoise) {
  const BipartiteGraph g = TestGraph();
  const auto h = TestHierarchy(g);
  const auto artifact = ArtifactFor(g, h);
  Rng rng(19);
  const LevelRelease strict =
      artifact->Release(Phase2Budget(0.1), rng).level(2);
  const LevelRelease loose =
      artifact->Release(Phase2Budget(0.999), rng).level(2);
  EXPECT_GT(strict.noise_stddev, loose.noise_stddev);
  EXPECT_GT(strict.group_noise_stddev, loose.group_noise_stddev);
}

TEST(ReleaseDrawTest, EdgelessGraphReleasedExactly) {
  // Δℓ = 0 at every level: nothing to protect, and a Δ = 0 mechanism cannot
  // be calibrated, so every level is released exactly.
  const BipartiteGraph g(2, 2, {});
  const auto h = EdgelessHierarchy();
  Rng rng(23);
  const MultiLevelRelease r =
      ArtifactFor(g, h)->Release(Phase2Budget(0.999), rng);
  ASSERT_EQ(r.num_levels(), h.num_levels());
  for (const auto& lvl : r.levels()) {
    EXPECT_EQ(lvl.sensitivity, 0.0);
    EXPECT_EQ(lvl.noise_stddev, 0.0);
    EXPECT_EQ(lvl.group_noise_stddev, 0.0);
    EXPECT_EQ(lvl.noisy_total, 0.0);
    for (const double c : lvl.noisy_group_counts) {
      EXPECT_EQ(c, 0.0);
    }
    EXPECT_EQ(lvl.noisy_group_counts.size(), lvl.true_group_counts.size());
  }
  // The level streams were forked, and nothing else was drawn.
  Rng expected(23);
  (void)expected.ForkStreams(2);
  EXPECT_EQ(rng(), expected());
}

TEST(ReleaseDrawTest, ReleaseAllIsDeterministicUnderSeed) {
  const BipartiteGraph g = TestGraph();
  const auto h = TestHierarchy(g);
  const auto artifact = ArtifactFor(g, h);
  Rng r1(31);
  Rng r2(31);
  const MultiLevelRelease a = artifact->Release(Phase2Budget(0.999), r1);
  const MultiLevelRelease b = artifact->Release(Phase2Budget(0.999), r2);
  for (int lvl = 0; lvl < a.num_levels(); ++lvl) {
    EXPECT_DOUBLE_EQ(a.level(lvl).noisy_total, b.level(lvl).noisy_total);
  }
}

TEST(ReleaseDrawTest, EmpiricalNoiseMatchesReportedStddev) {
  const BipartiteGraph g = TestGraph();
  const auto h = TestHierarchy(g);
  ExecSpec exec;
  exec.include_group_counts = false;
  const auto artifact = ArtifactFor(g, h, exec);
  Rng rng(37);
  gdp::common::RunningStats s;
  double reported = 0.0;
  for (int t = 0; t < 4000; ++t) {
    const LevelRelease lr =
        artifact->Release(Phase2Budget(0.999), rng).level(2);
    s.Add(lr.noisy_total - lr.true_total);
    reported = lr.noise_stddev;
  }
  EXPECT_NEAR(s.stddev(), reported, reported * 0.05);
  EXPECT_NEAR(s.mean(), 0.0, reported * 0.05);
}

// Parameterised sweep: every noise kind must produce a well-formed release.
class ReleaseDrawKindTest : public ::testing::TestWithParam<NoiseKind> {};

TEST_P(ReleaseDrawKindTest, ReleasesAllLevels) {
  const BipartiteGraph g = TestGraph();
  const auto h = TestHierarchy(g);
  Rng rng(41);
  const MultiLevelRelease r =
      ArtifactFor(g, h)->Release(Phase2Budget(0.999, GetParam()), rng);
  EXPECT_EQ(r.num_levels(), h.num_levels());
  for (const auto& lvl : r.levels()) {
    EXPECT_TRUE(std::isfinite(lvl.noisy_total));
    EXPECT_GT(lvl.noise_stddev, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, ReleaseDrawKindTest,
    ::testing::Values(NoiseKind::kGaussian, NoiseKind::kAnalyticGaussian,
                      NoiseKind::kLaplace, NoiseKind::kDiscreteGaussian,
                      NoiseKind::kGeometric),
    [](const ::testing::TestParamInfo<NoiseKind>& info) {
      return NoiseKindName(info.param);
    });

}  // namespace
}  // namespace gdp::core
