#include "core/group_dp_engine.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/math.hpp"
#include "common/rng.hpp"
#include "dp/gaussian.hpp"
#include "core/release_plan.hpp"
#include "graph/generators.hpp"
#include "hier/specialization.hpp"

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

TEST(GroupDpEngineTest, ConfigValidatedAtConstruction) {
  ReleaseConfig bad;
  bad.epsilon_g = 0.0;
  EXPECT_THROW(GroupDpEngine{bad}, std::invalid_argument);
  bad = ReleaseConfig{};
  bad.delta = 1.0;
  EXPECT_THROW(GroupDpEngine{bad}, std::invalid_argument);
  bad = ReleaseConfig{};
  bad.noise_chunk_grain = 0;
  EXPECT_THROW(GroupDpEngine{bad}, std::invalid_argument);
}

TEST(GroupDpEngineTest, NoiseStddevMatchesClassicGaussianFormula) {
  ReleaseConfig cfg;
  cfg.epsilon_g = 0.999;
  cfg.delta = 1e-5;
  const GroupDpEngine engine(cfg);
  const double delta_sigma = gdp::dp::ClassicGaussianSigma(
      gdp::dp::Epsilon(0.999), gdp::dp::Delta(1e-5), gdp::dp::L2Sensitivity(500.0));
  EXPECT_NEAR(engine.NoiseStddevFor(500.0), delta_sigma, 1e-9);
}

TEST(GroupDpEngineTest, ReleaseLevelRecordsSensitivityAndTruth) {
  const BipartiteGraph g = TestGraph();
  const auto h = TestHierarchy(g);
  const GroupDpEngine engine(ReleaseConfig{});
  Rng rng(11);
  const LevelRelease lr =
      engine.Release(ReleasePlan::Build(g, h), rng).level(2);
  EXPECT_EQ(lr.level, 2);
  EXPECT_DOUBLE_EQ(lr.true_total, static_cast<double>(g.num_edges()));
  EXPECT_DOUBLE_EQ(lr.sensitivity,
                   static_cast<double>(h.level(2).MaxGroupDegreeSum(g)));
  EXPECT_GT(lr.noise_stddev, 0.0);
  EXPECT_NE(lr.noisy_total, lr.true_total);
}

TEST(GroupDpEngineTest, GroupCountsIncludedByDefault) {
  const BipartiteGraph g = TestGraph();
  const auto h = TestHierarchy(g);
  const GroupDpEngine engine(ReleaseConfig{});
  Rng rng(13);
  const LevelRelease lr =
      engine.Release(ReleasePlan::Build(g, h), rng).level(3);
  EXPECT_EQ(lr.true_group_counts.size(), h.level(3).num_groups());
  EXPECT_EQ(lr.noisy_group_counts.size(), h.level(3).num_groups());
}

TEST(GroupDpEngineTest, GroupCountsOmittedWhenDisabled) {
  const BipartiteGraph g = TestGraph();
  const auto h = TestHierarchy(g);
  ReleaseConfig cfg;
  cfg.include_group_counts = false;
  const GroupDpEngine engine(cfg);
  Rng rng(13);
  const LevelRelease lr =
      engine.Release(ReleasePlan::Build(g, h), rng).level(3);
  EXPECT_TRUE(lr.true_group_counts.empty());
  EXPECT_TRUE(lr.noisy_group_counts.empty());
}

TEST(GroupDpEngineTest, CoarserLevelsGetMoreNoise) {
  const BipartiteGraph g = TestGraph();
  const auto h = TestHierarchy(g, 5);
  const GroupDpEngine engine(ReleaseConfig{});
  Rng rng(17);
  const MultiLevelRelease r = engine.Release(ReleasePlan::Build(g, h), rng);
  for (int lvl = 1; lvl < r.num_levels(); ++lvl) {
    EXPECT_GE(r.level(lvl).noise_stddev, r.level(lvl - 1).noise_stddev)
        << "level " << lvl;
  }
}

TEST(GroupDpEngineTest, SmallerEpsilonMeansMoreNoise) {
  ReleaseConfig strict;
  strict.epsilon_g = 0.1;
  ReleaseConfig loose;
  loose.epsilon_g = 0.999;
  const GroupDpEngine e_strict(strict);
  const GroupDpEngine e_loose(loose);
  EXPECT_GT(e_strict.NoiseStddevFor(1000.0), e_loose.NoiseStddevFor(1000.0));
}

TEST(GroupDpEngineTest, EdgelessGraphReleasedExactly) {
  // Δℓ = 0 at every level: nothing to protect, and a Δ = 0 mechanism cannot
  // be calibrated, so every level is released exactly.
  const BipartiteGraph g(2, 2, {});
  const auto h = EdgelessHierarchy();
  const GroupDpEngine engine(ReleaseConfig{});
  Rng rng(23);
  const MultiLevelRelease r = engine.Release(ReleasePlan::Build(g, h), rng);
  ASSERT_EQ(r.num_levels(), h.num_levels());
  for (const auto& lvl : r.levels()) {
    EXPECT_EQ(lvl.sensitivity, 0.0);
    EXPECT_EQ(lvl.noise_stddev, 0.0);
    EXPECT_EQ(lvl.noisy_total, 0.0);
    for (const double c : lvl.noisy_group_counts) {
      EXPECT_EQ(c, 0.0);
    }
    EXPECT_EQ(lvl.noisy_group_counts.size(), lvl.true_group_counts.size());
  }
}

TEST(GroupDpEngineTest, RepeatReleasesAreServedFromTheMechanismCache) {
  const BipartiteGraph g = TestGraph();
  const auto h = TestHierarchy(g);
  const ReleasePlan plan = ReleasePlan::Build(g, h);
  const GroupDpEngine engine(ReleaseConfig{});
  Rng rng(47);
  EXPECT_EQ(engine.MechanismCacheSize(), 0u);
  (void)engine.Release(plan, rng);
  const std::size_t after_first = engine.MechanismCacheSize();
  EXPECT_GT(after_first, 0u);
  // A repeat release re-uses every calibration: pure cache hits.
  (void)engine.Release(plan, rng);
  EXPECT_EQ(engine.MechanismCacheSize(), after_first);
}

TEST(GroupDpEngineTest, ClampNonNegativeEliminatesNegativeCounts) {
  const BipartiteGraph g = TestGraph();
  const auto h = TestHierarchy(g, 5);
  ReleaseConfig cfg;
  cfg.epsilon_g = 0.1;  // big noise: negatives certain without clamping
  cfg.clamp_nonnegative = true;
  const GroupDpEngine engine(cfg);
  Rng rng(29);
  const MultiLevelRelease r = engine.Release(ReleasePlan::Build(g, h), rng);
  for (const auto& lvl : r.levels()) {
    EXPECT_GE(lvl.noisy_total, 0.0);
    for (const double c : lvl.noisy_group_counts) {
      EXPECT_GE(c, 0.0);
    }
  }
}

TEST(GroupDpEngineTest, ReleaseAllIsDeterministicUnderSeed) {
  const BipartiteGraph g = TestGraph();
  const auto h = TestHierarchy(g);
  const ReleasePlan plan = ReleasePlan::Build(g, h);
  const GroupDpEngine engine(ReleaseConfig{});
  Rng r1(31);
  Rng r2(31);
  const MultiLevelRelease a = engine.Release(plan, r1);
  const MultiLevelRelease b = engine.Release(plan, r2);
  for (int lvl = 0; lvl < a.num_levels(); ++lvl) {
    EXPECT_DOUBLE_EQ(a.level(lvl).noisy_total, b.level(lvl).noisy_total);
  }
}

TEST(GroupDpEngineTest, EmpiricalNoiseMatchesReportedStddev) {
  const BipartiteGraph g = TestGraph();
  const auto h = TestHierarchy(g);
  ReleaseConfig cfg;
  cfg.include_group_counts = false;
  const GroupDpEngine engine(cfg);
  const ReleasePlan plan = ReleasePlan::Build(g, h);
  Rng rng(37);
  gdp::common::RunningStats s;
  double reported = 0.0;
  for (int t = 0; t < 4000; ++t) {
    const LevelRelease lr = engine.Release(plan, rng).level(2);
    s.Add(lr.noisy_total - lr.true_total);
    reported = lr.noise_stddev;
  }
  EXPECT_NEAR(s.stddev(), reported, reported * 0.05);
  EXPECT_NEAR(s.mean(), 0.0, reported * 0.05);
}

// Parameterised sweep: every noise kind must produce a well-formed release.
class EngineNoiseKindTest : public ::testing::TestWithParam<NoiseKind> {};

TEST_P(EngineNoiseKindTest, ReleasesAllLevels) {
  const BipartiteGraph g = TestGraph();
  const auto h = TestHierarchy(g);
  ReleaseConfig cfg;
  cfg.noise = GetParam();
  const GroupDpEngine engine(cfg);
  Rng rng(41);
  const MultiLevelRelease r = engine.Release(ReleasePlan::Build(g, h), rng);
  EXPECT_EQ(r.num_levels(), h.num_levels());
  for (const auto& lvl : r.levels()) {
    EXPECT_TRUE(std::isfinite(lvl.noisy_total));
    EXPECT_GT(lvl.noise_stddev, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, EngineNoiseKindTest,
    ::testing::Values(NoiseKind::kGaussian, NoiseKind::kAnalyticGaussian,
                      NoiseKind::kLaplace, NoiseKind::kDiscreteGaussian,
                      NoiseKind::kGeometric),
    [](const ::testing::TestParamInfo<NoiseKind>& info) {
      return NoiseKindName(info.param);
    });

}  // namespace
}  // namespace gdp::core
