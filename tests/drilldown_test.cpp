#include "core/drilldown.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "hier/specialization.hpp"
#include "release_oracle.hpp"

namespace gdp::core {
namespace {

using gdp::common::Rng;
using gdp::graph::BipartiteGraph;
using gdp::graph::Side;

struct Fixture {
  BipartiteGraph graph;
  gdp::hier::GroupHierarchy hierarchy;
  MultiLevelRelease release;
};

Fixture MakeFixture() {
  Rng grng(3);
  BipartiteGraph g = gdp::graph::GenerateUniformRandom(64, 64, 600, grng);
  gdp::hier::SpecializationConfig cfg;
  cfg.depth = 4;
  const gdp::hier::Specializer spec(cfg);
  Rng srng(5);
  auto hierarchy = spec.BuildHierarchy(g, srng).hierarchy;
  Rng rng(7);
  auto release =
      ArtifactFor(g, hierarchy)->Release(Phase2Budget(0.999), rng);
  return Fixture{std::move(g), std::move(hierarchy), std::move(release)};
}

TEST(DrillDownTest, ChainDescendsFromCoarseToFine) {
  const Fixture f = MakeFixture();
  const gdp::hier::HierarchyIndex index(f.hierarchy);
  const auto chain = DrillDown(f.release, index, Side::kLeft, 7, 4, 0);
  ASSERT_EQ(chain.size(), 5u);
  for (std::size_t i = 0; i < chain.size(); ++i) {
    EXPECT_EQ(chain[i].level, 4 - static_cast<int>(i));
  }
  // Group sizes shrink (weakly) down the chain.
  for (std::size_t i = 1; i < chain.size(); ++i) {
    EXPECT_LE(chain[i].group_size, chain[i - 1].group_size);
  }
  // Bottom of the chain is the node's singleton.
  EXPECT_EQ(chain.back().group_size, 1u);
}

TEST(DrillDownTest, EntriesMatchReleasedCounts) {
  const Fixture f = MakeFixture();
  const gdp::hier::HierarchyIndex index(f.hierarchy);
  const auto chain = DrillDown(f.release, index, Side::kRight, 3, 4, 1);
  for (const auto& entry : chain) {
    const auto g = f.hierarchy.level(entry.level).GroupOf(Side::kRight, 3);
    EXPECT_EQ(entry.group, g);
    EXPECT_DOUBLE_EQ(entry.noisy_count,
                     f.release.level(entry.level).noisy_group_counts[g]);
    EXPECT_DOUBLE_EQ(entry.true_count,
                     f.release.level(entry.level).true_group_counts[g]);
  }
}

TEST(DrillDownTest, TrueCountIsIncidentEdgeCount) {
  const Fixture f = MakeFixture();
  const gdp::hier::HierarchyIndex index(f.hierarchy);
  const auto chain = DrillDown(f.release, index, Side::kLeft, 0, 2, 2);
  ASSERT_EQ(chain.size(), 1u);
  const auto& level = f.hierarchy.level(2);
  const auto sums = level.GroupDegreeSums(f.graph);
  EXPECT_DOUBLE_EQ(chain[0].true_count,
                   static_cast<double>(sums[chain[0].group]));
}

TEST(DrillDownTest, ValidatesLevelRange) {
  const Fixture f = MakeFixture();
  const gdp::hier::HierarchyIndex index(f.hierarchy);
  EXPECT_THROW((void)DrillDown(f.release, index, Side::kLeft, 0, 5, 0),
               std::invalid_argument);
  EXPECT_THROW((void)DrillDown(f.release, index, Side::kLeft, 0, 2, 3),
               std::invalid_argument);
  EXPECT_THROW((void)DrillDown(f.release, index, Side::kLeft, 0, 2, -1),
               std::invalid_argument);
}

TEST(DrillDownTest, RejectsReleaseWithoutGroupCounts) {
  const Fixture f = MakeFixture();
  const gdp::hier::HierarchyIndex index(f.hierarchy);
  ExecSpec exec;
  exec.include_group_counts = false;
  Rng rng(11);
  const MultiLevelRelease bare = ArtifactFor(f.graph, f.hierarchy, exec)
                                     ->Release(Phase2Budget(0.999), rng);
  EXPECT_THROW((void)DrillDown(bare, index, Side::kLeft, 0, 4, 0),
               std::invalid_argument);
}

TEST(DrillDownTest, StrippedReleaseYieldsZeroTruth) {
  const Fixture f = MakeFixture();
  const gdp::hier::HierarchyIndex index(f.hierarchy);
  const MultiLevelRelease pub = f.release.StripTruth();
  const auto chain = DrillDown(pub, index, Side::kLeft, 2, 4, 0);
  for (const auto& entry : chain) {
    EXPECT_EQ(entry.true_count, 0.0);
  }
}

// A per-level budget (one ε per level, e.g. from PlanLevelBudgets) takes
// each level from a release of its own at that level's ε.
MultiLevelRelease ReleaseWithPerLevelBudgets(const CompiledDisclosure& artifact,
                                             const std::vector<double>& budgets,
                                             std::uint64_t seed) {
  std::vector<LevelRelease> levels;
  for (int lvl = 0; lvl < artifact.plan().num_levels(); ++lvl) {
    Rng rng(seed);
    levels.push_back(
        artifact.Release(Phase2Budget(budgets.at(static_cast<std::size_t>(lvl))),
                         rng)
            .level(lvl));
  }
  return MultiLevelRelease(std::move(levels));
}

std::shared_ptr<const CompiledDisclosure> TotalsArtifact(const Fixture& f) {
  ExecSpec exec;
  exec.include_group_counts = false;
  return ArtifactFor(f.graph, f.hierarchy, exec);
}

TEST(PerLevelBudgetTest, PerLevelEpsilonsChangeNoiseScales) {
  const Fixture f = MakeFixture();
  const auto artifact = TotalsArtifact(f);
  // Increasing epsilon per level: noise scale relative to the uniform
  // release must shrink at generously-budgeted levels.
  const std::vector<double> budgets{0.1, 0.2, 0.4, 0.8, 1.6};
  const MultiLevelRelease planned =
      ReleaseWithPerLevelBudgets(*artifact, budgets, 13);
  Rng rng2(13);
  const MultiLevelRelease uniform = artifact->Release(Phase2Budget(0.999), rng2);
  // Level 0 budget (0.1) < uniform (0.999): more noise.
  EXPECT_GT(planned.level(0).noise_stddev, uniform.level(0).noise_stddev);
  // Level 4 budget (1.6) > uniform: less noise.
  EXPECT_LT(planned.level(4).noise_stddev, uniform.level(4).noise_stddev);
}

TEST(PerLevelBudgetTest, LevelNoiseDependsOnlyOnItsOwnStream) {
  // Level ℓ draws from the ℓ-th forked stream alone, so at one seed a level
  // released at ε differs from the same level at ε' only by its noise
  // scale: the standardized Gaussian draw is the same sample.
  const Fixture f = MakeFixture();
  const auto artifact = TotalsArtifact(f);
  const std::vector<double> budgets{0.1, 0.2, 0.4, 0.8, 1.6};
  const MultiLevelRelease planned =
      ReleaseWithPerLevelBudgets(*artifact, budgets, 17);
  const MultiLevelRelease uniform = ReleaseWithPerLevelBudgets(
      *artifact, std::vector<double>(budgets.size(), 0.999), 17);
  for (int lvl = 0; lvl < planned.num_levels(); ++lvl) {
    const LevelRelease& a = planned.level(lvl);
    const LevelRelease& b = uniform.level(lvl);
    const double za = (a.noisy_total - a.true_total) / a.noise_stddev;
    const double zb = (b.noisy_total - b.true_total) / b.noise_stddev;
    EXPECT_NEAR(za, zb, 1e-9 * (1.0 + std::abs(zb))) << "level " << lvl;
  }
}

}  // namespace
}  // namespace gdp::core
