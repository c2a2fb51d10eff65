#include "core/release_plan.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "core/group_dp_engine.hpp"
#include "core/group_sensitivity.hpp"
#include "graph/generators.hpp"
#include "hier/specialization.hpp"

namespace gdp::core {
namespace {

using gdp::common::Rng;
using gdp::graph::BipartiteGraph;
using gdp::graph::EdgeCount;
using gdp::hier::GroupHierarchy;
using gdp::hier::GroupId;
using gdp::hier::GroupInfo;
using gdp::hier::Partition;
using gdp::hier::Side;

// Span accessors materialised for gtest's operator== against vectors.
std::vector<EdgeCount> ToVec(std::span<const EdgeCount> s) {
  return {s.begin(), s.end()};
}

// Hand-built 3-level hierarchy over a 4x4 graph:
//   level 2 (top):  {L0..L3} {R0..R3}
//   level 1:        {L0,L1} {L2,L3} {R0,R1} {R2,R3}
//   level 0:        singletons
BipartiteGraph HandGraph() {
  return BipartiteGraph(4, 4, {{0, 0}, {0, 1}, {1, 0}, {2, 2}, {3, 3}, {2, 3}});
}

GroupHierarchy HandHierarchy() {
  // Level 0: singletons whose parents are the level-1 group ids.
  std::vector<GroupInfo> g0;
  for (GroupId parent : {0u, 0u, 1u, 1u}) {
    g0.push_back(GroupInfo{Side::kLeft, 1, parent});
  }
  for (GroupId parent : {2u, 2u, 3u, 3u}) {
    g0.push_back(GroupInfo{Side::kRight, 1, parent});
  }
  Partition level0({0, 1, 2, 3}, {4, 5, 6, 7}, std::move(g0));

  // Level 1: pairs whose parents are the level-2 (top) group ids.
  std::vector<GroupInfo> g1{GroupInfo{Side::kLeft, 2, 0},
                            GroupInfo{Side::kLeft, 2, 0},
                            GroupInfo{Side::kRight, 2, 1},
                            GroupInfo{Side::kRight, 2, 1}};
  Partition level1({0, 0, 1, 1}, {2, 2, 3, 3}, std::move(g1));

  Partition level2 = Partition::TopLevel(4, 4);

  std::vector<Partition> levels;
  levels.push_back(std::move(level0));
  levels.push_back(std::move(level1));
  levels.push_back(std::move(level2));
  return GroupHierarchy(std::move(levels));
}

TEST(ReleasePlanTest, RollupMatchesDirectScanOnHandBuiltHierarchy) {
  const BipartiteGraph g = HandGraph();
  const GroupHierarchy h = HandHierarchy();
  const ReleasePlan plan = ReleasePlan::Build(g, h);

  ASSERT_EQ(plan.num_levels(), h.num_levels());
  EXPECT_EQ(plan.num_edges(), g.num_edges());
  for (int lvl = 0; lvl < h.num_levels(); ++lvl) {
    EXPECT_EQ(ToVec(plan.GroupDegreeSums(lvl)), h.level(lvl).GroupDegreeSums(g))
        << "level " << lvl;
    EXPECT_EQ(plan.CountSensitivity(lvl), h.level(lvl).MaxGroupDegreeSum(g))
        << "level " << lvl;
  }
  // Known values: left degrees 2,1,2,1 / right degrees 2,1,1,2.
  EXPECT_EQ(ToVec(plan.GroupDegreeSums(0)),
            (std::vector<EdgeCount>{2, 1, 2, 1, 2, 1, 1, 2}));
  EXPECT_EQ(ToVec(plan.GroupDegreeSums(1)), (std::vector<EdgeCount>{3, 3, 3, 3}));
  EXPECT_EQ(ToVec(plan.GroupDegreeSums(2)), (std::vector<EdgeCount>{6, 6}));
  EXPECT_EQ(plan.CountSensitivity(2), g.num_edges());
}

TEST(ReleasePlanTest, BuildPerformsExactlyOneNodeScan) {
  const BipartiteGraph g = HandGraph();
  const GroupHierarchy h = HandHierarchy();
  const std::uint64_t before = Partition::DegreeSumScanCount();
  const ReleasePlan plan = ReleasePlan::Build(g, h);
  EXPECT_EQ(Partition::DegreeSumScanCount() - before, 1u);
  (void)plan;
}

TEST(ReleasePlanTest, PlannedReleaseAllScansTheGraphOnce) {
  const BipartiteGraph g = HandGraph();
  const GroupHierarchy h = HandHierarchy();
  const GroupDpEngine engine{ReleaseConfig{}};
  Rng rng(7);
  const std::uint64_t before = Partition::DegreeSumScanCount();
  const MultiLevelRelease r = engine.Release(ReleasePlan::Build(g, h), rng);
  EXPECT_EQ(Partition::DegreeSumScanCount() - before, 1u);
  EXPECT_EQ(r.num_levels(), h.num_levels());
}

TEST(ReleasePlanTest, MatchesDirectScansOnSpecializerHierarchy) {
  Rng graph_rng(3);
  const BipartiteGraph g =
      gdp::graph::GenerateUniformRandom(96, 80, 1500, graph_rng);
  gdp::hier::SpecializationConfig cfg;
  cfg.depth = 5;
  const gdp::hier::Specializer spec(cfg);
  Rng rng(11);
  const GroupHierarchy h = spec.BuildHierarchy(g, rng).hierarchy;

  const ReleasePlan plan = ReleasePlan::Build(g, h);
  for (int lvl = 0; lvl < h.num_levels(); ++lvl) {
    EXPECT_EQ(ToVec(plan.GroupDegreeSums(lvl)), h.level(lvl).GroupDegreeSums(g))
        << "level " << lvl;
  }
  // Δℓ against the independent per-level direct scan, not the rollup the
  // plan itself runs.
  const auto sens = plan.LevelSensitivities();
  ASSERT_EQ(sens.size(), static_cast<std::size_t>(h.num_levels()));
  for (int lvl = 0; lvl < h.num_levels(); ++lvl) {
    EXPECT_EQ(sens[static_cast<std::size_t>(lvl)],
              CountSensitivity(g, h.level(lvl)))
        << "level " << lvl;
  }
}

TEST(ReleasePlanTest, VectorSensitivityMatchesSqrtTwoBound) {
  const BipartiteGraph g = HandGraph();
  const GroupHierarchy h = HandHierarchy();
  const ReleasePlan plan = ReleasePlan::Build(g, h);
  for (int lvl = 0; lvl < h.num_levels(); ++lvl) {
    EXPECT_DOUBLE_EQ(
        plan.VectorSensitivity(lvl),
        std::sqrt(2.0) * static_cast<double>(plan.CountSensitivity(lvl)));
  }
}

TEST(ReleasePlanTest, VectorSensitivityThrowsOnEdgelessGraph) {
  const BipartiteGraph g(4, 4, {});
  const GroupHierarchy h = HandHierarchy();
  const ReleasePlan plan = ReleasePlan::Build(g, h);
  EXPECT_EQ(plan.CountSensitivity(1), 0u);
  EXPECT_THROW((void)plan.VectorSensitivity(1), std::invalid_argument);
}

TEST(ReleasePlanTest, LevelAccessorsValidateRange) {
  const ReleasePlan plan = ReleasePlan::Build(HandGraph(), HandHierarchy());
  EXPECT_THROW((void)plan.GroupDegreeSums(-1), std::out_of_range);
  EXPECT_THROW((void)plan.GroupDegreeSums(3), std::out_of_range);
  EXPECT_THROW((void)plan.CountSensitivity(3), std::out_of_range);
}

TEST(ReleasePlanTest, BrokenParentLinksFallBackToDirectScan) {
  // validate=false hierarchy whose level-0 parents are in-range but WRONG
  // (left node 0 claims level-1 group 1 instead of 0).  The rollup's size
  // conservation check must reject it and scan directly — a mis-rollup here
  // would understate the sensitivity and under-noise the release.
  const BipartiteGraph g = HandGraph();

  std::vector<GroupInfo> g0;
  for (GroupId parent : {1u, 0u, 1u, 1u}) {  // node 0's parent is wrong
    g0.push_back(GroupInfo{Side::kLeft, 1, parent});
  }
  for (GroupId parent : {2u, 2u, 3u, 3u}) {
    g0.push_back(GroupInfo{Side::kRight, 1, parent});
  }
  Partition level0({0, 1, 2, 3}, {4, 5, 6, 7}, std::move(g0));
  std::vector<GroupInfo> g1{GroupInfo{Side::kLeft, 2, 0},
                            GroupInfo{Side::kLeft, 2, 0},
                            GroupInfo{Side::kRight, 2, 1},
                            GroupInfo{Side::kRight, 2, 1}};
  Partition level1({0, 0, 1, 1}, {2, 2, 3, 3}, std::move(g1));
  std::vector<Partition> levels;
  levels.push_back(std::move(level0));
  levels.push_back(std::move(level1));
  levels.push_back(Partition::TopLevel(4, 4));
  const GroupHierarchy h(std::move(levels), /*validate=*/false);

  const ReleasePlan plan = ReleasePlan::Build(g, h);
  for (int lvl = 0; lvl < h.num_levels(); ++lvl) {
    EXPECT_EQ(ToVec(plan.GroupDegreeSums(lvl)), h.level(lvl).GroupDegreeSums(g))
        << "level " << lvl;
  }
}

TEST(ReleasePlanTest, HierarchyLevelSensitivitiesUseSinglePass) {
  const BipartiteGraph g = HandGraph();
  const GroupHierarchy h = HandHierarchy();
  const std::uint64_t before = Partition::DegreeSumScanCount();
  const auto sens = h.LevelSensitivities(g);
  EXPECT_EQ(Partition::DegreeSumScanCount() - before, 1u);
  EXPECT_EQ(sens, (std::vector<EdgeCount>{2, 3, 6}));
}

}  // namespace
}  // namespace gdp::core
