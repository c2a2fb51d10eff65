#include "hier/partition.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "common/rng.hpp"
#include "graph/generators.hpp"

namespace gdp::hier {
namespace {

using gdp::graph::BipartiteGraph;

// 4 left, 4 right nodes; left split {0,1}/{2,3}, right split {0}/{1,2,3}.
Partition FourGroupPartition() {
  return Partition({0, 0, 1, 1}, {2, 3, 3, 3},
                   {GroupInfo{Side::kLeft, 2, kNoParent},
                    GroupInfo{Side::kLeft, 2, kNoParent},
                    GroupInfo{Side::kRight, 1, kNoParent},
                    GroupInfo{Side::kRight, 3, kNoParent}});
}

TEST(PartitionTest, ValidConstruction) {
  const Partition p = FourGroupPartition();
  EXPECT_EQ(p.num_groups(), 4u);
  EXPECT_EQ(p.num_left_nodes(), 4u);
  EXPECT_EQ(p.num_right_nodes(), 4u);
}

TEST(PartitionTest, GroupOfLooksUpLabels) {
  const Partition p = FourGroupPartition();
  EXPECT_EQ(p.GroupOf(Side::kLeft, 0), 0u);
  EXPECT_EQ(p.GroupOf(Side::kLeft, 3), 1u);
  EXPECT_EQ(p.GroupOf(Side::kRight, 0), 2u);
  EXPECT_EQ(p.GroupOf(Side::kRight, 2), 3u);
  EXPECT_THROW((void)p.GroupOf(Side::kLeft, 4), std::out_of_range);
}

TEST(PartitionTest, NodesOfMaterialisesMembers) {
  const Partition p = FourGroupPartition();
  EXPECT_EQ(p.NodesOf(0), (std::vector<gdp::graph::NodeIndex>{0, 1}));
  EXPECT_EQ(p.NodesOf(3), (std::vector<gdp::graph::NodeIndex>{1, 2, 3}));
}

TEST(PartitionTest, RejectsLabelOutOfRange) {
  EXPECT_THROW(Partition({0, 9}, {1},
                         {GroupInfo{Side::kLeft, 2, kNoParent},
                          GroupInfo{Side::kRight, 1, kNoParent}}),
               std::invalid_argument);
}

TEST(PartitionTest, RejectsSideMismatch) {
  // Left node labelled into a right-side group.
  EXPECT_THROW(Partition({0}, {1},
                         {GroupInfo{Side::kRight, 1, kNoParent},
                          GroupInfo{Side::kRight, 1, kNoParent}}),
               std::invalid_argument);
}

TEST(PartitionTest, RejectsSizeMismatch) {
  EXPECT_THROW(Partition({0, 0}, {1},
                         {GroupInfo{Side::kLeft, 1, kNoParent},  // says 1, is 2
                          GroupInfo{Side::kRight, 1, kNoParent}}),
               std::invalid_argument);
}

TEST(PartitionTest, RejectsEmptyGroup) {
  EXPECT_THROW(Partition({0}, {1},
                         {GroupInfo{Side::kLeft, 1, kNoParent},
                          GroupInfo{Side::kRight, 1, kNoParent},
                          GroupInfo{Side::kLeft, 0, kNoParent}}),
               std::invalid_argument);
}

TEST(PartitionTest, TopLevelHasTwoSideGroups) {
  const Partition p = Partition::TopLevel(5, 7);
  EXPECT_EQ(p.num_groups(), 2u);
  EXPECT_EQ(p.group(0).side, Side::kLeft);
  EXPECT_EQ(p.group(0).size, 5u);
  EXPECT_EQ(p.group(1).side, Side::kRight);
  EXPECT_EQ(p.group(1).size, 7u);
  for (gdp::graph::NodeIndex v = 0; v < 5; ++v) {
    EXPECT_EQ(p.GroupOf(Side::kLeft, v), 0u);
  }
}

TEST(PartitionTest, TopLevelRejectsEmptySides) {
  EXPECT_THROW((void)Partition::TopLevel(0, 3), std::invalid_argument);
  EXPECT_THROW((void)Partition::TopLevel(3, 0), std::invalid_argument);
}

TEST(PartitionTest, SingletonsOneGroupPerNode) {
  const Partition p = Partition::Singletons(3, 2);
  EXPECT_EQ(p.num_groups(), 5u);
  EXPECT_EQ(p.GroupOf(Side::kLeft, 2), 2u);
  EXPECT_EQ(p.GroupOf(Side::kRight, 0), 3u);
  EXPECT_EQ(p.MaxGroupSize(), 1u);
}

TEST(PartitionTest, GroupDegreeSumsMatchManualCount) {
  // Graph on the FourGroupPartition shape.
  const BipartiteGraph g(4, 4, {{0, 0}, {1, 0}, {2, 1}, {3, 2}, {3, 3}});
  const Partition p = FourGroupPartition();
  const auto sums = p.GroupDegreeSums(g);
  ASSERT_EQ(sums.size(), 4u);
  EXPECT_EQ(sums[0], 2u);  // deg(l0)+deg(l1) = 1+1
  EXPECT_EQ(sums[1], 3u);  // deg(l2)+deg(l3) = 1+2
  EXPECT_EQ(sums[2], 2u);  // deg(r0) = 2
  EXPECT_EQ(sums[3], 3u);  // deg(r1..r3) = 1+1+1
  EXPECT_EQ(p.MaxGroupDegreeSum(g), 3u);
}

TEST(PartitionTest, GroupDegreeSumsPerSideTotalEdges) {
  gdp::common::Rng rng(5);
  const BipartiteGraph g = gdp::graph::GenerateUniformRandom(40, 40, 300, rng);
  const Partition p = Partition::TopLevel(40, 40);
  const auto sums = p.GroupDegreeSums(g);
  EXPECT_EQ(sums[0], g.num_edges());
  EXPECT_EQ(sums[1], g.num_edges());
}

TEST(PartitionTest, GroupDegreeSumsRejectsDimensionMismatch) {
  const BipartiteGraph g(3, 3, {});
  const Partition p = Partition::TopLevel(4, 4);
  EXPECT_THROW((void)p.GroupDegreeSums(g), std::invalid_argument);
}

TEST(PartitionTest, IsRefinedByChecksParents) {
  const Partition coarse = Partition::TopLevel(2, 2);
  // Fine: left split into singletons parented to 0, right one group -> 1.
  const Partition fine({0, 1}, {2, 2},
                       {GroupInfo{Side::kLeft, 1, 0}, GroupInfo{Side::kLeft, 1, 0},
                        GroupInfo{Side::kRight, 2, 1}});
  EXPECT_TRUE(coarse.IsRefinedBy(fine));
}

TEST(PartitionTest, IsRefinedByRejectsWrongParent) {
  const Partition coarse = Partition::TopLevel(2, 2);
  const Partition fine({0, 1}, {2, 2},
                       {GroupInfo{Side::kLeft, 1, 0},
                        GroupInfo{Side::kLeft, 1, 1},  // wrong parent (right group)
                        GroupInfo{Side::kRight, 2, 1}});
  EXPECT_FALSE(coarse.IsRefinedBy(fine));
}

TEST(PartitionTest, IsRefinedByRejectsDimensionMismatch) {
  const Partition a = Partition::TopLevel(2, 2);
  const Partition b = Partition::TopLevel(3, 2);
  EXPECT_FALSE(a.IsRefinedBy(b));
}

TEST(PartitionTest, MaxGroupSizeReportsLargest) {
  const Partition p = FourGroupPartition();
  EXPECT_EQ(p.MaxGroupSize(), 3u);
}

}  // namespace
}  // namespace gdp::hier
