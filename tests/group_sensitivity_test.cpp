#include "core/group_sensitivity.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "hier/specialization.hpp"

namespace gdp::core {
namespace {

using gdp::graph::BipartiteGraph;
using gdp::graph::Side;
using gdp::hier::GroupInfo;
using gdp::hier::kNoParent;

TEST(CountSensitivityTest, TopLevelEqualsEdgeCount) {
  const BipartiteGraph g(3, 3, {{0, 0}, {1, 1}, {2, 2}, {0, 1}});
  const Partition top = Partition::TopLevel(3, 3);
  EXPECT_EQ(CountSensitivity(g, top), g.num_edges());
}

TEST(CountSensitivityTest, SingletonsEqualMaxDegree) {
  const BipartiteGraph g(3, 3, {{0, 0}, {0, 1}, {0, 2}, {1, 0}});
  const Partition singles = Partition::Singletons(3, 3);
  EXPECT_EQ(CountSensitivity(g, singles), 3u);  // left node 0 has degree 3
}

TEST(CountSensitivityTest, MidLevelIsMaxGroupWeight) {
  // Left nodes {0,1} in one group, {2} in another; right all together.
  const BipartiteGraph g(3, 2, {{0, 0}, {0, 1}, {1, 0}, {2, 1}});
  const Partition p({0, 0, 1}, {2, 2},
                    {GroupInfo{Side::kLeft, 2, kNoParent},
                     GroupInfo{Side::kLeft, 1, kNoParent},
                     GroupInfo{Side::kRight, 2, kNoParent}});
  // Group 0 weight = 3, group 1 weight = 1, group 2 (right, all) = 4.
  EXPECT_EQ(CountSensitivity(g, p), 4u);
}

TEST(CountSensitivityTest, EdgelessGraphIsZero) {
  const BipartiteGraph g(4, 4, {});
  EXPECT_EQ(CountSensitivity(g, Partition::TopLevel(4, 4)), 0u);
}

TEST(CountSensitivitiesTest, OnePerLevelAndMonotone) {
  gdp::common::Rng rng(3);
  const BipartiteGraph g = gdp::graph::GenerateUniformRandom(64, 64, 900, rng);
  gdp::hier::SpecializationConfig cfg;
  cfg.depth = 5;
  const gdp::hier::Specializer spec(cfg);
  gdp::common::Rng build_rng(4);
  const auto built = spec.BuildHierarchy(g, build_rng);
  const auto sens = built.hierarchy.LevelSensitivities(g);
  ASSERT_EQ(sens.size(), 6u);
  for (std::size_t i = 1; i < sens.size(); ++i) {
    EXPECT_GE(sens[i], sens[i - 1]);
  }
}

TEST(VectorSensitivityTest, IsSqrtTwoTimesScalar) {
  const BipartiteGraph g(3, 3, {{0, 0}, {1, 1}, {2, 2}, {0, 1}});
  const Partition top = Partition::TopLevel(3, 3);
  const auto v = VectorSensitivity(g, top);
  EXPECT_NEAR(v.value(), std::sqrt(2.0) * 4.0, 1e-12);
}

TEST(VectorSensitivityTest, ThrowsOnZeroSensitivity) {
  const BipartiteGraph g(3, 3, {});
  EXPECT_THROW((void)VectorSensitivity(g, Partition::TopLevel(3, 3)),
               std::invalid_argument);
}

}  // namespace
}  // namespace gdp::core
