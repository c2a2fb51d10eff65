#include "core/consistency.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "core/metrics.hpp"
#include "graph/generators.hpp"
#include "hier/specialization.hpp"
#include "release_oracle.hpp"

namespace gdp::core {
namespace {

using gdp::common::Rng;
using gdp::graph::BipartiteGraph;
using gdp::hier::GroupHierarchy;

BipartiteGraph TestGraph() {
  Rng rng(3);
  gdp::graph::DblpLikeParams p;
  p.num_left = 400;
  p.num_right = 600;
  p.num_edges = 4000;
  return GenerateDblpLike(p, rng);
}

GroupHierarchy TestHierarchy(const BipartiteGraph& g, int depth = 5) {
  gdp::hier::SpecializationConfig cfg;
  cfg.depth = depth;
  const gdp::hier::Specializer spec(cfg);
  Rng rng(5);
  return spec.BuildHierarchy(g, rng).hierarchy;
}

MultiLevelRelease NoisyRelease(const BipartiteGraph& g, const GroupHierarchy& h,
                               std::uint64_t seed, double eps = 0.999) {
  Rng rng(seed);
  return ArtifactFor(g, h)->Release(Phase2Budget(eps), rng);
}

TEST(ConsistencyTest, RawReleaseIsInconsistent) {
  const BipartiteGraph g = TestGraph();
  const GroupHierarchy h = TestHierarchy(g);
  const MultiLevelRelease raw = NoisyRelease(g, h, 7);
  EXPECT_FALSE(IsHierarchicallyConsistent(h, raw, 1e-3));
}

TEST(ConsistencyTest, EnforcedReleaseIsConsistent) {
  const BipartiteGraph g = TestGraph();
  const GroupHierarchy h = TestHierarchy(g);
  const MultiLevelRelease adjusted =
      EnforceHierarchicalConsistency(h, NoisyRelease(g, h, 7));
  EXPECT_TRUE(IsHierarchicallyConsistent(h, adjusted, 1e-6));
}

TEST(ConsistencyTest, TrueCountsAreAlreadyConsistent) {
  const BipartiteGraph g = TestGraph();
  const GroupHierarchy h = TestHierarchy(g);
  MultiLevelRelease raw = NoisyRelease(g, h, 9);
  // Replace noisy by true counts: the invariant must hold exactly.
  std::vector<LevelRelease> levels = raw.levels();
  for (auto& lr : levels) {
    lr.noisy_group_counts = lr.true_group_counts;
  }
  const MultiLevelRelease truth(std::move(levels));
  EXPECT_TRUE(IsHierarchicallyConsistent(h, truth, 1e-9));
}

TEST(ConsistencyTest, ConsistencyIsIdempotent) {
  const BipartiteGraph g = TestGraph();
  const GroupHierarchy h = TestHierarchy(g);
  const MultiLevelRelease once =
      EnforceHierarchicalConsistency(h, NoisyRelease(g, h, 11));
  const MultiLevelRelease twice = EnforceHierarchicalConsistency(h, once);
  for (int lvl = 0; lvl < once.num_levels(); ++lvl) {
    const auto& a = once.level(lvl).noisy_group_counts;
    const auto& b = twice.level(lvl).noisy_group_counts;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_NEAR(a[i], b[i], std::max(1.0, std::fabs(a[i])) * 1e-6);
    }
  }
}

TEST(ConsistencyTest, ReducesCoarseLevelError) {
  // GLS borrows strength from the fine levels, so coarse-level group counts
  // must improve on average.
  const BipartiteGraph g = TestGraph();
  const GroupHierarchy h = TestHierarchy(g);
  double raw_err = 0.0;
  double adj_err = 0.0;
  constexpr int kTrials = 10;
  for (std::uint64_t t = 0; t < kTrials; ++t) {
    const MultiLevelRelease raw = NoisyRelease(g, h, 100 + t);
    const MultiLevelRelease adj = EnforceHierarchicalConsistency(h, raw);
    const int lvl = h.depth();  // coarsest
    raw_err += MeanAbsoluteError(raw.level(lvl).noisy_group_counts,
                                 raw.level(lvl).true_group_counts);
    adj_err += MeanAbsoluteError(adj.level(lvl).noisy_group_counts,
                                 adj.level(lvl).true_group_counts);
  }
  EXPECT_LT(adj_err, raw_err);
}

TEST(ConsistencyTest, ScalarTotalsAreLeftUntouched) {
  // The scalar total is a lower-variance observation than any group-count
  // sum (it was calibrated without the sqrt(2) vector factor), so the
  // post-processing must not overwrite it.
  const BipartiteGraph g = TestGraph();
  const GroupHierarchy h = TestHierarchy(g);
  const MultiLevelRelease raw = NoisyRelease(g, h, 200);
  const MultiLevelRelease adj = EnforceHierarchicalConsistency(h, raw);
  for (int lvl = 0; lvl < raw.num_levels(); ++lvl) {
    EXPECT_DOUBLE_EQ(adj.level(lvl).noisy_total, raw.level(lvl).noisy_total);
  }
}

TEST(ConsistencyTest, RejectsReleaseWithoutGroupCounts) {
  const BipartiteGraph g = TestGraph();
  const GroupHierarchy h = TestHierarchy(g);
  ExecSpec exec;
  exec.include_group_counts = false;
  Rng rng(13);
  const MultiLevelRelease bare =
      ArtifactFor(g, h, exec)->Release(Phase2Budget(0.999), rng);
  EXPECT_THROW((void)EnforceHierarchicalConsistency(h, bare),
               std::invalid_argument);
  EXPECT_THROW((void)IsHierarchicallyConsistent(h, bare), std::invalid_argument);
}

TEST(ConsistencyTest, RejectsLevelCountMismatch) {
  const BipartiteGraph g = TestGraph();
  const GroupHierarchy h5 = TestHierarchy(g, 5);
  const GroupHierarchy h3 = TestHierarchy(g, 3);
  const MultiLevelRelease r5 = NoisyRelease(g, h5, 17);
  EXPECT_THROW((void)EnforceHierarchicalConsistency(h3, r5),
               std::invalid_argument);
}

}  // namespace
}  // namespace gdp::core
