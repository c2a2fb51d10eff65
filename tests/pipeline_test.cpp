#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/consistency.hpp"
#include "graph/generators.hpp"

namespace gdp::core {
namespace {

using gdp::common::Rng;
using gdp::graph::BipartiteGraph;

BipartiteGraph TestGraph() {
  Rng rng(3);
  gdp::graph::DblpLikeParams p;
  p.num_left = 500;
  p.num_right = 700;
  p.num_edges = 3000;
  return GenerateDblpLike(p, rng);
}

SessionSpec SmallSpec() {
  SessionSpec cfg;
  cfg.hierarchy.depth = 5;
  cfg.hierarchy.arity = 4;
  return cfg;
}

TEST(PipelineTest, ProducesHierarchyReleaseAndLedger) {
  const BipartiteGraph g = TestGraph();
  Rng rng(7);
  const DisclosureResult result = RunDisclosure(g, SmallSpec(), rng);
  EXPECT_EQ(result.hierarchy.depth(), 5);
  EXPECT_EQ(result.release.num_levels(), 6);
  EXPECT_EQ(result.ledger.charges().size(), 2u);
}

TEST(PipelineTest, BudgetSplitRespectsPhase1Fraction) {
  const BipartiteGraph g = TestGraph();
  SessionSpec cfg = SmallSpec();
  cfg.budget.epsilon_g = 1.0;
  cfg.budget.phase1_fraction = 0.25;
  Rng rng(7);
  const DisclosureResult result = RunDisclosure(g, cfg, rng);
  EXPECT_NEAR(result.ledger.charges()[0].epsilon, 0.25, 1e-9);
  EXPECT_NEAR(result.ledger.charges()[1].epsilon, 0.75, 1e-9);
  EXPECT_LE(result.ledger.epsilon_spent(), 1.0 + 1e-9);
}

TEST(PipelineTest, RejectsBadPhase1Fraction) {
  const BipartiteGraph g = TestGraph();
  SessionSpec cfg = SmallSpec();
  Rng rng(7);
  cfg.budget.phase1_fraction = 0.0;
  EXPECT_THROW((void)RunDisclosure(g, cfg, rng), std::invalid_argument);
  cfg.budget.phase1_fraction = 1.0;
  EXPECT_THROW((void)RunDisclosure(g, cfg, rng), std::invalid_argument);
}

TEST(PipelineTest, RejectsBadEpsilon) {
  const BipartiteGraph g = TestGraph();
  SessionSpec cfg = SmallSpec();
  cfg.budget.epsilon_g = -1.0;
  Rng rng(7);
  EXPECT_THROW((void)RunDisclosure(g, cfg, rng), std::invalid_argument);
}

TEST(PipelineTest, DeterministicUnderSeed) {
  const BipartiteGraph g = TestGraph();
  Rng r1(11);
  Rng r2(11);
  const DisclosureResult a = RunDisclosure(g, SmallSpec(), r1);
  const DisclosureResult b = RunDisclosure(g, SmallSpec(), r2);
  for (int lvl = 0; lvl < a.release.num_levels(); ++lvl) {
    EXPECT_DOUBLE_EQ(a.release.level(lvl).noisy_total,
                     b.release.level(lvl).noisy_total);
  }
}

TEST(PipelineTest, DifferentSeedsGiveDifferentNoise) {
  const BipartiteGraph g = TestGraph();
  Rng r1(11);
  Rng r2(12);
  const DisclosureResult a = RunDisclosure(g, SmallSpec(), r1);
  const DisclosureResult b = RunDisclosure(g, SmallSpec(), r2);
  EXPECT_NE(a.release.level(3).noisy_total, b.release.level(3).noisy_total);
}

TEST(PipelineTest, ParallelDisclosureInvariantAcrossThreadCounts) {
  // End-to-end determinism across thread counts, 1 (no pool) included: the
  // graph is big enough (1200 nodes) that with grain 256 the level-0 vector
  // noise really chunks, and the pool draws the chunks inside RunDisclosure.
  const BipartiteGraph g = TestGraph();
  SessionSpec cfg = SmallSpec();
  cfg.exec.noise_chunk_grain = 256;
  std::vector<MultiLevelRelease> releases;
  const int thread_counts[] = {1, 2, 4, 8};
  for (const int threads : thread_counts) {
    cfg.exec.num_threads = threads;
    Rng rng(7);
    releases.push_back(RunDisclosure(g, cfg, rng).release);
  }
  for (int t = 1; t < 4; ++t) {
    ASSERT_EQ(releases[t].num_levels(), releases[0].num_levels());
    for (int lvl = 0; lvl < releases[0].num_levels(); ++lvl) {
      EXPECT_EQ(releases[t].level(lvl).noisy_total,
                releases[0].level(lvl).noisy_total)
          << "threads " << thread_counts[t] << " level " << lvl;
      EXPECT_EQ(releases[t].level(lvl).noisy_group_counts,
                releases[0].level(lvl).noisy_group_counts)
          << "threads " << thread_counts[t] << " level " << lvl;
    }
  }
}

TEST(PipelineTest, RerOrderingMatchesPaperOnAverage) {
  // Coarser protection levels must show larger average RER (Figure 1's
  // vertical ordering).  Averaged over several pipeline runs.
  const BipartiteGraph g = TestGraph();
  SessionSpec cfg = SmallSpec();
  cfg.exec.include_group_counts = false;
  double rer_fine = 0.0;
  double rer_coarse = 0.0;
  constexpr int kTrials = 15;
  for (int t = 0; t < kTrials; ++t) {
    Rng rng(100 + static_cast<std::uint64_t>(t));
    const DisclosureResult result = RunDisclosure(g, cfg, rng);
    rer_fine += result.release.level(1).TotalRer();
    rer_coarse += result.release.level(4).TotalRer();
  }
  EXPECT_LT(rer_fine, rer_coarse);
}

TEST(PipelineTest, LevelZeroUsesMaxDegreeSensitivity) {
  const BipartiteGraph g = TestGraph();
  Rng rng(13);
  const DisclosureResult result = RunDisclosure(g, SmallSpec(), rng);
  const double max_degree = static_cast<double>(
      std::max(g.MaxDegree(gdp::graph::Side::kLeft),
               g.MaxDegree(gdp::graph::Side::kRight)));
  EXPECT_DOUBLE_EQ(result.release.level(0).sensitivity, max_degree);
}

TEST(PipelineTest, EnforceConsistencyProducesConsistentRelease) {
  const BipartiteGraph g = TestGraph();
  SessionSpec cfg = SmallSpec();
  cfg.exec.enforce_consistency = true;
  Rng rng(21);
  const DisclosureResult result = RunDisclosure(g, cfg, rng);
  EXPECT_TRUE(gdp::core::IsHierarchicallyConsistent(result.hierarchy,
                                                    result.release, 1e-6));
}

TEST(PipelineTest, EnforceConsistencyRequiresGroupCounts) {
  const BipartiteGraph g = TestGraph();
  SessionSpec cfg = SmallSpec();
  cfg.exec.enforce_consistency = true;
  cfg.exec.include_group_counts = false;
  Rng rng(23);
  EXPECT_THROW((void)RunDisclosure(g, cfg, rng), std::invalid_argument);
}

TEST(PipelineTest, TopLevelUsesEdgeCountSensitivity) {
  const BipartiteGraph g = TestGraph();
  Rng rng(13);
  const DisclosureResult result = RunDisclosure(g, SmallSpec(), rng);
  EXPECT_DOUBLE_EQ(result.release.level(5).sensitivity,
                   static_cast<double>(g.num_edges()));
}

}  // namespace
}  // namespace gdp::core
