// A workload, a list of QuerySpecs answered in one CompiledDisclosure::Answer
// call: results in list order, the draw order it shares with Release (one
// level stream, vectors chunked like a level's group counts, with or without
// a pool), an edgeless graph released exactly, and σ and error falling
// toward finer levels.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "answer_fixture.hpp"
#include "core/metrics.hpp"
#include "release_oracle.hpp"

namespace gdp::core {
namespace {

using gdp::common::Rng;
using gdp::graph::BipartiteGraph;
using gdp::graph::Side;
using namespace answer_fixture;

TEST(AnswerTest, QueriesAnswerInListOrderWithNamesThatEncodeTheSide) {
  const BipartiteGraph g = SmallGraph();
  const auto compiled = CompileSmall(g);
  const std::vector<QuerySpec> queries{
      Histogram(Side::kLeft, 5), Of(QuerySpec::Kind::kAssociationCount),
      Histogram(Side::kRight, 5), Of(QuerySpec::Kind::kGroupCount)};
  Rng rng(5);
  const auto results = compiled->Answer(queries, 1, kBudget, rng);
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(results[0].query_name, "degree_histogram_left");
  EXPECT_EQ(results[1].query_name, "association_count");
  EXPECT_EQ(results[2].query_name, "degree_histogram_right");
  EXPECT_EQ(results[3].query_name, "group_counts");
  for (const QueryResult& r : results) {
    EXPECT_GT(r.sensitivity, 0.0) << r.query_name;
    EXPECT_GT(r.noise_stddev, 0.0) << r.query_name;
    EXPECT_EQ(r.truth.size(), r.noisy.size()) << r.query_name;
  }
}

TEST(AnswerTest, EdgelessGraphIsReleasedExactlyWithoutADraw) {
  const BipartiteGraph g(10, 10, {});
  const auto compiled = CompileSmall(g);
  const std::vector<QuerySpec> queries{Of(QuerySpec::Kind::kAssociationCount),
                                       Of(QuerySpec::Kind::kGroupCount)};
  for (int level = 0; level < compiled->hierarchy().num_levels(); ++level) {
    Rng rng(9);
    const Rng before = rng;
    for (const QueryResult& r :
         compiled->Answer(queries, level, kBudget, rng)) {
      EXPECT_EQ(r.noisy, r.truth) << r.query_name;
      EXPECT_EQ(r.sensitivity, 0.0) << r.query_name;
      EXPECT_EQ(r.noise_stddev, 0.0) << r.query_name;
    }
    Rng expected = before;
    EXPECT_EQ(rng(), expected()) << "level " << level;
  }
}

TEST(AnswerTest, SigmaFallsTowardFinerLevels) {
  const BipartiteGraph g = RandomGraph();
  const auto compiled = CompileSmall(g, 4);
  const std::vector<QuerySpec> assoc(1);
  double previous_sigma = 0.0;
  for (int level = 0; level < compiled->hierarchy().num_levels(); ++level) {
    Rng rng(10);
    const double sigma =
        compiled->Answer(assoc, level, kBudget, rng)[0].noise_stddev;
    EXPECT_GE(sigma, previous_sigma) << "level " << level;
    previous_sigma = sigma;
  }
  // And the error follows it: summed over seeds, singletons beat the top.
  double err_fine = 0.0;
  double err_coarse = 0.0;
  const int top = compiled->hierarchy().depth();
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Rng r1(seed);
    Rng r2(seed + 1000);
    const QueryResult fine = compiled->Answer(assoc, 0, kBudget, r1)[0];
    const QueryResult coarse = compiled->Answer(assoc, top, kBudget, r2)[0];
    err_fine += MeanRelativeErrorRate(fine.noisy, fine.truth);
    err_coarse += MeanRelativeErrorRate(coarse.noisy, coarse.truth);
  }
  EXPECT_LT(err_fine, err_coarse);
}

// One draw order: {association_count, group_counts} at level ℓ from the
// level-ℓ stream is the level-ℓ total and group counts of a Release, for
// every noise kind, also when the level's groups split into several chunks
// and when a pool draws them; and both are the hand-written oracle's draw.
TEST(AnswerTest, AssocAndGroupEqualTheReleaseDrawOfTheLevelStream) {
  const BipartiteGraph g = RandomGraph();
  const std::vector<QuerySpec> queries{Of(QuerySpec::Kind::kAssociationCount),
                                       Of(QuerySpec::Kind::kGroupCount)};
  constexpr std::size_t kGrain = 16;
  for (const int threads : {1, 8}) {
    const auto compiled = CompileSmall(g, 4, threads, kGrain);
    ASSERT_GT(compiled->plan().GroupDegreeSums(0).size(), 4 * kGrain);
    for (const NoiseKind kind :
         {NoiseKind::kGaussian, NoiseKind::kAnalyticGaussian,
          NoiseKind::kLaplace, NoiseKind::kDiscreteGaussian,
          NoiseKind::kGeometric}) {
      BudgetSpec budget = kBudget;
      budget.noise = kind;
      Rng release_rng(2024);
      const MultiLevelRelease release = compiled->Release(budget, release_rng);
      OracleSpec draw;
      draw.noise = kind;
      draw.epsilon = budget.phase2_epsilon();
      draw.delta = budget.delta;
      draw.grain = kGrain;
      Rng oracle_rng(2024);
      const MultiLevelRelease oracle =
          OracleRelease(compiled->plan(), draw, oracle_rng);
      Rng fork_rng(2024);
      std::vector<Rng> streams = fork_rng.ForkStreams(
          static_cast<std::size_t>(compiled->hierarchy().num_levels()));
      for (int level = 0; level < compiled->hierarchy().num_levels();
           ++level) {
        const LevelRelease& expected = release.level(level);
        const auto got = compiled->Answer(
            queries, level, budget, streams[static_cast<std::size_t>(level)]);
        const std::string where = std::string(NoiseKindName(kind)) +
                                  ", level " + std::to_string(level) + ", " +
                                  std::to_string(threads) + " threads";
        EXPECT_EQ(got[0].noisy[0], expected.noisy_total) << where;
        EXPECT_EQ(got[0].noise_stddev, expected.noise_stddev) << where;
        EXPECT_EQ(got[0].sensitivity, expected.sensitivity) << where;
        EXPECT_EQ(got[1].noisy, expected.noisy_group_counts) << where;
        EXPECT_EQ(got[1].truth, expected.true_group_counts) << where;
        EXPECT_EQ(got[1].noise_stddev, expected.group_noise_stddev) << where;
        EXPECT_EQ(got[0].noisy[0], oracle.level(level).noisy_total) << where;
        EXPECT_EQ(got[1].noisy, oracle.level(level).noisy_group_counts)
            << where;
      }
    }
  }
}

}  // namespace
}  // namespace gdp::core
