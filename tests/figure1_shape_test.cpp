// Shape test for the paper's Figure 1 at reduced scale: the qualitative
// relationships the figure shows must hold in our reproduction.
//
//   (1) at fixed εg, RER grows with the protected group level;
//   (2) at fixed level, RER grows as εg shrinks;
//   (3) at εg ≈ 1, fine levels have small RER (< a few %) while the
//       coarsest shown level is an order of magnitude worse;
//   (4) at εg = 0.1, fine levels are still usable while coarse ones blow up.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "hier/specialization.hpp"
#include "release_oracle.hpp"

namespace gdp {
namespace {

using gdp::common::Rng;
using gdp::graph::BipartiteGraph;

// 1/200-scale DBLP (fast enough for a unit test).
BipartiteGraph Dblp200th() {
  Rng rng(2026);
  const auto params = gdp::graph::DblpScaledParams(1.0 / 200.0);
  return GenerateDblpLike(params, rng);
}

// Mean RER of the count release at one level over `trials` noise draws.
double MeanRer(const BipartiteGraph& g, const hier::GroupHierarchy& h, int level,
               double eps, int trials, std::uint64_t seed) {
  core::ExecSpec exec;
  exec.include_group_counts = false;
  const auto artifact = core::ArtifactFor(g, h, exec);
  Rng rng(seed);
  double total = 0.0;
  for (int t = 0; t < trials; ++t) {
    total += artifact->Release(core::Phase2Budget(eps), rng)
                 .level(level)
                 .TotalRer();
  }
  return total / trials;
}

class Figure1ShapeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    graph_ = new BipartiteGraph(Dblp200th());
    hier::SpecializationConfig cfg;
    cfg.depth = 9;
    cfg.arity = 4;
    cfg.epsilon_per_level = 0.0125;
    const hier::Specializer spec(cfg);
    Rng rng(7);
    hierarchy_ = new hier::GroupHierarchy(spec.BuildHierarchy(*graph_, rng).hierarchy);
  }
  static void TearDownTestSuite() {
    delete hierarchy_;
    hierarchy_ = nullptr;
    delete graph_;
    graph_ = nullptr;
  }
  static const BipartiteGraph& graph() { return *graph_; }
  static const hier::GroupHierarchy& hierarchy() { return *hierarchy_; }

 private:
  static BipartiteGraph* graph_;
  static hier::GroupHierarchy* hierarchy_;
};

BipartiteGraph* Figure1ShapeTest::graph_ = nullptr;
hier::GroupHierarchy* Figure1ShapeTest::hierarchy_ = nullptr;

TEST_F(Figure1ShapeTest, RerOrderedByLevelAtHighEpsilon) {
  constexpr int kTrials = 30;
  double prev = -1.0;
  for (const int level : {1, 4, 5, 6, 7}) {
    const double rer =
        MeanRer(graph(), hierarchy(), level, 0.999, kTrials, 50 + level);
    EXPECT_GT(rer, prev) << "level " << level;
    prev = rer;
  }
}

TEST_F(Figure1ShapeTest, RerGrowsAsEpsilonShrinks) {
  constexpr int kTrials = 30;
  const int level = 6;
  const double rer_loose = MeanRer(graph(), hierarchy(), level, 0.999, kTrials, 1);
  const double rer_mid = MeanRer(graph(), hierarchy(), level, 0.5, kTrials, 2);
  const double rer_strict = MeanRer(graph(), hierarchy(), level, 0.1, kTrials, 3);
  EXPECT_LT(rer_loose, rer_mid);
  EXPECT_LT(rer_mid, rer_strict);
  // 10x budget cut => ~10x error (Gaussian sigma scales as 1/eps).
  EXPECT_NEAR(rer_strict / rer_loose, 10.0, 4.0);
}

TEST_F(Figure1ShapeTest, FineLevelsAccurateCoarseLevelsPerturbed) {
  constexpr int kTrials = 30;
  const double rer_l1 = MeanRer(graph(), hierarchy(), 1, 0.999, kTrials, 11);
  const double rer_l7 = MeanRer(graph(), hierarchy(), 7, 0.999, kTrials, 12);
  // Paper: I9,1 ~ 0.2%, I9,7 ~ 35%.  Accept the right orders of magnitude.
  EXPECT_LT(rer_l1, 0.05);
  EXPECT_GT(rer_l7, 0.05);
  EXPECT_GT(rer_l7 / rer_l1, 10.0);
}

TEST_F(Figure1ShapeTest, TightBudgetStillUsableAtFineLevels) {
  constexpr int kTrials = 30;
  // Paper: at eps=0.1, levels I9,5..I9,0 "still show acceptable utility".
  const double rer_l3 = MeanRer(graph(), hierarchy(), 3, 0.1, kTrials, 21);
  EXPECT_LT(rer_l3, 0.30);
  const double rer_l7 = MeanRer(graph(), hierarchy(), 7, 0.1, kTrials, 22);
  EXPECT_GT(rer_l7, 1.0);  // coarse level effectively destroyed
}

TEST_F(Figure1ShapeTest, SensitivityGeometryDrivesRer) {
  // RER at a level is proportional to its sensitivity: verify the ratio of
  // mean RERs between two levels matches their sensitivity ratio.
  constexpr int kTrials = 60;
  const auto sens = hierarchy().LevelSensitivities(graph());
  const double rer_l5 = MeanRer(graph(), hierarchy(), 5, 0.999, kTrials, 31);
  const double rer_l7 = MeanRer(graph(), hierarchy(), 7, 0.999, kTrials, 32);
  const double sens_ratio =
      static_cast<double>(sens[7]) / static_cast<double>(sens[5]);
  EXPECT_NEAR(rer_l7 / rer_l5, sens_ratio, sens_ratio * 0.5);
}

}  // namespace
}  // namespace gdp
