// Integration tests: the full pipeline (generator -> specializer -> engine ->
// access policy -> metrics) wired together the way examples and benches use it.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "baseline/individual_dp.hpp"
#include "common/rng.hpp"
#include "core/access_policy.hpp"
#include "core/compiled_disclosure.hpp"
#include "core/pipeline.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"

namespace gdp {
namespace {

using gdp::common::Rng;
using gdp::graph::BipartiteGraph;

BipartiteGraph DblpMini() {
  Rng rng(101);
  gdp::graph::DblpLikeParams p;
  p.num_left = 2000;
  p.num_right = 3500;
  p.num_edges = 10000;
  return GenerateDblpLike(p, rng);
}

TEST(EndToEndTest, FullPipelineWithAccessTiers) {
  const BipartiteGraph g = DblpMini();
  core::SessionSpec cfg;
  cfg.hierarchy.depth = 7;
  cfg.hierarchy.arity = 4;
  cfg.budget.epsilon_g = 0.999;
  Rng rng(7);
  const core::DisclosureResult result = core::RunDisclosure(g, cfg, rng);

  const core::AccessPolicy policy = core::AccessPolicy::Uniform(6);
  double previous_sigma = std::numeric_limits<double>::infinity();
  for (int tier = 0; tier < policy.num_tiers(); ++tier) {
    const core::LevelRelease& view = policy.ViewFor(result.release, tier);
    // Higher tiers see finer levels, hence no more noise than lower tiers.
    EXPECT_LE(view.noise_stddev, previous_sigma) << "tier " << tier;
    previous_sigma = view.noise_stddev;
  }
}

TEST(EndToEndTest, StrippedReleaseKeepsOnlyNoisyData) {
  const BipartiteGraph g = DblpMini();
  core::SessionSpec cfg;
  cfg.hierarchy.depth = 5;
  Rng rng(9);
  const core::DisclosureResult result = core::RunDisclosure(g, cfg, rng);
  const core::MultiLevelRelease pub = result.release.StripTruth();
  for (const auto& lvl : pub.levels()) {
    EXPECT_EQ(lvl.true_total, 0.0);
    for (const double t : lvl.true_group_counts) {
      EXPECT_EQ(t, 0.0);
    }
  }
  // Still useful: noisy totals present.
  EXPECT_NE(pub.level(1).noisy_total, 0.0);
}

TEST(EndToEndTest, GraphSurvivesIoThenDisclosure) {
  const BipartiteGraph g = DblpMini();
  std::stringstream ss;
  gdp::graph::WriteEdgeList(g, ss);
  const BipartiteGraph loaded = gdp::graph::ReadEdgeList(ss);

  core::SessionSpec cfg;
  cfg.hierarchy.depth = 5;
  Rng r1(11);
  Rng r2(11);
  const auto a = core::RunDisclosure(g, cfg, r1);
  const auto b = core::RunDisclosure(loaded, cfg, r2);
  for (int lvl = 0; lvl <= 5; ++lvl) {
    EXPECT_DOUBLE_EQ(a.release.level(lvl).noisy_total,
                     b.release.level(lvl).noisy_total);
  }
}

TEST(EndToEndTest, AnswerOverHierarchyLevels) {
  const BipartiteGraph g = DblpMini();
  core::SessionSpec cfg;
  cfg.hierarchy.depth = 5;
  Rng rng(13);
  const auto compiled = core::CompiledDisclosure::Compile(g, cfg, rng);

  const std::vector<core::QuerySpec> assoc(1);  // association count
  const core::BudgetSpec all_phase2{0.999, 1e-5, 0.0,
                                    core::NoiseKind::kGaussian};
  Rng qrng(15);
  double prev_rer_bound = 0.0;
  for (int lvl = 0; lvl <= 5; ++lvl) {
    const auto res = compiled->Answer(assoc, lvl, all_phase2, qrng);
    // Noise scale (not the draw) must be monotone in level.
    EXPECT_GE(res[0].noise_stddev, prev_rer_bound);
    prev_rer_bound = res[0].noise_stddev;
  }
}

TEST(EndToEndTest, GroupDpProtectsWhatEdgeDpExposes) {
  // The paper's core claim as one assertion chain: at equal epsilon, the
  // edge-DP release leaves a mid-level group distinguishable while the
  // group-DP release at that level does not.
  const BipartiteGraph g = DblpMini();
  core::SessionSpec cfg;
  cfg.hierarchy.depth = 6;
  cfg.exec.include_group_counts = false;
  Rng rng(17);
  const auto result = core::RunDisclosure(g, cfg, rng);

  const int lvl = 4;
  const double group_weight =
      static_cast<double>(result.hierarchy.level(lvl).MaxGroupDegreeSum(g));
  Rng erng(19);
  const auto edge_release = baseline::ReleaseCountEdgeDp(
      g, core::NoiseKind::kLaplace, 0.999, 1e-5, erng);

  const double risk_edge =
      baseline::GroupDistinguishability(group_weight, edge_release.noise_stddev);
  const double risk_group = baseline::GroupDistinguishability(
      group_weight, result.release.level(lvl).noise_stddev);
  EXPECT_GT(risk_edge, 0.99);
  EXPECT_LT(risk_group, 0.5);
}

TEST(EndToEndTest, LedgerNeverExceedsConfiguredBudget) {
  const BipartiteGraph g = DblpMini();
  for (const double eps : {0.1, 0.5, 0.999}) {
    core::SessionSpec cfg;
    cfg.hierarchy.depth = 5;
    cfg.budget.epsilon_g = eps;
    Rng rng(23);
    const auto result = core::RunDisclosure(g, cfg, rng);
    EXPECT_LE(result.ledger.epsilon_spent(), eps + 1e-9);
  }
}

}  // namespace
}  // namespace gdp
