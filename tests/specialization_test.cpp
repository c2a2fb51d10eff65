#include "hier/specialization.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <string>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "graph/generators.hpp"
#include "hierarchy_fixture.hpp"

namespace gdp::hier {
namespace {

using gdp::common::Rng;
using gdp::graph::BipartiteGraph;
using gdp::graph::EdgeCount;

std::vector<std::size_t> Candidates(std::size_t group_size,
                                    int max_candidates) {
  std::vector<std::size_t> cuts{99};  // stale contents must be cleared
  CutCandidates(group_size, max_candidates, cuts);
  return cuts;
}

// The utilities of a group whose nodes have `degrees`, read through the
// group's degree prefix array.
std::vector<double> Utilities(const std::vector<EdgeCount>& degrees,
                              const std::vector<std::size_t>& cuts,
                              SplitQuality quality) {
  std::vector<EdgeCount> prefix{100};  // a slice need not start at 0
  for (const EdgeCount d : degrees) {
    prefix.push_back(prefix.back() + d);
  }
  std::vector<double> utilities{-99.0};  // stale contents must be cleared
  CutUtilities(prefix, cuts, quality, utilities);
  return utilities;
}

TEST(CutCandidatesTest, SmallGroupEnumeratesAllPositions) {
  const auto cuts = Candidates(5, 63);
  EXPECT_EQ(cuts, (std::vector<std::size_t>{1, 2, 3, 4}));
}

TEST(CutCandidatesTest, TooSmallGroupsHaveNoCuts) {
  EXPECT_TRUE(Candidates(0, 63).empty());
  EXPECT_TRUE(Candidates(1, 63).empty());
}

TEST(CutCandidatesTest, LargeGroupIsSubsampled) {
  const auto cuts = Candidates(100000, 63);
  EXPECT_LE(cuts.size(), 63u);
  EXPECT_GE(cuts.size(), 32u);
  for (const auto c : cuts) {
    EXPECT_GE(c, 1u);
    EXPECT_LT(c, 100000u);
  }
  // Strictly increasing.
  for (std::size_t i = 1; i < cuts.size(); ++i) {
    EXPECT_LT(cuts[i - 1], cuts[i]);
  }
}

TEST(CutCandidatesTest, RejectsBadMaxCandidates) {
  EXPECT_THROW((void)Candidates(10, 0), std::invalid_argument);
}

TEST(CutUtilitiesTest, EdgeBalancePrefersBalancedCut) {
  const std::vector<EdgeCount> degrees{4, 1, 1, 1, 1};  // total 8
  const std::vector<std::size_t> cuts{1, 2, 3, 4};
  const auto u = Utilities(degrees, cuts, SplitQuality::kEdgeBalance);
  // Cut at 1: |4-4| = 0 (best).  Cut at 4: |7-1| = 6 (worst).
  EXPECT_DOUBLE_EQ(u[0], 0.0);
  EXPECT_DOUBLE_EQ(u[3], -6.0);
  EXPECT_GT(u[0], u[1]);
}

TEST(CutUtilitiesTest, NodeBalanceIgnoresDegrees) {
  const std::vector<EdgeCount> degrees{100, 0, 0, 0};
  const std::vector<std::size_t> cuts{1, 2, 3};
  const auto u = Utilities(degrees, cuts, SplitQuality::kNodeBalance);
  EXPECT_DOUBLE_EQ(u[1], 0.0);  // 2 vs 2
  EXPECT_DOUBLE_EQ(u[0], -2.0);
  EXPECT_DOUBLE_EQ(u[2], -2.0);
}

TEST(CutUtilitiesTest, RandomQualityIsFlat) {
  const std::vector<EdgeCount> degrees{5, 1, 9};
  const std::vector<std::size_t> cuts{1, 2};
  const auto u = Utilities(degrees, cuts, SplitQuality::kRandom);
  EXPECT_EQ(u, (std::vector<double>{0.0, 0.0}));
}

TEST(CutUtilitiesTest, RejectsOutOfRangeCut) {
  const std::vector<EdgeCount> degrees{1, 1};
  const std::vector<std::size_t> bad_zero{0};
  const std::vector<std::size_t> bad_end{2};
  EXPECT_THROW((void)Utilities(degrees, bad_zero, SplitQuality::kEdgeBalance),
               std::invalid_argument);
  EXPECT_THROW((void)Utilities(degrees, bad_end, SplitQuality::kEdgeBalance),
               std::invalid_argument);
}

TEST(SpecializerConfigTest, Validation) {
  SpecializationConfig cfg;
  cfg.depth = 0;
  EXPECT_THROW(Specializer{cfg}, std::invalid_argument);
  cfg = SpecializationConfig{};
  cfg.arity = 3;  // not a power of two
  EXPECT_THROW(Specializer{cfg}, std::invalid_argument);
  cfg = SpecializationConfig{};
  cfg.arity = 1;
  EXPECT_THROW(Specializer{cfg}, std::invalid_argument);
  cfg = SpecializationConfig{};
  cfg.epsilon_per_level = 0.0;
  EXPECT_THROW(Specializer{cfg}, std::invalid_argument);
  cfg = SpecializationConfig{};
  cfg.utility_sensitivity = -1.0;
  EXPECT_THROW(Specializer{cfg}, std::invalid_argument);
  cfg = SpecializationConfig{};
  cfg.max_cut_candidates = 0;
  EXPECT_THROW(Specializer{cfg}, std::invalid_argument);
  // The depth bound: every level of the deepest hierarchy fits GDPSNAP01.
  cfg = SpecializationConfig{};
  cfg.depth = kMaxHierarchyDepth;
  EXPECT_EQ(kMaxHierarchyDepth, 255);
  EXPECT_NO_THROW(Specializer{cfg});
  cfg.depth = kMaxHierarchyDepth + 1;
  try {
    Specializer{cfg};
    ADD_FAILURE() << "depth 256 accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("depth"), std::string::npos) << what;
    EXPECT_NE(what.find("255"), std::string::npos) << what;
  }
}

TEST(SpecializerTest, BuildsValidatedHierarchyOfRequestedDepth) {
  Rng rng(3);
  const BipartiteGraph g = gdp::graph::GenerateUniformRandom(128, 128, 2000, rng);
  SpecializationConfig cfg;
  cfg.depth = 6;
  cfg.arity = 4;
  const Specializer spec(cfg);
  Rng build_rng(7);
  const auto result = spec.BuildHierarchy(g, build_rng);
  EXPECT_EQ(result.hierarchy.depth(), 6);
  // Validation happens inside GroupHierarchy's constructor (would throw).
}

TEST(SpecializerTest, GroupCountsGrowGeometricallyDownTheLevels) {
  Rng rng(5);
  const BipartiteGraph g = gdp::graph::GenerateUniformRandom(256, 256, 4000, rng);
  SpecializationConfig cfg;
  cfg.depth = 5;
  cfg.arity = 4;
  const Specializer spec(cfg);
  Rng build_rng(9);
  const auto result = spec.BuildHierarchy(g, build_rng);
  const auto counts = result.hierarchy.LevelGroupCounts();
  // Level 5 (top): 2 groups; level 4: 8; level 3: 32; level 2: up to 128
  // (groups that bottom out at one node cannot split further).
  EXPECT_EQ(counts[5], 2u);
  EXPECT_EQ(counts[4], 8u);
  EXPECT_EQ(counts[3], 32u);
  EXPECT_LE(counts[2], 128u);
  EXPECT_GE(counts[2], 120u);
  // Level 0: singletons.
  EXPECT_EQ(counts[0], 512u);
}

TEST(SpecializerTest, EpsilonSpentIsTransitionsTimesPerLevel) {
  Rng rng(5);
  const BipartiteGraph g = gdp::graph::GenerateUniformRandom(64, 64, 500, rng);
  SpecializationConfig cfg;
  cfg.depth = 4;
  cfg.epsilon_per_level = 0.03;
  const Specializer spec(cfg);
  Rng build_rng(9);
  const auto result = spec.BuildHierarchy(g, build_rng);
  EXPECT_NEAR(result.epsilon_spent, 3 * 0.03, 1e-12);
  EXPECT_GT(result.num_em_draws, 0u);
}

TEST(SpecializerTest, DeterministicUnderSeed) {
  Rng rng(5);
  const BipartiteGraph g = gdp::graph::GenerateUniformRandom(64, 64, 800, rng);
  SpecializationConfig cfg;
  cfg.depth = 4;
  const Specializer spec(cfg);
  Rng r1(123);
  Rng r2(123);
  const auto a = spec.BuildHierarchy(g, r1);
  const auto b = spec.BuildHierarchy(g, r2);
  for (int lvl = 0; lvl <= 4; ++lvl) {
    const auto& pa = a.hierarchy.level(lvl);
    const auto& pb = b.hierarchy.level(lvl);
    ASSERT_EQ(pa.num_groups(), pb.num_groups()) << "level " << lvl;
    for (gdp::graph::NodeIndex v = 0; v < g.num_left(); ++v) {
      ASSERT_EQ(pa.GroupOf(Side::kLeft, v), pb.GroupOf(Side::kLeft, v));
    }
  }
}

TEST(SpecializerTest, EdgeBalanceBeatsRandomOnSkewedGraph) {
  // On a heavy-tailed graph, edge-balanced splits should yield a smaller
  // max-group-degree-sum at the finest grouped level than random splits,
  // averaged over seeds.
  Rng grng(31);
  gdp::graph::DblpLikeParams p;
  p.num_left = 1500;
  p.num_right = 1500;
  p.num_edges = 9000;
  const BipartiteGraph g = GenerateDblpLike(p, grng);

  const auto avg_sensitivity = [&](SplitQuality q) {
    SpecializationConfig cfg;
    cfg.depth = 4;
    cfg.arity = 4;
    cfg.quality = q;
    cfg.epsilon_per_level = 2.0;  // strong EM so quality dominates noise
    const Specializer spec(cfg);
    double total = 0.0;
    for (std::uint64_t seed = 0; seed < 5; ++seed) {
      Rng r(seed + 100);
      const auto result = spec.BuildHierarchy(g, r);
      total += static_cast<double>(
          result.hierarchy.level(1).MaxGroupDegreeSum(g));
    }
    return total / 5.0;
  };

  EXPECT_LT(avg_sensitivity(SplitQuality::kEdgeBalance),
            avg_sensitivity(SplitQuality::kRandom));
}

TEST(SpecializerTest, HandlesGraphSmallerThanHierarchy) {
  // 3+3 nodes but depth 6: groups bottom out at singletons early and the
  // build must still produce a valid hierarchy.
  const BipartiteGraph g(3, 3, {{0, 0}, {1, 1}, {2, 2}});
  SpecializationConfig cfg;
  cfg.depth = 6;
  cfg.arity = 4;
  const Specializer spec(cfg);
  Rng rng(2);
  const auto result = spec.BuildHierarchy(g, rng);
  EXPECT_EQ(result.hierarchy.depth(), 6);
  EXPECT_EQ(result.hierarchy.level(0).num_groups(), 6u);
  // Finest grouped level: every group is a singleton already.
  EXPECT_EQ(result.hierarchy.level(1).MaxGroupSize(), 1u);
}

TEST(SpecializerTest, RejectsEmptySide) {
  const BipartiteGraph g(0, 3, {});
  const Specializer spec(SpecializationConfig{});
  Rng rng(1);
  EXPECT_THROW((void)spec.BuildHierarchy(g, rng), std::invalid_argument);
}

TEST(SpecializerTest, SidePurityPreservedAtEveryLevel) {
  Rng rng(5);
  const BipartiteGraph g = gdp::graph::GenerateUniformRandom(32, 48, 400, rng);
  SpecializationConfig cfg;
  cfg.depth = 4;
  const Specializer spec(cfg);
  Rng build_rng(11);
  const auto result = spec.BuildHierarchy(g, build_rng);
  for (int lvl = 0; lvl <= 4; ++lvl) {
    const Partition& part = result.hierarchy.level(lvl);
    // Partition's constructor enforces side purity; double-check counts: the
    // left labels must map only to left groups covering exactly 32 nodes.
    gdp::graph::NodeIndex left_total = 0;
    for (const auto& info : part.groups()) {
      if (info.side == Side::kLeft) {
        left_total += info.size;
      }
    }
    EXPECT_EQ(left_total, 32u) << "level " << lvl;
  }
}

// tests/data/golden_hierarchy.tsv: one line per hierarchy_fixture
// configuration (graph, config, draws, spend bits, next rng output, one CRC
// per level).  Every line is rebuilt without a pool and at pool sizes 1, 2
// and 8; all four must equal the file, bit for bit.
TEST(SpecializerTest, BuildsMatchTheGoldenHierarchies) {
  using hierarchy_fixture::GoldenConfigs;
  std::ifstream in(std::string(GDP_TEST_DATA_DIR) + "/golden_hierarchy.tsv");
  ASSERT_TRUE(in.good()) << "missing tests/data/golden_hierarchy.tsv";
  std::vector<std::string> golden;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line.front() != '#') {
      golden.push_back(line);
    }
  }
  ASSERT_EQ(golden.size(), GoldenConfigs().size());

  std::map<std::string, BipartiteGraph> graphs;
  std::vector<std::unique_ptr<gdp::common::ThreadPool>> pools;
  pools.push_back(nullptr);
  for (const int size : {1, 2, 8}) {
    pools.push_back(std::make_unique<gdp::common::ThreadPool>(size));
  }
  for (std::size_t i = 0; i < golden.size(); ++i) {
    const hierarchy_fixture::GoldenConfig& config = GoldenConfigs()[i];
    auto it = graphs.find(config.graph);
    if (it == graphs.end()) {
      it = graphs.emplace(config.graph,
                          hierarchy_fixture::GoldenGraph(config.graph))
               .first;
    }
    for (const auto& pool : pools) {
      EXPECT_EQ(hierarchy_fixture::GoldenLine(config, it->second, pool.get()),
                golden[i])
          << "line " << i + 1 << ", pool size "
          << (pool ? pool->size() : 0);
    }
  }
}

TEST(SplitQualityNameTest, Names) {
  EXPECT_STREQ(SplitQualityName(SplitQuality::kEdgeBalance), "edge_balance");
  EXPECT_STREQ(SplitQualityName(SplitQuality::kNodeBalance), "node_balance");
  EXPECT_STREQ(SplitQualityName(SplitQuality::kRandom), "random");
}

}  // namespace
}  // namespace gdp::hier
