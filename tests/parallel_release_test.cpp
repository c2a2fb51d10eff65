// Determinism guarantees of the one release path, CompiledDisclosure::Release:
//  - the output depends only on (seed, grain): an artifact on 1 (no pool), 2
//    and 8 threads releases the same bits,
//  - the draw order is the documented one (per-level streams, then per-chunk
//    substreams): every NoiseKind's release equals the hand-written oracle
//    of release_oracle.hpp, and a checked-in golden release pins the bits,
//  - the mechanism cache never perturbs results.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/compiled_disclosure.hpp"
#include "core/group_dp_engine.hpp"
#include "core/release_io.hpp"
#include "core/release_plan.hpp"
#include "core/session.hpp"
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
  return gdp::graph::GenerateUniformRandom(64, 64, 1000, rng);
}

GroupHierarchy TestHierarchy(const BipartiteGraph& g, int depth = 4) {
  gdp::hier::SpecializationConfig cfg;
  cfg.depth = depth;
  const gdp::hier::Specializer spec(cfg);
  Rng rng(5);
  return spec.BuildHierarchy(g, rng).hierarchy;
}

// Exact (bitwise) equality of two releases, every field; a mismatch names
// the context, the level and the field.
void ExpectBitIdentical(const MultiLevelRelease& a, const MultiLevelRelease& b,
                        const std::string& context = "") {
  ASSERT_EQ(a.num_levels(), b.num_levels()) << context;
  for (int lvl = 0; lvl < a.num_levels(); ++lvl) {
    const LevelRelease& x = a.level(lvl);
    const LevelRelease& y = b.level(lvl);
    const std::string where = context + " level " + std::to_string(lvl);
    EXPECT_EQ(x.level, y.level) << where << " field level";
    EXPECT_EQ(x.sensitivity, y.sensitivity) << where << " field sensitivity";
    EXPECT_EQ(x.noise_stddev, y.noise_stddev) << where << " field noise_stddev";
    EXPECT_EQ(x.group_noise_stddev, y.group_noise_stddev)
        << where << " field group_noise_stddev";
    EXPECT_EQ(x.true_total, y.true_total) << where << " field true_total";
    EXPECT_EQ(x.noisy_total, y.noisy_total) << where << " field noisy_total";
    EXPECT_EQ(x.true_group_counts, y.true_group_counts)
        << where << " field true_group_counts";
    EXPECT_EQ(x.noisy_group_counts, y.noisy_group_counts)
        << where << " field noisy_group_counts";
  }
}

// The same seed released by artifacts on 1 (no pool), 2 and 8 threads.
std::vector<MultiLevelRelease> ReleaseAtEveryThreadCount(
    const BipartiteGraph& g, const GroupHierarchy& h, ExecSpec exec,
    std::uint64_t seed) {
  std::vector<MultiLevelRelease> out;
  for (const int threads : {1, 2, 8}) {
    exec.num_threads = threads;
    Rng rng(seed);
    out.push_back(ArtifactFor(g, h, exec)->Release(Phase2Budget(0.999), rng));
  }
  return out;
}

void ExpectInvariantAcrossThreadCounts(const std::vector<MultiLevelRelease>& r) {
  const char* const names[] = {"1 thread", "2 threads", "8 threads"};
  for (std::size_t i = 1; i < r.size(); ++i) {
    ExpectBitIdentical(r[0], r[i], std::string(names[i]) + " vs 1 thread:");
  }
}

TEST(ParallelReleaseTest, OutputInvariantAcrossThreadCounts) {
  const BipartiteGraph g = TestGraph();
  ExpectInvariantAcrossThreadCounts(
      ReleaseAtEveryThreadCount(g, TestHierarchy(g, 5), ExecSpec{}, 71));
}

TEST(ParallelReleaseTest, SeedDeterministicAndSeedSensitive) {
  const BipartiteGraph g = TestGraph();
  ExecSpec exec;
  exec.num_threads = 4;
  const auto artifact = ArtifactFor(g, TestHierarchy(g), exec);
  const BudgetSpec budget = Phase2Budget(0.999);
  Rng a1(73);
  Rng a2(73);
  ExpectBitIdentical(artifact->Release(budget, a1),
                     artifact->Release(budget, a2));
  Rng b(79);
  const MultiLevelRelease other = artifact->Release(budget, b);
  Rng a3(73);
  const MultiLevelRelease base = artifact->Release(budget, a3);
  bool any_differs = false;
  for (int lvl = 0; lvl < base.num_levels(); ++lvl) {
    any_differs |= base.level(lvl).noisy_total != other.level(lvl).noisy_total;
  }
  EXPECT_TRUE(any_differs);
}

TEST(ParallelReleaseTest, SharedPlanAndPoolReuse) {
  const BipartiteGraph g = TestGraph();
  const GroupHierarchy h = TestHierarchy(g);
  ExecSpec exec;
  exec.num_threads = 3;
  const auto artifact = ArtifactFor(g, h, exec);
  const BudgetSpec budget = Phase2Budget(0.999);
  Rng r1(83);
  Rng r2(83);
  // Same artifact (plan and pool) twice, same seed: identical output; and
  // identical to a release from a second artifact with its own plan.
  ExpectBitIdentical(artifact->Release(budget, r1),
                     artifact->Release(budget, r2));
  Rng r3(83);
  Rng r4(83);
  ExpectBitIdentical(artifact->Release(budget, r3),
                     ArtifactFor(g, h, exec)->Release(budget, r4));
}

TEST(ParallelReleaseTest, WellFormedRelease) {
  const BipartiteGraph g = TestGraph();
  const GroupHierarchy h = TestHierarchy(g);
  ExecSpec exec;
  exec.num_threads = 0;  // the hardware concurrency
  Rng rng(89);
  const MultiLevelRelease r =
      ArtifactFor(g, h, exec)->Release(Phase2Budget(0.999), rng);
  ASSERT_EQ(r.num_levels(), h.num_levels());
  for (int lvl = 0; lvl < r.num_levels(); ++lvl) {
    EXPECT_EQ(r.level(lvl).level, lvl);
    EXPECT_GT(r.level(lvl).noise_stddev, 0.0);
    EXPECT_EQ(r.level(lvl).true_group_counts.size(),
              h.level(lvl).num_groups());
  }
}

TEST(ParallelReleaseTest, CompiledReleasesIdenticalAcrossThreadCounts) {
  // End to end through CompiledDisclosure: the full artifact (fingerprinted
  // plan + hierarchy) and a release drawn from it must not depend on the
  // thread count, 1 (no pool) included.  60k singleton groups: the level-0
  // vector noise cuts several chunks at the default grain.
  Rng graph_rng(11);
  const BipartiteGraph g =
      gdp::graph::GenerateUniformRandom(30'000, 30'000, 120'000, graph_rng);
  SessionSpec spec;
  spec.hierarchy.depth = 6;
  spec.hierarchy.arity = 4;
  auto release_with_threads = [&](int threads) {
    SessionSpec s = spec;
    s.exec.num_threads = threads;
    Rng rng(42);
    auto compiled = CompiledDisclosure::Compile(g, s, rng);
    auto session = DisclosureSession::Attach(compiled);
    Rng release_rng(9);
    return session.Release(release_rng);
  };
  const auto one = release_with_threads(1);
  for (const int threads : {2, 8}) {
    const auto other = release_with_threads(threads);
    ASSERT_EQ(one.num_levels(), other.num_levels());
    for (int l = 0; l < one.num_levels(); ++l) {
      EXPECT_EQ(one.level(l).noisy_total, other.level(l).noisy_total)
          << threads << " threads, level " << l;
      EXPECT_EQ(one.level(l).true_total, other.level(l).true_total)
          << threads << " threads, level " << l;
      EXPECT_EQ(one.level(l).noisy_group_counts,
                other.level(l).noisy_group_counts)
          << threads << " threads, level " << l;
    }
  }
}

// ---- Within-level chunked vector noise ----
//
// With noise_chunk_grain = 16 the 128-group singleton level splits into 8
// chunks, so these tests exercise the real chunked path on a small graph.

TEST(WithinLevelParallelTest, ChunkedNoiseBitIdenticalAcross1_2_8Threads) {
  const BipartiteGraph g = TestGraph();
  ExecSpec exec;
  exec.noise_chunk_grain = 16;
  ExpectInvariantAcrossThreadCounts(
      ReleaseAtEveryThreadCount(g, TestHierarchy(g, 5), exec, 101));
}

TEST(WithinLevelParallelTest, GrainIsPartOfTheOutputContract) {
  // One RNG substream per chunk: a different grain re-splits the stream, so
  // the released group counts must change.  (Thread count never does —
  // pinned above.)
  const BipartiteGraph g = TestGraph();
  const GroupHierarchy h = TestHierarchy(g);
  ExecSpec coarse;
  coarse.noise_chunk_grain = 32;
  coarse.num_threads = 4;
  ExecSpec fine = coarse;
  fine.noise_chunk_grain = 16;
  Rng r1(103);
  Rng r2(103);
  const MultiLevelRelease a =
      ArtifactFor(g, h, coarse)->Release(Phase2Budget(0.999), r1);
  const MultiLevelRelease b =
      ArtifactFor(g, h, fine)->Release(Phase2Budget(0.999), r2);
  bool any_differs = false;
  for (int lvl = 0; lvl < a.num_levels(); ++lvl) {
    any_differs |=
        a.level(lvl).noisy_group_counts != b.level(lvl).noisy_group_counts;
  }
  EXPECT_TRUE(any_differs);
}

TEST(WithinLevelParallelTest, DrawOrderIsLevelStreamsThenChunkStreams) {
  // Every kind's release, with and without group counts, on 1 and 8
  // threads, equals the hand-written oracle: level ℓ draws its total and
  // then its vector from the ℓ-th forked stream; a level wider than the
  // grain draws chunk c from the c-th stream its level stream forks.
  const BipartiteGraph g = TestGraph();
  const GroupHierarchy h = TestHierarchy(g);
  const ReleasePlan plan = ReleasePlan::Build(g, h);
  ASSERT_GT(plan.GroupDegreeSums(0).size(), 2u * 16u)
      << "level 0 must really chunk";
  for (const NoiseKind kind :
       {NoiseKind::kGaussian, NoiseKind::kAnalyticGaussian, NoiseKind::kLaplace,
        NoiseKind::kDiscreteGaussian, NoiseKind::kGeometric}) {
    for (const bool group_counts : {true, false}) {
      for (const int threads : {1, 8}) {
        ExecSpec exec;
        exec.noise_chunk_grain = 16;
        exec.include_group_counts = group_counts;
        exec.num_threads = threads;
        Rng rng(107);
        const MultiLevelRelease got =
            ArtifactFor(g, h, exec)->Release(Phase2Budget(0.9, kind), rng);
        OracleSpec oracle;
        oracle.noise = kind;
        oracle.epsilon = 0.9;
        oracle.include_group_counts = group_counts;
        oracle.grain = 16;
        Rng oracle_rng(107);
        ExpectBitIdentical(
            OracleRelease(plan, oracle, oracle_rng), got,
            std::string(NoiseKindName(kind)) +
                (group_counts ? ", group counts, " : ", totals, ") +
                std::to_string(threads) + " threads:");
      }
    }
  }
}

// ---- Golden release fixture ----
//
// A small seeded graph and hierarchy, released at a fixed seed with grain 16
// (level 0's 128 groups split into 8 chunks) for every NoiseKind, plus one
// variant of totals only at ε 0.1.  The expected releases are checked in as
// gdp-release v1 files (17 significant digits, which round-trips every
// double), so any change to the draw order, a mechanism's sampler or its
// calibration shows up here.  To regenerate after a deliberate change, run
// this test with GDP_UPDATE_GOLDEN=1 and review the diff of tests/data/.

struct GoldenCase {
  std::string name;
  BudgetSpec budget;
  ExecSpec exec;
};

std::vector<GoldenCase> GoldenCases() {
  ExecSpec exec;
  exec.noise_chunk_grain = 16;
  std::vector<GoldenCase> cases;
  for (const NoiseKind kind :
       {NoiseKind::kGaussian, NoiseKind::kAnalyticGaussian, NoiseKind::kLaplace,
        NoiseKind::kDiscreteGaussian, NoiseKind::kGeometric}) {
    cases.push_back({NoiseKindName(kind), Phase2Budget(0.999, kind), exec});
  }
  ExecSpec totals = exec;
  totals.include_group_counts = false;
  cases.push_back({"gaussian_totals", Phase2Budget(0.1), totals});
  return cases;
}

std::string GoldenPath(const std::string& name) {
  return std::string(GDP_TEST_DATA_DIR) + "/golden_release_" + name + ".tsv";
}

TEST(GoldenReleaseTest, MatchesCheckedInFixtureForEveryNoiseKind) {
  const BipartiteGraph g = TestGraph();
  const GroupHierarchy h = TestHierarchy(g);
  ASSERT_GT(h.level(0).num_groups(), 2u * 16u);
  const bool update = std::getenv("GDP_UPDATE_GOLDEN") != nullptr;
  for (const GoldenCase& golden : GoldenCases()) {
    Rng rng(2017);
    const MultiLevelRelease release =
        ArtifactFor(g, h, golden.exec)->Release(golden.budget, rng);
    if (update) {
      WriteReleaseFile(release, GoldenPath(golden.name));
      continue;
    }
    const MultiLevelRelease expected = ReadReleaseFile(GoldenPath(golden.name));
    ExpectBitIdentical(expected, release, golden.name);
    ExecSpec pooled = golden.exec;
    pooled.num_threads = 8;
    Rng pooled_rng(2017);
    ExpectBitIdentical(expected,
                       ArtifactFor(g, h, pooled)->Release(golden.budget,
                                                          pooled_rng),
                       golden.name + " (8 threads)");
  }
  if (update) {
    GTEST_SKIP() << "golden releases rewritten under " << GDP_TEST_DATA_DIR;
  }
}

TEST(MechanismCacheTest, MemoizesByCalibrationKey) {
  MechanismCache cache;
  const auto& a = cache.Get(NoiseKind::kGaussian, 0.9, 1e-5, 10.0);
  const auto& b = cache.Get(NoiseKind::kGaussian, 0.9, 1e-5, 10.0);
  EXPECT_EQ(&a, &b);  // same instance, not a re-derivation
  EXPECT_EQ(cache.size(), 1u);
  (void)cache.Get(NoiseKind::kGaussian, 0.9, 1e-5, 20.0);
  (void)cache.Get(NoiseKind::kLaplace, 0.9, 1e-5, 10.0);
  EXPECT_EQ(cache.size(), 3u);
}

TEST(MechanismCacheTest, CachedStddevMatchesFreshMechanism) {
  MechanismCache cache;
  const auto fresh = MakeMechanism(NoiseKind::kGaussian, 0.999, 1e-5, 500.0);
  EXPECT_EQ(cache.Get(NoiseKind::kGaussian, 0.999, 1e-5, 500.0).NoiseStddev(),
            fresh->NoiseStddev());
  // Second lookup hits the cache and must agree exactly.
  EXPECT_EQ(cache.Get(NoiseKind::kGaussian, 0.999, 1e-5, 500.0).NoiseStddev(),
            fresh->NoiseStddev());
}

TEST(MechanismCacheTest, WarmCacheDoesNotChangeResults) {
  const BipartiteGraph g = TestGraph();
  const GroupHierarchy h = TestHierarchy(g);
  const auto warm = ArtifactFor(g, h);
  {
    Rng warmup(61);
    (void)warm->Release(Phase2Budget(0.999), warmup);  // populate the cache
  }
  Rng warm_rng(67);
  Rng cold_rng(67);
  ExpectBitIdentical(warm->Release(Phase2Budget(0.999), warm_rng),
                     ArtifactFor(g, h)->Release(Phase2Budget(0.999), cold_rng));
}

}  // namespace
}  // namespace gdp::core
