// Determinism guarantees of GroupDpEngine's one release path:
//  - the output depends only on (seed, grain): no pool and pools of 1, 2 and
//    8 threads release the same bits,
//  - the draw order is the documented one (per-level streams, then per-chunk
//    substreams), pinned by a checked-in golden release for every NoiseKind,
//  - the mechanism cache never perturbs results.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/group_dp_engine.hpp"
#include "core/release_io.hpp"
#include "core/release_plan.hpp"
#include "graph/generators.hpp"
#include "hier/specialization.hpp"

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

// The same seed released with no pool, then on pools of 1, 2 and 8 threads.
std::vector<MultiLevelRelease> ReleaseAtEveryThreadCount(
    const GroupDpEngine& engine, const ReleasePlan& plan, std::uint64_t seed) {
  std::vector<MultiLevelRelease> out;
  Rng inline_rng(seed);
  out.push_back(engine.Release(plan, inline_rng));
  for (const int threads : {1, 2, 8}) {
    gdp::common::ThreadPool pool(threads);
    Rng rng(seed);
    out.push_back(engine.Release(plan, rng, &pool));
  }
  return out;
}

void ExpectInvariantAcrossThreadCounts(const std::vector<MultiLevelRelease>& r) {
  const char* const names[] = {"no pool", "1 thread", "2 threads", "8 threads"};
  for (std::size_t i = 1; i < r.size(); ++i) {
    ExpectBitIdentical(r[0], r[i], std::string(names[i]) + " vs no pool:");
  }
}

TEST(ParallelReleaseTest, OutputInvariantAcrossThreadCounts) {
  const BipartiteGraph g = TestGraph();
  const ReleasePlan plan = ReleasePlan::Build(g, TestHierarchy(g, 5));
  const GroupDpEngine engine{ReleaseConfig{}};
  ExpectInvariantAcrossThreadCounts(ReleaseAtEveryThreadCount(engine, plan, 71));
}

TEST(ParallelReleaseTest, SeedDeterministicAndSeedSensitive) {
  const BipartiteGraph g = TestGraph();
  const ReleasePlan plan = ReleasePlan::Build(g, TestHierarchy(g));
  const GroupDpEngine engine{ReleaseConfig{}};
  gdp::common::ThreadPool pool(4);
  Rng a1(73);
  Rng a2(73);
  ExpectBitIdentical(engine.Release(plan, a1, &pool),
                     engine.Release(plan, a2, &pool));
  Rng b(79);
  const MultiLevelRelease other = engine.Release(plan, b, &pool);
  Rng a3(73);
  const MultiLevelRelease base = engine.Release(plan, a3, &pool);
  bool any_differs = false;
  for (int lvl = 0; lvl < base.num_levels(); ++lvl) {
    any_differs |= base.level(lvl).noisy_total != other.level(lvl).noisy_total;
  }
  EXPECT_TRUE(any_differs);
}

TEST(ParallelReleaseTest, SharedPlanAndPoolReuse) {
  const BipartiteGraph g = TestGraph();
  const GroupHierarchy h = TestHierarchy(g);
  const GroupDpEngine engine{ReleaseConfig{}};
  gdp::common::ThreadPool pool(3);
  const ReleasePlan plan = ReleasePlan::Build(g, h);
  Rng r1(83);
  Rng r2(83);
  // Same pool twice, same seed: identical output; and identical to a plan
  // whose node scan was sharded across the pool.
  ExpectBitIdentical(engine.Release(plan, r1, &pool),
                     engine.Release(plan, r2, &pool));
  Rng r3(83);
  Rng r4(83);
  ExpectBitIdentical(engine.Release(plan, r3, &pool),
                     engine.Release(ReleasePlan::Build(g, h, &pool), r4, &pool));
}

TEST(ParallelReleaseTest, WellFormedRelease) {
  const BipartiteGraph g = TestGraph();
  const GroupHierarchy h = TestHierarchy(g);
  const GroupDpEngine engine{ReleaseConfig{}};
  gdp::common::ThreadPool pool(0);
  Rng rng(89);
  const MultiLevelRelease r = engine.Release(ReleasePlan::Build(g, h), rng, &pool);
  ASSERT_EQ(r.num_levels(), h.num_levels());
  for (int lvl = 0; lvl < r.num_levels(); ++lvl) {
    EXPECT_EQ(r.level(lvl).level, lvl);
    EXPECT_GT(r.level(lvl).noise_stddev, 0.0);
    EXPECT_EQ(r.level(lvl).true_group_counts.size(),
              h.level(lvl).num_groups());
  }
}

// ---- Within-level chunked vector noise ----
//
// With noise_chunk_grain = 16 the 128-group singleton level splits into 8
// chunks, so these tests exercise the real chunked path on a small graph.

TEST(WithinLevelParallelTest, ChunkedNoiseBitIdenticalAcross1_2_8Threads) {
  const BipartiteGraph g = TestGraph();
  const ReleasePlan plan = ReleasePlan::Build(g, TestHierarchy(g, 5));
  ReleaseConfig cfg;
  cfg.noise_chunk_grain = 16;
  const GroupDpEngine engine(cfg);
  ExpectInvariantAcrossThreadCounts(
      ReleaseAtEveryThreadCount(engine, plan, 101));
}

TEST(WithinLevelParallelTest, GrainIsPartOfTheOutputContract) {
  // One RNG substream per chunk: a different grain re-splits the stream, so
  // the released group counts must change.  (Thread count never does —
  // pinned above.)
  const BipartiteGraph g = TestGraph();
  const ReleasePlan plan = ReleasePlan::Build(g, TestHierarchy(g));
  ReleaseConfig coarse_cfg;
  coarse_cfg.noise_chunk_grain = 32;
  ReleaseConfig fine_cfg;
  fine_cfg.noise_chunk_grain = 16;
  const GroupDpEngine coarse(coarse_cfg);
  const GroupDpEngine fine(fine_cfg);
  gdp::common::ThreadPool pool(4);
  Rng r1(103);
  Rng r2(103);
  const MultiLevelRelease a = coarse.Release(plan, r1, &pool);
  const MultiLevelRelease b = fine.Release(plan, r2, &pool);
  bool any_differs = false;
  for (int lvl = 0; lvl < a.num_levels(); ++lvl) {
    any_differs |=
        a.level(lvl).noisy_group_counts != b.level(lvl).noisy_group_counts;
  }
  EXPECT_TRUE(any_differs);
}

TEST(WithinLevelParallelTest, DrawOrderIsLevelStreamsThenChunkStreams) {
  // The documented draw order, reproduced by hand: level ℓ draws its total
  // and then its vector from the ℓ-th forked stream, the vector as one span
  // draw; a level wider than the grain draws chunk c as one span draw from
  // the c-th stream its level stream forks.
  const BipartiteGraph g = TestGraph();
  const ReleasePlan plan = ReleasePlan::Build(g, TestHierarchy(g));
  ReleaseConfig cfg;
  cfg.noise_chunk_grain = 16;
  const GroupDpEngine engine(cfg);
  Rng rng(107);
  const MultiLevelRelease release = engine.Release(plan, rng);

  Rng oracle(107);
  std::vector<Rng> level_streams =
      oracle.ForkStreams(static_cast<std::size_t>(plan.num_levels()));
  for (int lvl = 0; lvl < plan.num_levels(); ++lvl) {
    Rng& stream = level_streams[static_cast<std::size_t>(lvl)];
    const LevelRelease& got = release.level(lvl);
    const auto scalar =
        MakeMechanism(cfg.noise, cfg.epsilon_g, cfg.delta,
                      static_cast<double>(plan.CountSensitivity(lvl)));
    EXPECT_EQ(got.noisy_total, scalar->AddNoise(got.true_total, stream))
        << "level " << lvl;
    const auto vec = MakeMechanism(cfg.noise, cfg.epsilon_g, cfg.delta,
                                   plan.VectorSensitivity(lvl));
    const std::size_t grain = cfg.noise_chunk_grain;
    std::vector<double> expected = got.true_group_counts;
    const std::span<double> noisy(expected);
    if (noisy.size() > grain) {
      // One span draw per chunk, chunk c from its level stream's c-th fork.
      std::vector<Rng> chunk_streams =
          stream.ForkStreams((noisy.size() + grain - 1) / grain);
      for (std::size_t c = 0; c < chunk_streams.size(); ++c) {
        const std::size_t begin = c * grain;
        vec->AddNoise(
            noisy.subspan(begin, std::min(grain, noisy.size() - begin)),
            chunk_streams[c]);
      }
    } else {
      vec->AddNoise(noisy, stream);
    }
    EXPECT_EQ(got.noisy_group_counts, expected) << "level " << lvl;
  }
  EXPECT_GT(plan.GroupDegreeSums(0).size(), 2 * cfg.noise_chunk_grain)
      << "level 0 must really chunk";
}

// ---- Golden release fixture ----
//
// A small seeded graph and hierarchy, released at a fixed seed with grain 16
// (level 0's 128 groups split into 8 chunks) for every NoiseKind, plus one
// variant without group counts and with clamping.  The expected releases are
// checked in as gdp-release v1 files (17 significant digits, which
// round-trips every double), so any change to the draw order, a mechanism's
// sampler or its calibration shows up here.  To regenerate after a
// deliberate change, run this test with GDP_UPDATE_GOLDEN=1 and review the
// diff of tests/data/.

struct GoldenCase {
  std::string name;
  ReleaseConfig config;
};

std::vector<GoldenCase> GoldenCases() {
  std::vector<GoldenCase> cases;
  for (const NoiseKind kind :
       {NoiseKind::kGaussian, NoiseKind::kAnalyticGaussian, NoiseKind::kLaplace,
        NoiseKind::kDiscreteGaussian, NoiseKind::kGeometric}) {
    ReleaseConfig cfg;
    cfg.noise = kind;
    cfg.noise_chunk_grain = 16;
    cases.push_back({NoiseKindName(kind), cfg});
  }
  ReleaseConfig bare;
  bare.epsilon_g = 0.1;  // big noise, so the clamp really bites
  bare.include_group_counts = false;
  bare.clamp_nonnegative = true;
  bare.noise_chunk_grain = 16;
  cases.push_back({"gaussian_totals_clamped", bare});
  return cases;
}

std::string GoldenPath(const std::string& name) {
  return std::string(GDP_TEST_DATA_DIR) + "/golden_release_" + name + ".tsv";
}

TEST(GoldenReleaseTest, MatchesCheckedInFixtureForEveryNoiseKind) {
  const BipartiteGraph g = TestGraph();
  const ReleasePlan plan = ReleasePlan::Build(g, TestHierarchy(g));
  ASSERT_GT(plan.GroupDegreeSums(0).size(), 2u * 16u);
  const bool update = std::getenv("GDP_UPDATE_GOLDEN") != nullptr;
  gdp::common::ThreadPool pool(8);
  for (const GoldenCase& golden : GoldenCases()) {
    const GroupDpEngine engine(golden.config);
    Rng rng(2017);
    const MultiLevelRelease release = engine.Release(plan, rng);
    if (update) {
      WriteReleaseFile(release, GoldenPath(golden.name));
      continue;
    }
    const MultiLevelRelease expected = ReadReleaseFile(GoldenPath(golden.name));
    ExpectBitIdentical(expected, release, golden.name);
    Rng pooled_rng(2017);
    ExpectBitIdentical(expected, engine.Release(plan, pooled_rng, &pool),
                       golden.name + " (8-thread pool)");
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
  const GroupDpEngine engine{ReleaseConfig{}};
  const auto fresh = MakeMechanism(NoiseKind::kGaussian, 0.999, 1e-5, 500.0);
  EXPECT_EQ(engine.NoiseStddevFor(500.0), fresh->NoiseStddev());
  // Second lookup hits the cache and must agree exactly.
  EXPECT_EQ(engine.NoiseStddevFor(500.0), fresh->NoiseStddev());
}

TEST(MechanismCacheTest, WarmCacheDoesNotChangeResults) {
  const BipartiteGraph g = TestGraph();
  const ReleasePlan plan = ReleasePlan::Build(g, TestHierarchy(g));
  const GroupDpEngine warm{ReleaseConfig{}};
  {
    Rng warmup(61);
    (void)warm.Release(plan, warmup);  // populate the cache
  }
  const GroupDpEngine cold{ReleaseConfig{}};
  Rng warm_rng(67);
  Rng cold_rng(67);
  ExpectBitIdentical(warm.Release(plan, warm_rng),
                     cold.Release(plan, cold_rng));
}

}  // namespace
}  // namespace gdp::core
