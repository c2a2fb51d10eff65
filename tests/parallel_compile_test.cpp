// Bit-parity of the shard-parallel compile path: Phase-1 EM specialization
// and the release plan's parent-pointer rollup must produce results
// IDENTICAL to the no-pool call — the plain sequential loop — for every pool
// size.  Sharding here is an execution detail — the privacy proof, the
// fingerprint discipline, and the determinism contract (same seed => same
// release) all assume the artifact does not depend on how many workers
// built it.  Every sweep runs with no pool and with pools of 1, 2 and 8.
//
// The graph is sized past Partition::kDefaultShardGrain fine groups so the
// rollup actually cuts several shards (a smaller graph would be one shard at
// every pool size and the test would pin nothing).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/compiled_disclosure.hpp"
#include "core/release_plan.hpp"
#include "core/session.hpp"
#include "graph/generators.hpp"
#include "hier/partition.hpp"
#include "hier/specialization.hpp"

namespace gdp::hier {
namespace {

using gdp::common::Rng;
using gdp::common::ThreadPool;
using gdp::graph::BipartiteGraph;
using gdp::graph::Side;

// 60k level-0 singleton groups: comfortably past the 32768 default shard
// grain, so level 0 -> 1 rollups shard even on a 2-worker pool.
BipartiteGraph ShardScaleGraph() {
  Rng rng(11);
  return gdp::graph::GenerateUniformRandom(30'000, 30'000, 120'000, rng);
}

// Pool sizes every sweep runs; 0 stands for no pool at all.
constexpr int kPoolSizes[] = {0, 1, 2, 8};

std::unique_ptr<ThreadPool> MakePool(int workers) {
  return workers == 0 ? nullptr : std::make_unique<ThreadPool>(workers);
}

std::string PoolName(int workers) {
  return workers == 0 ? "no pool" : std::to_string(workers) + " workers";
}

SpecializationConfig TestConfig() {
  SpecializationConfig cfg;
  cfg.depth = 6;
  cfg.arity = 4;
  return cfg;
}

void ExpectHierarchiesIdentical(const GroupHierarchy& a,
                                const GroupHierarchy& b) {
  ASSERT_EQ(a.num_levels(), b.num_levels());
  for (int l = 0; l < a.num_levels(); ++l) {
    const Partition& x = a.level(l);
    const Partition& y = b.level(l);
    ASSERT_EQ(x.num_groups(), y.num_groups()) << "level " << l;
    for (const Side side : {Side::kLeft, Side::kRight}) {
      const auto lx = x.labels(side);
      const auto ly = y.labels(side);
      ASSERT_TRUE(std::equal(lx.begin(), lx.end(), ly.begin(), ly.end()))
          << "labels differ at level " << l;
    }
    const auto gx = x.groups();
    const auto gy = y.groups();
    for (std::size_t g = 0; g < gx.size(); ++g) {
      EXPECT_EQ(gx[g].side, gy[g].side) << "level " << l << " group " << g;
      EXPECT_EQ(gx[g].size, gy[g].size) << "level " << l << " group " << g;
      EXPECT_EQ(gx[g].parent, gy[g].parent)
          << "level " << l << " group " << g;
    }
  }
}

TEST(ParallelCompileTest, Phase1BitIdenticalAcrossPoolSizes) {
  const BipartiteGraph g = ShardScaleGraph();
  const Specializer spec(TestConfig());
  Rng seq_rng(77);
  const auto sequential = spec.BuildHierarchy(g, seq_rng);
  for (const int workers : kPoolSizes) {
    const auto pool = MakePool(workers);
    Rng rng(77);
    const auto parallel = spec.BuildHierarchy(g, rng, pool.get());
    EXPECT_EQ(parallel.num_em_draws, sequential.num_em_draws)
        << PoolName(workers);
    EXPECT_EQ(parallel.epsilon_spent, sequential.epsilon_spent)
        << PoolName(workers);
    ExpectHierarchiesIdentical(parallel.hierarchy, sequential.hierarchy);
  }
}

TEST(ParallelCompileTest, Phase1RngStreamMatchesSequential) {
  // The EM draws consume the rng strictly in group order at every pool
  // size, so the POST-build rng state must match too — a diverging stream
  // would silently change every later noise draw of a compile.
  const BipartiteGraph g = ShardScaleGraph();
  const Specializer spec(TestConfig());
  Rng seq_rng(123);
  (void)spec.BuildHierarchy(g, seq_rng);
  const auto next_seq = seq_rng();
  for (const int workers : kPoolSizes) {
    const auto pool = MakePool(workers);
    Rng par_rng(123);
    (void)spec.BuildHierarchy(g, par_rng, pool.get());
    EXPECT_EQ(par_rng(), next_seq) << PoolName(workers);
  }
}

TEST(ParallelCompileTest, RollupBitIdenticalAcrossPoolSizes) {
  const BipartiteGraph g = ShardScaleGraph();
  const Specializer spec(TestConfig());
  Rng rng(5);
  const auto built = spec.BuildHierarchy(g, rng);
  const auto sequential = gdp::core::ReleasePlan::Build(g, built.hierarchy);
  for (const int workers : kPoolSizes) {
    const auto pool = MakePool(workers);
    const auto plan =
        gdp::core::ReleasePlan::Build(g, built.hierarchy, pool.get());
    ASSERT_EQ(plan.num_levels(), sequential.num_levels())
        << PoolName(workers);
    const auto fs = plan.FlatSums();
    const auto fs_seq = sequential.FlatSums();
    EXPECT_TRUE(std::equal(fs.begin(), fs.end(), fs_seq.begin(),
                           fs_seq.end()))
        << PoolName(workers);
    const auto lo = plan.LevelOffsets();
    const auto lo_seq = sequential.LevelOffsets();
    EXPECT_TRUE(std::equal(lo.begin(), lo.end(), lo_seq.begin(),
                           lo_seq.end()))
        << PoolName(workers);
    const auto ls = plan.LevelSensitivities();
    const auto ls_seq = sequential.LevelSensitivities();
    EXPECT_TRUE(std::equal(ls.begin(), ls.end(), ls_seq.begin(),
                           ls_seq.end()))
        << PoolName(workers);
  }
}

TEST(ParallelCompileTest, RollupAtForcedTinyGrainStillExact) {
  // Tiny shard grain maximises the number of per-shard accumulators and
  // merge slots — the worst case for any ordering mistake in the merge.
  const BipartiteGraph g = ShardScaleGraph();
  const Specializer spec(TestConfig());
  Rng rng(5);
  const auto built = spec.BuildHierarchy(g, rng);
  const auto sequential = gdp::core::ReleasePlan::Build(g, built.hierarchy);
  for (const int workers : kPoolSizes) {
    const auto pool = MakePool(workers);
    const auto plan = gdp::core::ReleasePlan::Build(g, built.hierarchy,
                                                    pool.get(),
                                                    /*shard_grain=*/64);
    const auto fs = plan.FlatSums();
    const auto fs_seq = sequential.FlatSums();
    EXPECT_TRUE(std::equal(fs.begin(), fs.end(), fs_seq.begin(),
                           fs_seq.end()))
        << PoolName(workers);
  }
}

TEST(ParallelCompileTest, CompiledReleasesIdenticalAcrossThreadCounts) {
  // End to end through CompiledDisclosure: the full artifact (fingerprinted
  // plan + hierarchy) and a release drawn from it must not depend on the
  // thread count, 1 (no pool) included.
  const BipartiteGraph g = ShardScaleGraph();
  gdp::core::SessionSpec spec;
  spec.hierarchy.depth = TestConfig().depth;
  spec.hierarchy.arity = TestConfig().arity;
  auto release_with_threads = [&](int threads) {
    gdp::core::SessionSpec s = spec;
    s.exec.num_threads = threads;
    Rng rng(42);
    auto compiled = gdp::core::CompiledDisclosure::Compile(g, s, rng);
    auto session = gdp::core::DisclosureSession::Attach(compiled);
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

TEST(ParallelCompileTest, ShardedRollupStillOneScanPerBuild) {
  // The plan's defining property: ONE degree-sum node scan per build, with
  // every coarser level rolled up from parent pointers.  Sharding the
  // rollup must not silently regress into per-level rescans.
  const BipartiteGraph g = ShardScaleGraph();
  const Specializer spec(TestConfig());
  Rng rng(5);
  const auto built = spec.BuildHierarchy(g, rng);
  for (const int workers : kPoolSizes) {
    const auto pool = MakePool(workers);
    const std::uint64_t before = Partition::DegreeSumScanCount();
    const auto plan =
        gdp::core::ReleasePlan::Build(g, built.hierarchy, pool.get());
    EXPECT_EQ(Partition::DegreeSumScanCount(), before + 1)
        << PoolName(workers);
    (void)plan;
  }
}

}  // namespace
}  // namespace gdp::hier
