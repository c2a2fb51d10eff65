// The shared-artifact contract: one CompiledDisclosure serves many tenant
// handles, concurrently, with zero extra graph work and bit-identical
// output.  The concurrency tests here run under TSan in CI (ci.yml's
// thread-sanitize job), so a data race in the artifact's internally
// synchronized caches (MechanismCache, call_once index, shared ThreadPool)
// fails the build rather than corrupting a release.
#include "core/compiled_disclosure.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/pipeline.hpp"
#include "core/session.hpp"
#include "graph/generators.hpp"
#include "hier/navigation.hpp"
#include "hier/partition.hpp"

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
  SessionSpec spec;
  spec.hierarchy.depth = 5;
  spec.hierarchy.arity = 4;
  return spec;
}

void ExpectBitIdentical(const MultiLevelRelease& a, const MultiLevelRelease& b,
                        const std::string& context) {
  ASSERT_EQ(a.num_levels(), b.num_levels()) << context;
  for (int lvl = 0; lvl < a.num_levels(); ++lvl) {
    const LevelRelease& la = a.level(lvl);
    const LevelRelease& lb = b.level(lvl);
    EXPECT_EQ(la.sensitivity, lb.sensitivity) << context << " level " << lvl;
    EXPECT_EQ(la.noise_stddev, lb.noise_stddev) << context << " level " << lvl;
    EXPECT_EQ(la.noisy_total, lb.noisy_total) << context << " level " << lvl;
    EXPECT_EQ(la.noisy_group_counts, lb.noisy_group_counts)
        << context << " level " << lvl;
  }
}

// ---------- the acceptance pin: two tenants, ONE build, ONE scan ----------

TEST(CompiledDisclosureTest, TwoTenantsOneCompileOneScan) {
  const BipartiteGraph g = TestGraph();
  const std::uint64_t scans_before =
      gdp::hier::Partition::DegreeSumScanCount();
  Rng compile_rng(7);
  const auto compiled = CompiledDisclosure::Compile(g, SmallSpec(), compile_rng);

  DisclosureSession tenant_a = DisclosureSession::Attach(compiled);
  DisclosureSession tenant_b = DisclosureSession::Attach(compiled);
  Rng ra(11);
  Rng rb(13);
  const MultiLevelRelease rel_a = tenant_a.Release(ra);
  const MultiLevelRelease rel_b = tenant_b.Release(rb);
  EXPECT_EQ(rel_a.num_levels(), 6);
  EXPECT_EQ(rel_b.num_levels(), 6);

  EXPECT_EQ(gdp::hier::Partition::DegreeSumScanCount() - scans_before, 1u)
      << "two tenants on one artifact must cost exactly one Phase-1 build "
         "and one GroupDegreeSums scan total";

  // Each tenant has its own ledger: one phase-1 charge + its own release.
  EXPECT_EQ(tenant_a.ledger().charges().size(), 2u);
  EXPECT_EQ(tenant_b.ledger().charges().size(), 2u);
  EXPECT_EQ(tenant_a.num_releases(), 1);
  EXPECT_EQ(tenant_b.num_releases(), 1);
}

// ---------- parity: attached handle == fresh session == one-shot ----------

TEST(CompiledDisclosureTest, AttachedTenantBitIdenticalToFreshSession) {
  const BipartiteGraph g = TestGraph();
  const SessionSpec spec = SmallSpec();

  Rng compile_rng(23);
  const auto compiled = CompiledDisclosure::Compile(g, spec, compile_rng);
  DisclosureSession tenant = DisclosureSession::Attach(compiled, 100.0, 0.1);
  Rng r_tenant(41);
  const MultiLevelRelease via_artifact = tenant.Release(r_tenant);

  Rng open_rng(23);
  DisclosureSession fresh = DisclosureSession::Open(g, spec, open_rng);
  Rng r_fresh(41);
  const MultiLevelRelease via_fresh = fresh.Release(r_fresh);

  ExpectBitIdentical(via_artifact, via_fresh, "attached vs fresh");
}

TEST(CompiledDisclosureTest, ArtifactReleaseMatchesSessionRelease) {
  // CompiledDisclosure::Release is the ledger-free primitive a session
  // wraps: same budget + same rng state => same bits.
  const BipartiteGraph g = TestGraph();
  Rng compile_rng(7);
  const auto compiled = CompiledDisclosure::Compile(g, SmallSpec(), compile_rng);
  DisclosureSession session = DisclosureSession::Attach(compiled);
  Rng r1(19);
  Rng r2(19);
  const BudgetSpec budget = SmallSpec().budget;
  ExpectBitIdentical(compiled->Release(budget, r1),
                     session.Release(budget, r2), "artifact vs session");
}

// ---------- concurrency: many tenants, one artifact, no races ----------

TEST(CompiledDisclosureTest, ConcurrentReleasesBitIdenticalToSequential) {
  const BipartiteGraph g = TestGraph();
  Rng compile_rng(7);
  const auto compiled = CompiledDisclosure::Compile(g, SmallSpec(), compile_rng);

  constexpr int kThreads = 4;
  // Sequential baseline: one release per seed, drawn one after another.
  std::vector<MultiLevelRelease> baseline;
  for (int t = 0; t < kThreads; ++t) {
    Rng rng(100 + static_cast<std::uint64_t>(t));
    baseline.push_back(compiled->Release(SmallSpec().budget, rng));
  }

  // Concurrent: same seeds, all threads sharing the artifact (and racing
  // the first-touch of the mechanism cache).
  std::vector<std::optional<MultiLevelRelease>> concurrent(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        Rng rng(100 + static_cast<std::uint64_t>(t));
        concurrent[static_cast<std::size_t>(t)] =
            compiled->Release(SmallSpec().budget, rng);
      });
    }
    for (std::thread& th : threads) {
      th.join();
    }
  }
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(concurrent[static_cast<std::size_t>(t)].has_value());
    ExpectBitIdentical(*concurrent[static_cast<std::size_t>(t)],
                       baseline[static_cast<std::size_t>(t)],
                       "thread " + std::to_string(t));
  }
}

TEST(CompiledDisclosureTest, ConcurrentTenantHandlesOnSharedPool) {
  // exec.num_threads != 1 gives the artifact an owned ThreadPool that every
  // tenant's release shares; concurrent pooled releases must not race each
  // other (each carries its own completion state) and stay bit-identical to
  // one-at-a-time draws.
  const BipartiteGraph g = TestGraph();
  SessionSpec spec = SmallSpec();
  spec.exec.num_threads = 2;
  spec.exec.noise_chunk_grain = 64;  // small enough that levels really chunk
  Rng compile_rng(7);
  const auto compiled = CompiledDisclosure::Compile(g, spec, compile_rng);

  std::vector<MultiLevelRelease> baseline;
  for (int t = 0; t < 2; ++t) {
    Rng rng(200 + static_cast<std::uint64_t>(t));
    baseline.push_back(compiled->Release(spec.budget, rng));
  }
  std::vector<std::optional<MultiLevelRelease>> concurrent(2);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < 2; ++t) {
      threads.emplace_back([&, t] {
        DisclosureSession tenant = DisclosureSession::Attach(compiled);
        Rng rng(200 + static_cast<std::uint64_t>(t));
        concurrent[static_cast<std::size_t>(t)] = tenant.Release(spec.budget, rng);
      });
    }
    for (std::thread& th : threads) {
      th.join();
    }
  }
  for (int t = 0; t < 2; ++t) {
    ASSERT_TRUE(concurrent[static_cast<std::size_t>(t)].has_value());
    ExpectBitIdentical(*concurrent[static_cast<std::size_t>(t)],
                       baseline[static_cast<std::size_t>(t)],
                       "pooled tenant " + std::to_string(t));
  }
}

TEST(CompiledDisclosureTest, CompileRefusesAThreadCountOutsideItsBound) {
  // num_threads sizes the artifact's release pool.  A negative count (only
  // 0 means the hardware concurrency) or one past common::kMaxThreadCount is
  // refused before Phase 1 draws or the plan scans.
  const BipartiteGraph g = TestGraph();
  for (const int threads : {-1, gdp::common::kMaxThreadCount + 1}) {
    SessionSpec spec = SmallSpec();
    spec.exec.num_threads = threads;
    Rng rng(7);
    const std::uint64_t scans_before =
        gdp::hier::Partition::DegreeSumScanCount();
    EXPECT_THROW((void)CompiledDisclosure::Compile(g, spec, rng),
                 std::invalid_argument)
        << threads << " threads";
    EXPECT_EQ(rng(), Rng(7)()) << threads << " threads: Phase 1 drew";
    EXPECT_EQ(gdp::hier::Partition::DegreeSumScanCount(), scans_before)
        << threads << " threads: the plan scanned";
  }
}

TEST(CompiledDisclosureTest, CompileAndAdoptRefuseAZeroGrain) {
  // A grain of 0 cannot chunk a vector draw: both ways to build an artifact
  // refuse it before Phase 1 draws.
  const BipartiteGraph g = TestGraph();
  SessionSpec spec = SmallSpec();
  Rng rng(7);
  const auto compiled = CompiledDisclosure::Compile(g, spec, rng);
  spec.exec.noise_chunk_grain = 0;
  Rng refused(7);
  EXPECT_THROW((void)CompiledDisclosure::Compile(g, spec, refused),
               std::invalid_argument);
  EXPECT_EQ(refused(), Rng(7)()) << "Phase 1 drew";
  EXPECT_THROW((void)CompiledDisclosure::FromPrecompiled(
                   g, spec, compiled->hierarchy(), compiled->plan(),
                   compiled->phase1_epsilon_spent()),
               std::invalid_argument);
}

TEST(CompiledDisclosureTest, ConcurrentDrilldownBuildsIndexExactlyOnce) {
  // The lazy HierarchyIndex is materialised under std::call_once: N threads
  // hitting a cold index concurrently must all observe one fully-built
  // index (this is the TSan-covered regression for the pre-split lazy
  // `index_` which was unsynchronized).
  const BipartiteGraph g = TestGraph();
  Rng compile_rng(31);
  const auto compiled = CompiledDisclosure::Compile(g, SmallSpec(), compile_rng);
  Rng rng(5);
  const MultiLevelRelease release = compiled->Release(SmallSpec().budget, rng);

  const gdp::hier::HierarchyIndex direct_index(compiled->hierarchy());
  const auto expected = DrillDown(release, direct_index,
                                  gdp::graph::Side::kLeft, 42, 4, 1);

  constexpr int kThreads = 8;
  std::vector<std::vector<DrillDownEntry>> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      results[static_cast<std::size_t>(t)] =
          compiled->Drilldown(release, gdp::graph::Side::kLeft, 42, 4, 1);
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  for (const auto& chain : results) {
    ASSERT_EQ(chain.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(chain[i].level, expected[i].level);
      EXPECT_EQ(chain[i].group, expected[i].group);
      EXPECT_EQ(chain[i].noisy_count, expected[i].noisy_count);
    }
  }
}

TEST(CompiledDisclosureTest, ConcurrentValidateAndReleaseShareCache) {
  // ValidateBudget warms the shared mechanism cache while another tenant is
  // mid-release: the cache's internal mutex must make this safe.
  const BipartiteGraph g = TestGraph();
  Rng compile_rng(7);
  const auto compiled = CompiledDisclosure::Compile(g, SmallSpec(), compile_rng);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      BudgetSpec budget = SmallSpec().budget;
      budget.epsilon_g = 0.2 + 0.2 * t;
      if (t % 2 == 0) {
        compiled->ValidateBudget(budget);
      } else {
        Rng rng(300 + static_cast<std::uint64_t>(t));
        (void)compiled->Release(budget, rng);
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
}

// ---------- handle semantics ----------

TEST(CompiledDisclosureTest, TakeHierarchyCopiesWhenShared) {
  const BipartiteGraph g = TestGraph();
  Rng compile_rng(7);
  const auto compiled = CompiledDisclosure::Compile(g, SmallSpec(), compile_rng);
  DisclosureSession a = DisclosureSession::Attach(compiled);
  DisclosureSession b = DisclosureSession::Attach(compiled);
  const gdp::hier::GroupHierarchy taken = std::move(a).TakeHierarchy();
  // `b` still serves from an intact artifact (the shared case copies).
  Rng rng(9);
  EXPECT_EQ(b.Release(rng).num_levels(), 6);
  EXPECT_EQ(taken.num_levels(), 6);
  EXPECT_EQ(compiled->hierarchy().num_levels(), 6);
}

TEST(CompiledDisclosureTest, AttachRejectsNullAndTinyGrant) {
  const BipartiteGraph g = TestGraph();
  Rng compile_rng(7);
  const auto compiled = CompiledDisclosure::Compile(g, SmallSpec(), compile_rng);
  EXPECT_THROW((void)DisclosureSession::Attach(nullptr),
               std::invalid_argument);
  // A grant smaller than the Phase-1 spend fails at Attach, before any
  // request-time surprise.
  EXPECT_THROW((void)DisclosureSession::Attach(
                   compiled, compiled->phase1_epsilon_spent() / 2.0, 0.1),
               gdp::common::BudgetExhaustedError);
}

TEST(CompiledDisclosureTest, TryReleaseDeniesWithoutThrowOrDraw) {
  const BipartiteGraph g = TestGraph();
  Rng compile_rng(7);
  const auto compiled = CompiledDisclosure::Compile(g, SmallSpec(), compile_rng);
  const double phase1 = compiled->phase1_epsilon_spent();
  const BudgetSpec budget = SmallSpec().budget;
  // Grant covers phase 1 + exactly one release.
  DisclosureSession tenant = DisclosureSession::Attach(
      compiled, phase1 + budget.phase2_epsilon(), 0.1);
  Rng rng(17);
  ASSERT_TRUE(tenant.TryRelease(budget, rng).has_value());
  const Rng rng_snapshot = rng;
  const std::size_t charges_before = tenant.ledger().charges().size();
  EXPECT_FALSE(tenant.TryRelease(budget, rng).has_value());
  EXPECT_EQ(tenant.ledger().charges().size(), charges_before)
      << "a denied TryRelease must not charge";
  Rng expected = rng_snapshot;
  EXPECT_EQ(rng(), expected()) << "a denied TryRelease must not draw";
  // An uncalibratable budget is still a thrown configuration error.
  BudgetSpec bad = budget;
  bad.epsilon_g = -1.0;
  EXPECT_THROW((void)tenant.TryRelease(bad, rng),
               gdp::common::InvalidBudgetError);
}

}  // namespace
}  // namespace gdp::core
