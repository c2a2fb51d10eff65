// Snapshot-backed serving: catalog lazy materialization, SessionRegistry
// plan adoption under the fingerprint discipline, and the end-to-end
// contract — a DisclosureService serving from a packed snapshot produces
// bit-identical results to one serving the same dataset built eagerly.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "serve/service.hpp"
#include "storage/snapshot.hpp"

namespace gdp::serve {
namespace {

using gdp::common::Rng;
using gdp::graph::BipartiteGraph;
using gdp::storage::Snapshot;
using gdp::storage::SnapshotContents;

BipartiteGraph TestGraph(std::uint64_t seed = 3) {
  Rng rng(seed);
  gdp::graph::DblpLikeParams p;
  p.num_left = 400;
  p.num_right = 500;
  p.num_edges = 2500;
  return GenerateDblpLike(p, rng);
}

gdp::core::SessionSpec SmallSpec() {
  gdp::core::SessionSpec spec;
  spec.hierarchy.depth = 5;
  spec.hierarchy.arity = 4;
  return spec;
}

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// Pack `graph` (compiled under `spec` + `seed` when `with_plan`) to `path`.
void PackTo(const std::string& path, const BipartiteGraph& graph,
            const gdp::core::SessionSpec& spec, std::uint64_t seed,
            bool with_plan) {
  SnapshotContents contents;
  contents.graph = &graph;
  std::shared_ptr<const gdp::core::CompiledDisclosure> compiled;
  if (with_plan) {
    Rng rng(seed);
    compiled = gdp::core::CompiledDisclosure::Compile(graph, spec, rng);
    contents.hierarchy = &compiled->hierarchy();
    contents.plan = &compiled->plan();
    contents.phase1_epsilon_spent = compiled->phase1_epsilon_spent();
    contents.fingerprint = SessionRegistry::Fingerprint(spec, seed);
  }
  WriteSnapshotFile(path, contents);
}

TEST(SnapshotCatalogTest, LazyEntryMaterializesOnFirstGet) {
  const std::string path = TempPath("gdp_snap_catalog.gdps");
  const auto graph = TestGraph();
  PackTo(path, graph, SmallSpec(), 7, /*with_plan=*/false);

  DatasetCatalog catalog;
  catalog.RegisterSnapshot("packed", path, SmallSpec(), 7);
  EXPECT_TRUE(catalog.Contains("packed"));
  EXPECT_EQ(catalog.size(), 1u);
  // Registration read NOTHING: deleting the file before the first Get and
  // restoring it after proves the load really is deferred.
  EXPECT_FALSE(catalog.Materialized("packed"));

  const Dataset& ds = catalog.Get("packed");
  EXPECT_TRUE(catalog.Materialized("packed"));
  ASSERT_NE(ds.snapshot, nullptr);
  EXPECT_EQ(ds.graph.num_edges(), graph.num_edges());
  EXPECT_EQ(ds.compile_seed, 7u);
  // Second Get returns the same materialized entry.
  EXPECT_EQ(&catalog.Get("packed"), &ds);
  std::remove(path.c_str());
}

TEST(SnapshotCatalogTest, MissingFileFailsOnGetAndStaysRetryable) {
  const std::string path = TempPath("gdp_snap_catalog_missing.gdps");
  std::remove(path.c_str());
  DatasetCatalog catalog;
  catalog.RegisterSnapshot("packed", path, SmallSpec(), 7);
  EXPECT_THROW((void)catalog.Get("packed"), gdp::common::IoError);
  EXPECT_FALSE(catalog.Materialized("packed"));
  // The entry survives the failure: once the file exists, Get succeeds.
  PackTo(path, TestGraph(), SmallSpec(), 7, /*with_plan=*/false);
  EXPECT_NO_THROW((void)catalog.Get("packed"));
  EXPECT_TRUE(catalog.Materialized("packed"));
  std::remove(path.c_str());
}

TEST(SnapshotCatalogTest, ConcurrentFirstGetsShareOneDataset) {
  const std::string path = TempPath("gdp_snap_catalog_concurrent.gdps");
  PackTo(path, TestGraph(), SmallSpec(), 7, /*with_plan=*/false);
  DatasetCatalog catalog;
  catalog.RegisterSnapshot("packed", path, SmallSpec(), 7);
  ASSERT_FALSE(catalog.Materialized("packed"));

  constexpr int kThreads = 8;
  std::latch start(kThreads);
  std::vector<const Dataset*> got(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();  // every first Get races the others
      got[static_cast<std::size_t>(t)] = &catalog.Get("packed");
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  EXPECT_TRUE(catalog.Materialized("packed"));
  for (const Dataset* ds : got) {
    EXPECT_EQ(ds, got.front()) << "every first Get must see one Dataset";
  }
  EXPECT_EQ(&catalog.Get("packed"), got.front());
  std::remove(path.c_str());
}

TEST(SnapshotRegistryTest, AdoptsEmbeddedPlanOnlyWhenFingerprintMatches) {
  const std::string path = TempPath("gdp_snap_registry.gdps");
  const auto graph = TestGraph();
  const auto spec = SmallSpec();
  PackTo(path, graph, spec, 7, /*with_plan=*/true);
  const auto snap = Snapshot::Load(path);

  // Matching (spec, seed): the miss adopts instead of compiling.
  SessionRegistry adopting(4);
  const auto adopted =
      adopting.GetOrCompile("ds", snap->graph(), spec, 7, snap.get());
  EXPECT_EQ(adopting.stats().misses, 1u);
  EXPECT_EQ(adopting.stats().snapshot_adoptions, 1u);

  // The adopted artifact is bit-identical to a fresh compile.
  SessionRegistry compiling(4);
  const auto fresh = compiling.GetOrCompile("ds", graph, spec, 7);
  EXPECT_EQ(compiling.stats().snapshot_adoptions, 0u);
  Rng rng_a(99);
  Rng rng_b(99);
  const auto ra = adopted->Release(spec.budget, rng_a);
  const auto rb = fresh->Release(spec.budget, rng_b);
  ASSERT_EQ(ra.num_levels(), rb.num_levels());
  for (int i = 0; i < ra.num_levels(); ++i) {
    EXPECT_EQ(ra.level(i).noisy_total, rb.level(i).noisy_total);
    EXPECT_EQ(ra.level(i).noisy_group_counts, rb.level(i).noisy_group_counts);
  }

  // A different compile seed changes the fingerprint: silent fallback to a
  // fresh compile, never a wrong adoption.
  SessionRegistry mismatched(4);
  (void)mismatched.GetOrCompile("ds", snap->graph(), spec, 8, snap.get());
  EXPECT_EQ(mismatched.stats().misses, 1u);
  EXPECT_EQ(mismatched.stats().snapshot_adoptions, 0u);

  // A hit never consults the snapshot.
  (void)adopting.GetOrCompile("ds", snap->graph(), spec, 7, snap.get());
  EXPECT_EQ(adopting.stats().hits, 1u);
  EXPECT_EQ(adopting.stats().snapshot_adoptions, 1u);
  std::remove(path.c_str());
}

TEST(SnapshotServeTest, SnapshotBackedServiceBitIdenticalToEagerService) {
  const std::string path = TempPath("gdp_snap_serve.gdps");
  const auto graph = TestGraph();
  const auto spec = SmallSpec();
  PackTo(path, graph, spec, 7, /*with_plan=*/true);

  DisclosureService eager(4);
  eager.catalog().Register("ds", Dataset{TestGraph(), spec, 7, {}, {}});
  DisclosureService packed(4);
  packed.catalog().RegisterSnapshot("ds", path, spec, 7);

  TenantProfile profile;
  profile.epsilon_cap = 50.0;
  profile.delta_cap = 0.01;
  profile.privilege = 2;
  for (auto* svc : {&eager, &packed}) {
    svc->broker().Register("alice", profile);
    svc->broker().Register("bob", profile);
  }

  // Identical request streams from identical Rng states must serve
  // identical noisy views whichever storage path the dataset took.
  Rng rng_eager = Rng(7).Fork(1);
  Rng rng_packed = Rng(7).Fork(1);
  for (const auto& [tenant, eps] : std::vector<std::pair<std::string, double>>{
           {"alice", 0.5}, {"bob", 0.4}, {"alice", 0.3}}) {
    gdp::core::BudgetSpec budget = spec.budget;
    budget.epsilon_g = eps;
    const ServeResult a = eager.Serve(tenant, "ds", budget, rng_eager);
    const ServeResult b = packed.Serve(tenant, "ds", budget, rng_packed);
    ASSERT_TRUE(a.granted);
    ASSERT_TRUE(b.granted);
    EXPECT_EQ(a.level, b.level);
    EXPECT_EQ(a.view.noisy_total, b.view.noisy_total);
    EXPECT_EQ(a.view.noisy_group_counts, b.view.noisy_group_counts);
    EXPECT_EQ(a.epsilon_spent, b.epsilon_spent);
  }
  // The packed service's only miss was served by adoption: zero Phase-1
  // EM builds ran in that process.
  EXPECT_EQ(packed.registry().stats().snapshot_adoptions, 1u);
  EXPECT_EQ(eager.registry().stats().snapshot_adoptions, 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gdp::serve
