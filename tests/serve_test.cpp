// The multi-tenant serving layer: catalog, registry (LRU + stats), broker,
// and the end-to-end DisclosureService contract — compile once per dataset,
// per-tenant ledger isolation, privilege-tier level views, and bit-identical
// determinism against a fresh session.  Runs under TSan in CI.
#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/access_policy.hpp"
#include "core/session.hpp"
#include "graph/generators.hpp"
#include "hier/partition.hpp"

namespace gdp::serve {
namespace {

using gdp::common::Rng;
using gdp::graph::BipartiteGraph;

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

Dataset SmallDataset(std::uint64_t graph_seed = 3,
                     std::uint64_t compile_seed = 7) {
  return Dataset{TestGraph(graph_seed), SmallSpec(), compile_seed, {}, {}};
}

// ---------- DatasetCatalog ----------

TEST(DatasetCatalogTest, RegisterGetContains) {
  DatasetCatalog catalog;
  catalog.Register("dblp", SmallDataset());
  EXPECT_TRUE(catalog.Contains("dblp"));
  EXPECT_FALSE(catalog.Contains("imdb"));
  EXPECT_EQ(catalog.size(), 1u);
  EXPECT_EQ(catalog.Get("dblp").compile_seed, 7u);
  EXPECT_THROW((void)catalog.Get("imdb"), gdp::common::NotFoundError);
  EXPECT_THROW(catalog.Register("dblp", SmallDataset()),
               gdp::common::StateError);
}

// ---------- TenantBroker ----------

TEST(TenantBrokerTest, RegisterValidatesAndLooksUp) {
  TenantBroker broker;
  broker.Register("alice", TenantProfile{2.0, 1e-3, 3});
  EXPECT_TRUE(broker.Contains("alice"));
  EXPECT_EQ(broker.Profile("alice").privilege, 3);
  EXPECT_DOUBLE_EQ(broker.Profile("alice").epsilon_cap, 2.0);
  EXPECT_THROW((void)broker.Profile("bob"), gdp::common::NotFoundError);
  EXPECT_THROW(broker.Register("alice", TenantProfile{}),
               gdp::common::StateError);
  EXPECT_THROW(broker.Register("bad", TenantProfile{0.0, 0.1, 0}),
               std::invalid_argument);
  EXPECT_THROW(broker.Register("bad", TenantProfile{1.0, 1.0, 0}),
               std::invalid_argument);
  EXPECT_THROW(broker.Register("bad", TenantProfile{1.0, 0.1, -1}),
               std::invalid_argument);
}

// ---------- SessionRegistry ----------

TEST(SessionRegistryTest, HitServesCachedArtifactWithoutRecompiling) {
  const BipartiteGraph g = TestGraph();
  SessionRegistry registry(4);
  const std::uint64_t scans_before =
      gdp::hier::Partition::DegreeSumScanCount();
  const auto first = registry.GetOrCompile("ds", g, SmallSpec(), 7);
  const auto second = registry.GetOrCompile("ds", g, SmallSpec(), 7);
  EXPECT_EQ(first.get(), second.get()) << "a hit must be the SAME artifact";
  EXPECT_EQ(gdp::hier::Partition::DegreeSumScanCount() - scans_before, 1u);
  EXPECT_EQ(registry.stats().hits, 1u);
  EXPECT_EQ(registry.stats().misses, 1u);
  EXPECT_EQ(registry.stats().evictions, 0u);
}

TEST(SessionRegistryTest, FingerprintSeparatesArtifactIdentity) {
  const gdp::core::SessionSpec base = SmallSpec();
  gdp::core::SessionSpec other = base;
  other.hierarchy.depth = 6;
  EXPECT_NE(SessionRegistry::Fingerprint(base, 7),
            SessionRegistry::Fingerprint(other, 7));
  EXPECT_NE(SessionRegistry::Fingerprint(base, 7),
            SessionRegistry::Fingerprint(base, 8));
  // Caps are per-tenant grants, not artifact identity.
  gdp::core::SessionSpec capped = base;
  capped.epsilon_cap = 42.0;
  EXPECT_EQ(SessionRegistry::Fingerprint(base, 7),
            SessionRegistry::Fingerprint(capped, 7));
  // The thread count never changes the bits, pool or no pool.
  gdp::core::SessionSpec two = base;
  two.exec.num_threads = 2;
  gdp::core::SessionSpec eight = base;
  eight.exec.num_threads = 8;
  EXPECT_EQ(SessionRegistry::Fingerprint(two, 7),
            SessionRegistry::Fingerprint(eight, 7));
  EXPECT_EQ(SessionRegistry::Fingerprint(base, 7),
            SessionRegistry::Fingerprint(two, 7));
}

TEST(SessionRegistryTest, LruEvictionOrderAndRecompileOnMiss) {
  const BipartiteGraph ga = TestGraph(3);
  const BipartiteGraph gb = TestGraph(4);
  const BipartiteGraph gc = TestGraph(5);
  SessionRegistry registry(2);
  (void)registry.GetOrCompile("A", ga, SmallSpec(), 7);
  (void)registry.GetOrCompile("B", gb, SmallSpec(), 7);
  // Touch A so B becomes the LRU entry.
  (void)registry.GetOrCompile("A", ga, SmallSpec(), 7);
  // C evicts B (the least recently used), NOT A.
  (void)registry.GetOrCompile("C", gc, SmallSpec(), 7);
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry.stats().evictions, 1u);
  const auto keys = registry.KeysMostRecentFirst();
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0].substr(0, 2), "C|");
  EXPECT_EQ(keys[1].substr(0, 2), "A|");

  // B was evicted: the next request recompiles (a fresh scan), and the
  // recompiled artifact is bit-equivalent because the seed is in the key.
  const std::uint64_t scans_before =
      gdp::hier::Partition::DegreeSumScanCount();
  const auto recompiled = registry.GetOrCompile("B", gb, SmallSpec(), 7);
  EXPECT_EQ(gdp::hier::Partition::DegreeSumScanCount() - scans_before, 1u);
  EXPECT_EQ(registry.stats().misses, 4u);     // A, B, C cold + B again
  EXPECT_EQ(registry.stats().evictions, 2u);  // C evicted B; B's return evicted A
  Rng r1(11);
  Rng r2(11);
  gdp::common::Rng fresh_rng(7);
  const auto fresh =
      gdp::core::CompiledDisclosure::Compile(gb, SmallSpec(), fresh_rng);
  EXPECT_EQ(recompiled->Release(SmallSpec().budget, r1).level(2).noisy_total,
            fresh->Release(SmallSpec().budget, r2).level(2).noisy_total);
}

TEST(SessionRegistryTest, EvictionNeverInvalidatesLiveTenants) {
  const BipartiteGraph ga = TestGraph(3);
  const BipartiteGraph gb = TestGraph(4);
  SessionRegistry registry(1);
  const auto artifact_a = registry.GetOrCompile("A", ga, SmallSpec(), 7);
  gdp::core::DisclosureSession tenant =
      gdp::core::DisclosureSession::Attach(artifact_a);
  // B evicts A from the registry; the tenant's shared_ptr keeps it alive.
  (void)registry.GetOrCompile("B", gb, SmallSpec(), 7);
  EXPECT_EQ(registry.stats().evictions, 1u);
  Rng rng(9);
  EXPECT_EQ(tenant.Release(rng).num_levels(), 6);
}

TEST(SessionRegistryTest, ReboundDatasetNameMissesOnDifferentGraph) {
  // A dataset name re-pointed at a different graph must MISS (the key folds
  // in the graph shape), not silently serve the old graph's statistics.
  const BipartiteGraph ga = TestGraph(3);
  Rng gen(4);
  gdp::graph::DblpLikeParams p;
  p.num_left = 400;
  p.num_right = 500;
  p.num_edges = 2600;  // different shape under the same name
  const BipartiteGraph gb = GenerateDblpLike(p, gen);
  SessionRegistry registry(4);
  (void)registry.GetOrCompile("ds", ga, SmallSpec(), 7);
  (void)registry.GetOrCompile("ds", gb, SmallSpec(), 7);
  EXPECT_EQ(registry.stats().misses, 2u);
  EXPECT_EQ(registry.stats().hits, 0u);
}

TEST(SessionRegistryTest, RejectsZeroCapacity) {
  EXPECT_THROW(SessionRegistry(0), std::invalid_argument);
}

// ---------- DisclosureService ----------

class ServiceTest : public ::testing::Test {
 protected:
  ServiceTest() : service_(4) {
    service_.catalog().Register("dblp", SmallDataset());
    // Depth-5 hierarchy => 6 levels => uniform policy with 6 tiers.
    service_.broker().Register("low", TenantProfile{50.0, 0.4, 0});
    service_.broker().Register("high", TenantProfile{50.0, 0.4, 5});
  }
  DisclosureService service_;
  gdp::core::BudgetSpec budget_ = SmallSpec().budget;
};

TEST_F(ServiceTest, ServesEntitledLevelViewPerTier) {
  Rng rng(21);
  const ServeResult low = service_.Serve("low", "dblp", budget_, rng);
  const ServeResult high = service_.Serve("high", "dblp", budget_, rng);
  ASSERT_TRUE(low.granted);
  ASSERT_TRUE(high.granted);
  // Lowest tier gets the coarsest level (5), highest tier level 0.
  EXPECT_EQ(low.level, 5);
  EXPECT_EQ(low.view.level, 5);
  EXPECT_EQ(high.level, 0);
  EXPECT_EQ(high.view.level, 0);
  // One compile serves both tenants.
  EXPECT_EQ(service_.registry().stats().misses, 1u);
  EXPECT_EQ(service_.registry().stats().hits, 1u);
}

TEST_F(ServiceTest, TwoTenantsOneScanTotal) {
  const std::uint64_t scans_before =
      gdp::hier::Partition::DegreeSumScanCount();
  Rng rng(21);
  ASSERT_TRUE(service_.Serve("low", "dblp", budget_, rng).granted);
  ASSERT_TRUE(service_.Serve("high", "dblp", budget_, rng).granted);
  EXPECT_EQ(gdp::hier::Partition::DegreeSumScanCount() - scans_before, 1u)
      << "serving two tenants must cost exactly one node scan";
}

TEST_F(ServiceTest, ServeViaRegistryBitIdenticalToFreshSession) {
  // The end-to-end determinism pin: tenant T served through catalog +
  // registry + broker + policy equals a hand-built fresh session at the
  // same seeds.
  Rng rng(33);
  const ServeResult via_service = service_.Serve("high", "dblp", budget_, rng);
  ASSERT_TRUE(via_service.granted);

  const BipartiteGraph g = TestGraph();  // same graph seed as SmallDataset
  Rng open_rng(7);                       // the dataset's compile seed
  gdp::core::DisclosureSession fresh =
      gdp::core::DisclosureSession::Open(g, SmallSpec(), open_rng);
  Rng fresh_rng(33);
  const gdp::core::MultiLevelRelease release = fresh.Release(budget_, fresh_rng);
  const gdp::core::AccessPolicy policy =
      gdp::core::AccessPolicy::Uniform(fresh.hierarchy().num_levels());
  const gdp::core::LevelRelease& expected = policy.ViewFor(release, 5);
  EXPECT_EQ(via_service.view.level, expected.level);
  EXPECT_EQ(via_service.view.noisy_total, expected.noisy_total);
  EXPECT_EQ(via_service.view.noisy_group_counts, expected.noisy_group_counts);
}

TEST_F(ServiceTest, TenantIsolationExhaustionNeverLeaks) {
  // "small" can afford phase 1 + exactly one release; "low" is untouched by
  // small's exhaustion.
  const double phase1 = budget_.phase1_epsilon();  // ≈ actual spend
  service_.broker().Register(
      "small",
      TenantProfile{phase1 + budget_.phase2_epsilon() + 1e-9, 0.4, 1});
  Rng rng(5);
  ASSERT_TRUE(service_.Serve("small", "dblp", budget_, rng).granted);
  const ServeResult denied = service_.Serve("small", "dblp", budget_, rng);
  EXPECT_FALSE(denied.granted);
  EXPECT_NE(denied.denial_reason.find("exhausted"), std::string::npos);

  // The other tenant's ledger never saw small's requests.
  const ServeResult low = service_.Serve("low", "dblp", budget_, rng);
  ASSERT_TRUE(low.granted);
  const auto low_ledger = service_.Ledger("low", "dblp");
  EXPECT_EQ(low_ledger.charges().size(), 2u);  // phase1 + one release
  const auto small_ledger = service_.Ledger("small", "dblp");
  EXPECT_EQ(small_ledger.charges().size(), 2u)
      << "the denied request must not appear on small's ledger";
}

TEST_F(ServiceTest, DenialLeavesRngUntouched) {
  service_.broker().Register(
      "micro", TenantProfile{budget_.phase1_epsilon() +
                                 budget_.phase2_epsilon() + 1e-9,
                             0.4, 0});
  Rng rng(5);
  ASSERT_TRUE(service_.Serve("micro", "dblp", budget_, rng).granted);
  const Rng snapshot = rng;
  EXPECT_FALSE(service_.Serve("micro", "dblp", budget_, rng).granted);
  Rng expected = snapshot;
  EXPECT_EQ(rng(), expected());
}

TEST_F(ServiceTest, UnknownNamesThrowNotFound) {
  Rng rng(5);
  EXPECT_THROW((void)service_.Serve("ghost", "dblp", budget_, rng),
               gdp::common::NotFoundError);
  EXPECT_THROW((void)service_.Serve("low", "imdb", budget_, rng),
               gdp::common::NotFoundError);
  EXPECT_THROW((void)service_.Ledger("low", "dblp"),
               gdp::common::NotFoundError);
}

TEST_F(ServiceTest, TierBeyondPolicyThrowsAccessPolicyError) {
  // Tier 9 in a 6-level uniform policy: a configuration error, thrown
  // before any charge.
  service_.broker().Register("vip", TenantProfile{50.0, 0.4, 9});
  Rng rng(5);
  EXPECT_THROW((void)service_.Serve("vip", "dblp", budget_, rng),
               gdp::common::AccessPolicyError);
}

TEST_F(ServiceTest, AccessLevelBeyondHierarchyCostsNothing) {
  // An explicit mapping pointing past the compiled hierarchy is a
  // configuration error caught BEFORE any charge or draw: no session is
  // attached, no budget spent, rng untouched.
  Dataset ds = SmallDataset(8, 13);
  ds.access_levels = {12};  // depth-5 hierarchy has levels 0..5
  service_.catalog().Register("badmap", std::move(ds));
  Rng rng(5);
  const Rng snapshot = rng;
  EXPECT_THROW((void)service_.Serve("low", "badmap", budget_, rng),
               gdp::common::AccessPolicyError);
  Rng expected = snapshot;
  EXPECT_EQ(rng(), expected());
  EXPECT_THROW((void)service_.Ledger("low", "badmap"),
               gdp::common::NotFoundError)
      << "a failed policy mapping must not leave a charged session behind";
}

TEST_F(ServiceTest, DeltaCapDenialNamesTheDeltaCap) {
  // Ample epsilon, tiny delta: the denial must blame the delta cap, not
  // print a self-contradictory epsilon message.
  service_.broker().Register("delta_poor", TenantProfile{50.0, 1.5e-5, 0});
  Rng rng(5);
  ASSERT_TRUE(service_.Serve("delta_poor", "dblp", budget_, rng).granted);
  const ServeResult denied = service_.Serve("delta_poor", "dblp", budget_, rng);
  ASSERT_FALSE(denied.granted);
  EXPECT_NE(denied.denial_reason.find("delta cap"), std::string::npos)
      << denied.denial_reason;
}

TEST_F(ServiceTest, StrictChargingDenialNamesTheEpsilonCapAndLevelWideNeed) {
  // Under strict_level_charging one serve charges num_levels (6 at depth 5)
  // sequential mechanisms, so the refused need is 6·ε₂, not ε₂ — and the
  // epsilon cap refuses it.
  Dataset strict = SmallDataset();
  strict.publication.strict_level_charging = true;
  service_.catalog().Register("strict", std::move(strict));
  const double need = budget_.phase2_epsilon() * 6.0;
  service_.broker().Register(
      "strict_tenant",
      TenantProfile{budget_.phase1_epsilon() + 1.5 * need, 0.4, 0});
  Rng rng(5);
  ASSERT_TRUE(service_.Serve("strict_tenant", "strict", budget_, rng).granted);
  const ServeResult denied =
      service_.Serve("strict_tenant", "strict", budget_, rng);
  ASSERT_FALSE(denied.granted);
  EXPECT_NE(denied.denial_reason.find("epsilon cap"), std::string::npos)
      << denied.denial_reason;
  EXPECT_NE(denied.denial_reason.find("needs eps=" + std::to_string(need)),
            std::string::npos)
      << denied.denial_reason;
}

TEST_F(ServiceTest, AnswerDenialNamesTheEpsilonCapAndQueryCountNeed) {
  // A 3-query answer charges one event of count 3: the refused need is
  // 3·ε₂, which a grant of phase 1 + 2·ε₂ cannot cover.
  service_.broker().Register(
      "answer_poor",
      TenantProfile{budget_.phase1_epsilon() + 2.0 * budget_.phase2_epsilon(),
                    0.4, 0});
  const std::vector<gdp::core::QuerySpec> queries(3);  // association counts
  Rng rng(5);
  const AnswerResult denied =
      service_.ServeAnswer("answer_poor", "dblp", budget_, queries, rng);
  ASSERT_FALSE(denied.serve.granted);
  const std::string& reason = denied.serve.denial_reason;
  EXPECT_NE(reason.find("epsilon cap"), std::string::npos) << reason;
  EXPECT_NE(reason.find("needs eps=" +
                        std::to_string(budget_.phase2_epsilon() * 3.0)),
            std::string::npos)
      << reason;
}

TEST_F(ServiceTest, AnswerReadsThePlanWithZeroScans) {
  // The served Answer's counts, Δℓ and group sums come from the compiled
  // plan: once the artifact exists, {assoc, group, degree} scans nothing.
  Rng rng(5);
  ASSERT_TRUE(service_.Serve("low", "dblp", budget_, rng).granted);
  std::vector<gdp::core::QuerySpec> queries(3);
  queries[1].kind = gdp::core::QuerySpec::Kind::kGroupCount;
  queries[2].kind = gdp::core::QuerySpec::Kind::kDegreeHistogram;
  const std::uint64_t scans_before =
      gdp::hier::Partition::DegreeSumScanCount();
  const AnswerResult answered =
      service_.ServeAnswer("low", "dblp", budget_, queries, rng);
  EXPECT_EQ(gdp::hier::Partition::DegreeSumScanCount() - scans_before, 0u);
  ASSERT_TRUE(answered.serve.granted) << answered.serve.denial_reason;
  ASSERT_EQ(answered.results.size(), 3u);
  EXPECT_EQ(answered.results[0].query_name, "association_count");
  EXPECT_EQ(answered.results[1].query_name, "group_counts");
  EXPECT_EQ(answered.results[2].query_name, "degree_histogram_left");
  EXPECT_EQ(answered.results[2].noisy.size(), 10u);  // max_degree 8 + 2
}

TEST_F(ServiceTest, BadQueryShapeIsRefusedBeforeTheTenantIsAttached) {
  // A never-seen tenant whose histogram asks for max_degree 0 must not be
  // attached (and charged phase 1) for a request that is refused anyway.
  service_.broker().Register("fresh", TenantProfile{50.0, 0.4, 0});
  std::vector<gdp::core::QuerySpec> queries(2);
  queries[1].kind = gdp::core::QuerySpec::Kind::kDegreeHistogram;
  queries[1].max_degree = 0;
  Rng rng(5);
  EXPECT_THROW(
      (void)service_.ServeAnswer("fresh", "dblp", budget_, queries, rng),
      std::invalid_argument);
  EXPECT_THROW((void)service_.Ledger("fresh", "dblp"),
               gdp::common::NotFoundError);
}

TEST_F(ServiceTest, OversizedReplyIsRefusedBeforeTheTenantIsAttached) {
  // group_counts' length is the level's group count, known only once the
  // tier resolves: a list whose reply would pass the frame cap there is
  // refused after that and before the never-seen tenant is attached.
  service_.broker().Register("probe", TenantProfile{50.0, 0.4, 3});
  service_.broker().Register("fresh", TenantProfile{50.0, 0.4, 3});
  Rng rng(5);
  const ServeResult probe = service_.Serve("probe", "dblp", budget_, rng);
  ASSERT_TRUE(probe.granted);
  const std::size_t groups = probe.view.noisy_group_counts.size();
  ASSERT_GT(groups, 0u);
  gdp::core::QuerySpec group;
  group.kind = gdp::core::QuerySpec::Kind::kGroupCount;
  // The fewest group_counts queries whose reply passes the cap: each adds a
  // 28-byte name, σ and count plus 8 bytes per group (docs/FORMATS.md).
  std::vector<gdp::core::QuerySpec> queries(
      (kMaxReplyBytes - 103) / (28 + 8 * groups) + 1, group);
  ASSERT_GT(AnswerReplyBytes(queries, groups), kMaxReplyBytes);
  ASSERT_LE(AnswerReplyBytes(std::span(queries).first(queries.size() - 1),
                             groups),
            kMaxReplyBytes);
  EXPECT_THROW(
      (void)service_.ServeAnswer("fresh", "dblp", budget_, queries, rng),
      std::invalid_argument);
  EXPECT_THROW((void)service_.Ledger("fresh", "dblp"),
               gdp::common::NotFoundError);
}

// A sweep's reply counts every point as granted.  One point past the frame
// cap at the level-0 tier is refused before the never-seen tenant is
// attached: no ledger, no WAL append, no odometer charge, no draw.  One
// point fewer is served whole.
TEST_F(ServiceTest, OversizedSweepIsRefusedBeforeAnyCharge) {
  auto durable = DisclosureService::Open(
      [](DisclosureService& svc) {
        svc.catalog().Register("dblp", SmallDataset());
        svc.broker().Register("wide", TenantProfile{1e4, 0.4, 5});
      },
      std::make_unique<MemoryStorage>());
  const Dataset& ds = durable->catalog().Get("dblp");
  const std::size_t groups =
      durable->registry()
          .GetOrCompile("dblp", ds.graph, ds.publication, ds.compile_seed)
          ->hierarchy()
          .level(0)
          .num_groups();
  const std::uint64_t per_point =
      SweepReplyBytes(1, groups) - SweepReplyBytes(0, groups);
  const std::size_t fit =
      (kMaxReplyBytes - SweepReplyBytes(0, groups)) / per_point;
  ASSERT_LE(SweepReplyBytes(fit, groups), kMaxReplyBytes);
  ASSERT_GT(SweepReplyBytes(fit + 1, groups), kMaxReplyBytes);

  std::vector<gdp::core::BudgetSpec> budgets(fit + 1, budget_);
  Rng rng(5);
  Rng untouched = rng;
  EXPECT_THROW((void)durable->ServeSweep("wide", "dblp", budgets, rng),
               std::invalid_argument);
  EXPECT_THROW((void)durable->Ledger("wide", "dblp"),
               gdp::common::NotFoundError);
  EXPECT_EQ(durable->durability_stats().wal_appends, 0u);
  for (const DatasetOdometer::Snapshot& snap : durable->odometer().All()) {
    EXPECT_EQ(snap.charges, 0u) << snap.dataset;
  }
  EXPECT_EQ(rng(), untouched());

  budgets.pop_back();
  const std::vector<ServeResult> served =
      durable->ServeSweep("wide", "dblp", budgets, rng);
  ASSERT_EQ(served.size(), fit);
  for (const ServeResult& r : served) {
    ASSERT_TRUE(r.granted) << r.denial_reason;
    ASSERT_EQ(r.view.noisy_group_counts.size(), groups);
  }
}

// A budget the session would refuse is refused before a never-seen tenant
// is attached, at every entry point (a sweep's bad third point included):
// no ledger, no Phase-1 charge on the odometer, no WAL record.
TEST_F(ServiceTest, BadBudgetIsRefusedBeforeTheTenantIsAttached) {
  gdp::core::BudgetSpec bad = budget_;
  bad.epsilon_g = -0.5;
  const std::vector<gdp::core::BudgetSpec> sweep = {budget_, budget_, bad};
  const std::vector<gdp::core::QuerySpec> queries(1);
  using Call = std::function<void(DisclosureService&, Rng&)>;
  const std::vector<std::pair<std::string, Call>> calls = {
      {"Serve",
       [&](DisclosureService& s, Rng& rng) {
         (void)s.Serve("fresh", "dblp", bad, rng);
       }},
      {"ServeSweep",
       [&](DisclosureService& s, Rng& rng) {
         (void)s.ServeSweep("fresh", "dblp", sweep, rng);
       }},
      {"ServeDrilldown",
       [&](DisclosureService& s, Rng& rng) {
         (void)s.ServeDrilldown("fresh", "dblp", bad, gdp::graph::Side::kLeft,
                                0, rng);
       }},
      {"ServeAnswer",
       [&](DisclosureService& s, Rng& rng) {
         (void)s.ServeAnswer("fresh", "dblp", bad, queries, rng);
       }},
  };
  for (const auto& [name, call] : calls) {
    auto durable = DisclosureService::Open(
        [](DisclosureService& svc) {
          svc.catalog().Register("dblp", SmallDataset());
          svc.broker().Register("fresh", TenantProfile{50.0, 0.4, 0});
        },
        std::make_unique<MemoryStorage>());
    Rng rng(5);
    EXPECT_THROW(call(*durable, rng), gdp::common::InvalidBudgetError)
        << name;
    EXPECT_THROW((void)durable->Ledger("fresh", "dblp"),
                 gdp::common::NotFoundError)
        << name;
    EXPECT_EQ(durable->durability_stats().wal_appends, 0u) << name;
    for (const DatasetOdometer::Snapshot& snap : durable->odometer().All()) {
      EXPECT_EQ(snap.charges, 0u) << name << " " << snap.dataset;
    }
  }
}

TEST_F(ServiceTest, ExplicitAccessLevelsOverrideUniform) {
  Dataset ds = SmallDataset(6, 11);
  ds.access_levels = {4, 2, 0};  // three tiers only
  service_.catalog().Register("mapped", std::move(ds));
  service_.broker().Register("mid", TenantProfile{50.0, 0.4, 1});
  Rng rng(5);
  const ServeResult result = service_.Serve("mid", "mapped", budget_, rng);
  ASSERT_TRUE(result.granted);
  EXPECT_EQ(result.level, 2);
  EXPECT_EQ(result.view.level, 2);
}

TEST_F(ServiceTest, GrantBelowPhase1IsDeniedNotThrown) {
  service_.broker().Register("dust",
                             TenantProfile{budget_.phase1_epsilon() / 4.0,
                                           0.4, 0});
  Rng rng(5);
  const Rng snapshot = rng;
  const ServeResult denied = service_.Serve("dust", "dblp", budget_, rng);
  EXPECT_FALSE(denied.granted);
  EXPECT_FALSE(denied.denial_reason.empty());
  // Nothing was charged: the result reports the grant fully unspent, not
  // the all-zeros of an exhausted tenant.
  EXPECT_DOUBLE_EQ(denied.epsilon_spent, 0.0);
  EXPECT_DOUBLE_EQ(denied.epsilon_remaining, budget_.phase1_epsilon() / 4.0);
  Rng expected = snapshot;
  EXPECT_EQ(rng(), expected());
  // Nothing was cached for the tenant: no ledger exists.
  EXPECT_THROW((void)service_.Ledger("dust", "dblp"),
               gdp::common::NotFoundError);
}

TEST_F(ServiceTest, AttachedTenantSurvivesEvictionWithoutRecompile) {
  // Once a tenant is attached, its session pins the artifact: evicting the
  // registry entry must not force a recompile (or ANY graph work) for that
  // tenant's later requests.
  Rng rng(5);
  ASSERT_TRUE(service_.Serve("low", "dblp", budget_, rng).granted);
  // Flood the capacity-4 registry so dblp's entry is evicted.
  for (int i = 0; i < 4; ++i) {
    const std::string name = "filler" + std::to_string(i);
    service_.catalog().Register(
        name, SmallDataset(20 + static_cast<std::uint64_t>(i),
                           30 + static_cast<std::uint64_t>(i)));
    const Dataset& ds = service_.catalog().Get(name);
    (void)service_.registry().GetOrCompile(name, ds.graph, ds.publication,
                                           ds.compile_seed);
  }
  ASSERT_GE(service_.registry().stats().evictions, 1u);
  const std::uint64_t scans_before =
      gdp::hier::Partition::DegreeSumScanCount();
  ASSERT_TRUE(service_.Serve("low", "dblp", budget_, rng).granted);
  EXPECT_EQ(gdp::hier::Partition::DegreeSumScanCount() - scans_before, 0u)
      << "an attached tenant must be served from its pinned artifact";
}

TEST_F(ServiceTest, ConcurrentTenantsServeFromOneArtifact) {
  // Distinct tenants on distinct threads share the compiled artifact; the
  // per-entry locks keep each tenant's ledger consistent.  TSan-covered.
  for (int t = 0; t < 4; ++t) {
    service_.broker().Register("t" + std::to_string(t),
                               TenantProfile{50.0, 0.4, t});
  }
  // Warm the registry so threads race on hits, not the compile.
  Rng warm_rng(1);
  ASSERT_TRUE(service_.Serve("t0", "dblp", budget_, warm_rng).granted);
  std::vector<std::thread> threads;
  std::vector<int> served(4, 0);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(400 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < 3; ++i) {
        const ServeResult r = service_.Serve("t" + std::to_string(t), "dblp",
                                             budget_, rng);
        served[static_cast<std::size_t>(t)] += r.granted ? 1 : 0;
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  for (int t = 0; t < 4; ++t) {
    EXPECT_EQ(served[static_cast<std::size_t>(t)], 3);
    const auto ledger = service_.Ledger("t" + std::to_string(t), "dblp");
    // phase1 + 3 releases (+1 for t0's warm-up).
    EXPECT_EQ(ledger.charges().size(), t == 0 ? 5u : 4u);
  }
  EXPECT_EQ(service_.registry().stats().misses, 1u);
}

// ---------- per-tenant accounting policies ----------

TEST_F(ServiceTest, RdpTenantGetsStrictlyMoreReleasesThanSequentialAtSameCaps) {
  // Same grant, same requests, same dataset — only the accounting policy
  // differs.  The RDP tenant composes its Gaussian releases on the Rényi
  // curve and must outlast the sequential tenant.
  TenantProfile seq_profile{5.0, 1e-2, 0};
  TenantProfile rdp_profile{5.0, 1e-2, 0};
  rdp_profile.accounting = gdp::dp::AccountingPolicy::kRdp;
  service_.broker().Register("seq_tenant", seq_profile);
  service_.broker().Register("rdp_tenant", rdp_profile);

  auto grants_until_denied = [this](const std::string& tenant) {
    Rng rng(77);
    int granted = 0;
    while (granted < 10000 &&
           service_.Serve(tenant, "dblp", budget_, rng).granted) {
      ++granted;
    }
    return granted;
  };
  const int sequential = grants_until_denied("seq_tenant");
  const int rdp = grants_until_denied("rdp_tenant");
  EXPECT_GT(sequential, 0);
  EXPECT_GT(rdp, sequential)
      << "an RDP tenant must demonstrably get more releases from the same "
       "grant";
  EXPECT_LT(rdp, 10000) << "the RDP grant must still exhaust";
}

TEST_F(ServiceTest, ServeReportsNaiveAndAccountedSpend) {
  TenantProfile rdp_profile{50.0, 1e-2, 0};
  rdp_profile.accounting = gdp::dp::AccountingPolicy::kRdp;
  service_.broker().Register("rdp_audit", rdp_profile);
  Rng rng(81);
  ServeResult result;
  for (int i = 0; i < 8; ++i) {
    result = service_.Serve("rdp_audit", "dblp", budget_, rng);
    ASSERT_TRUE(result.granted);
  }
  EXPECT_EQ(result.accounting, gdp::dp::AccountingPolicy::kRdp);
  EXPECT_LT(result.accounted_epsilon, result.epsilon_spent)
      << "after 8 Gaussian releases the tightened cumulative must sit below "
       "the naive sum";
  EXPECT_GT(result.accounted_epsilon, 0.0);
  // The sequential tenant reports identical naive and accounted figures.
  const ServeResult seq = service_.Serve("low", "dblp", budget_, rng);
  ASSERT_TRUE(seq.granted);
  EXPECT_EQ(seq.accounting, gdp::dp::AccountingPolicy::kSequential);
  EXPECT_EQ(seq.accounted_epsilon, seq.epsilon_spent);

  // And the audit ledger shows both views.
  const auto ledger = service_.Ledger("rdp_audit", "dblp");
  const std::string report = ledger.AuditReport();
  EXPECT_NE(report.find("accounting=rdp"), std::string::npos);
  EXPECT_NE(report.find("rdp-accounted"), std::string::npos);
  // The tightened guarantee at the tenant's own δ beats the naive Σε.
  EXPECT_LT(ledger.AccountedGuarantee(1e-6).epsilon, ledger.epsilon_spent());
}

TEST_F(ServiceTest, BrokerRejectsNonSequentialPolicyWithoutDeltaHeadroom) {
  TenantProfile bad{5.0, 0.0, 0};
  bad.accounting = gdp::dp::AccountingPolicy::kRdp;
  EXPECT_THROW(service_.broker().Register("bad", bad), std::invalid_argument);
  bad.accounting = gdp::dp::AccountingPolicy::kAdvanced;
  EXPECT_THROW(service_.broker().Register("bad", bad), std::invalid_argument);
  bad.accounting = gdp::dp::AccountingPolicy::kSequential;
  EXPECT_NO_THROW(service_.broker().Register("bad", bad));
}

}  // namespace
}  // namespace gdp::serve
