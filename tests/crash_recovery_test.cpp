// End-to-end durability: a scripted multi-tenant run against a real WAL
// file, then a crash injected at EVERY record boundary and mid-record.  The
// recovered service must claim at least (here: exactly) the spend committed
// inside the surviving prefix — budget is never lost by a crash — a retired
// dataset stays retired across restart, a transient storage fault is
// invisible in the released values, and a permanent one fails closed while
// read-only audit keeps working.  The concurrent case runs under TSan in CI.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "serve/audit_wal.hpp"
#include "serve/service.hpp"

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

Dataset SmallDataset() { return Dataset{TestGraph(), SmallSpec(), 7, {}, {}}; }

void Configure(DisclosureService& service) {
  service.catalog().Register("dblp", SmallDataset());
  service.broker().Register("low", TenantProfile{50.0, 0.4, 0});
  service.broker().Register("high", TenantProfile{50.0, 0.4, 5});
}

void WriteFile(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

// The scripted run every crash test replays a prefix of: three serves for
// "low", two for "high", all durably logged to `wal_path`.
void ScriptedRun(const std::string& wal_path,
                 std::vector<double>* noisy_totals = nullptr) {
  auto service = DisclosureService::Open(Configure, wal_path);
  const gdp::core::BudgetSpec budget = SmallSpec().budget;
  for (int i = 0; i < 3; ++i) {
    Rng rng(100 + static_cast<std::uint64_t>(i));
    const ServeResult r = service->Serve("low", "dblp", budget, rng);
    ASSERT_TRUE(r.granted);
    if (noisy_totals != nullptr) {
      noisy_totals->push_back(r.view.noisy_total);
    }
  }
  for (int i = 0; i < 2; ++i) {
    Rng rng(200 + static_cast<std::uint64_t>(i));
    const ServeResult r = service->Serve("high", "dblp", budget, rng);
    ASSERT_TRUE(r.granted);
    if (noisy_totals != nullptr) {
      noisy_totals->push_back(r.view.noisy_total);
    }
  }
}

// Naive-sequential ε a tenant's ledger must report after replaying
// records[0..count): open events (nonzero ⇒ a fresh attach's phase-1 spend)
// plus every charge.
double ExpectedTenantEpsilon(const std::vector<WalRecord>& records,
                             std::size_t count, const std::string& tenant) {
  double eps = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    if (records[i].tenant == tenant) {
      eps += records[i].event.TotalEpsilon();
    }
  }
  return eps;
}

bool TenantOpened(const std::vector<WalRecord>& records, std::size_t count,
                  const std::string& tenant) {
  for (std::size_t i = 0; i < count; ++i) {
    if (records[i].kind == WalRecordKind::kTenantOpen &&
        records[i].tenant == tenant) {
      return true;
    }
  }
  return false;
}

TEST(CrashRecoveryTest, EveryCrashPointRecoversAllCommittedSpend) {
  const std::string dir = ::testing::TempDir();
  const std::string wal_path = dir + "/crash_matrix.wal";
  std::remove(wal_path.c_str());
  ScriptedRun(wal_path);

  std::string bytes;
  {
    FileStorage reader(wal_path);
    bytes = reader.ReadAll();
  }
  const WalReplayResult full = AuditWal::Replay(bytes);
  // 2 tenant opens + 5 charges.
  ASSERT_EQ(full.records.size(), 7u);
  ASSERT_FALSE(full.torn_tail());
  ASSERT_FALSE(full.sequence_gap);

  // Crash points: before any record (magic only, and a torn magic), at every
  // record boundary, and mid-frame after every boundary.
  struct CrashPoint {
    std::uint64_t cut;          // file length the crash leaves behind
    std::size_t whole_records;  // records wholly inside the prefix
  };
  std::vector<CrashPoint> points = {{4, 0}, {8, 0}};
  std::uint64_t prev_end = 8;
  for (std::size_t i = 0; i < full.records.size(); ++i) {
    const std::uint64_t end = full.record_end_offsets[i];
    // Mid-record: half of record i's frame survives past the previous
    // boundary — replay must truncate it back to that boundary.
    points.push_back({prev_end + (end - prev_end) / 2, i});
    points.push_back({end, i + 1});
    prev_end = end;
  }

  const std::string prefix_path = dir + "/crash_prefix.wal";
  const gdp::core::BudgetSpec budget = SmallSpec().budget;
  for (const CrashPoint& point : points) {
    SCOPED_TRACE("cut=" + std::to_string(point.cut) +
                 " whole_records=" + std::to_string(point.whole_records));
    WriteFile(prefix_path, std::string_view(bytes).substr(0, point.cut));
    auto service = DisclosureService::Open(Configure, prefix_path);

    EXPECT_EQ(service->recovery().records_replayed, point.whole_records);
    if (point.whole_records > 0) {
      const bool torn =
          point.cut != full.record_end_offsets[point.whole_records - 1];
      EXPECT_EQ(service->recovery().truncated_bytes > 0, torn);
    }
    EXPECT_FALSE(service->recovery().sequence_gap);

    // Per-tenant: the rebuilt ledger reports EXACTLY the committed spend —
    // never less (lost budget) and never phantom extra.
    for (const std::string tenant : {"low", "high"}) {
      if (TenantOpened(full.records, point.whole_records, tenant)) {
        const auto ledger = service->Ledger(tenant, "dblp");
        EXPECT_NEAR(
            ledger.epsilon_spent(),
            ExpectedTenantEpsilon(full.records, point.whole_records, tenant),
            1e-12)
            << tenant;
      } else {
        EXPECT_THROW((void)service->Ledger(tenant, "dblp"),
                     gdp::common::NotFoundError)
            << tenant;
      }
    }

    // Cross-tenant odometer: phase-1 once per artifact fingerprint (both
    // opens share the artifact) plus every committed charge.
    double expected_dataset = 0.0;
    bool phase1_counted = false;
    for (std::size_t i = 0; i < point.whole_records; ++i) {
      const WalRecord& record = full.records[i];
      if (record.kind == WalRecordKind::kTenantOpen) {
        if (!phase1_counted && record.event.TotalEpsilon() > 0.0) {
          expected_dataset += record.event.TotalEpsilon();
          phase1_counted = true;
        }
      } else if (record.kind == WalRecordKind::kCharge) {
        expected_dataset += record.event.TotalEpsilon();
      }
    }
    const auto snap = service->odometer().Get("dblp");
    if (point.whole_records > 0) {
      ASSERT_TRUE(snap.has_value());
      EXPECT_NEAR(snap->epsilon_spent, expected_dataset, 1e-12);
    }

    // The recovered service still serves, and the new spend lands on top of
    // the recovered history.
    Rng rng(999);
    const ServeResult again = service->Serve("low", "dblp", budget, rng);
    EXPECT_TRUE(again.granted);
    EXPECT_GT(service->Ledger("low", "dblp").epsilon_spent(),
              ExpectedTenantEpsilon(full.records, point.whole_records, "low"));
  }
  std::remove(wal_path.c_str());
  std::remove(prefix_path.c_str());
}

TEST(CrashRecoveryTest, WalAddsNoRandomnessAndTransientFaultsAreInvisible) {
  // The same scripted run three ways — no WAL, a clean WAL, and a WAL whose
  // storage throws transient errors mid-run — must release bit-identical
  // values: durability is bookkeeping, never noise.
  const gdp::core::BudgetSpec budget = SmallSpec().budget;
  auto run_plain = [&budget]() {
    DisclosureService service(4);
    Configure(service);
    std::vector<double> totals;
    for (int i = 0; i < 3; ++i) {
      Rng rng(100 + static_cast<std::uint64_t>(i));
      const ServeResult r = service.Serve("low", "dblp", budget, rng);
      EXPECT_TRUE(r.granted);
      totals.push_back(r.view.noisy_total);
    }
    for (int i = 0; i < 2; ++i) {
      Rng rng(200 + static_cast<std::uint64_t>(i));
      const ServeResult r = service.Serve("high", "dblp", budget, rng);
      EXPECT_TRUE(r.granted);
      totals.push_back(r.view.noisy_total);
    }
    return totals;
  };
  const std::vector<double> plain = run_plain();

  const std::string wal_path = ::testing::TempDir() + "/no_randomness.wal";
  std::remove(wal_path.c_str());
  std::vector<double> durable;
  ScriptedRun(wal_path, &durable);
  ASSERT_EQ(durable.size(), plain.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(durable[i], plain[i]) << "request " << i;
  }
  std::remove(wal_path.c_str());

  // Survivor path: ops 0/1 are the magic write, 2/3 the first open record;
  // fail the first charge's append (op 4) once — it is retried and the run
  // proceeds, releasing the SAME values.
  auto faulty = std::make_unique<FaultyStorage>(
      std::make_unique<MemoryStorage>(),
      FaultyStorage::FaultMode::kTransientError, /*fail_at_op=*/4);
  auto service = DisclosureService::Open(Configure, std::move(faulty));
  std::vector<double> survived;
  for (int i = 0; i < 3; ++i) {
    Rng rng(100 + static_cast<std::uint64_t>(i));
    const ServeResult r = service->Serve("low", "dblp", budget, rng);
    ASSERT_TRUE(r.granted);
    survived.push_back(r.view.noisy_total);
  }
  for (int i = 0; i < 2; ++i) {
    Rng rng(200 + static_cast<std::uint64_t>(i));
    const ServeResult r = service->Serve("high", "dblp", budget, rng);
    ASSERT_TRUE(r.granted);
    survived.push_back(r.view.noisy_total);
  }
  ASSERT_EQ(survived.size(), plain.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(survived[i], plain[i]) << "request " << i;
  }
  EXPECT_FALSE(service->failed_closed());
}

TEST(CrashRecoveryTest, PermanentWalFailureFailsClosedButAuditStillReads) {
  // Ops 0/1 magic, 2/3 the open record; every op from the first charge's
  // append on fails permanently.
  auto faulty = std::make_unique<FaultyStorage>(
      std::make_unique<MemoryStorage>(),
      FaultyStorage::FaultMode::kPermanentError, /*fail_at_op=*/4,
      /*fail_ops=*/1000000);
  auto service = DisclosureService::Open(Configure, std::move(faulty));
  const gdp::core::BudgetSpec budget = SmallSpec().budget;
  Rng rng(5);
  EXPECT_THROW((void)service->Serve("low", "dblp", budget, rng),
               gdp::common::DurabilityError);
  EXPECT_TRUE(service->failed_closed());
  // The latch holds: every further request is rejected up front.
  EXPECT_THROW((void)service->Serve("low", "dblp", budget, rng),
               gdp::common::DurabilityError);
  EXPECT_THROW((void)service->Serve("high", "dblp", budget, rng),
               gdp::common::DurabilityError);
  // Read-only audit still works: the attach (phase-1) went through before
  // the failing charge, and the denied releases never hit the ledger.
  const auto ledger = service->Ledger("low", "dblp");
  EXPECT_EQ(ledger.charges().size(), 1u);
  const DurabilityStats stats = service->durability_stats();
  EXPECT_GE(stats.wal_failures, 1u);
  EXPECT_GE(stats.fail_closed_rejections, 2u);
}

TEST(CrashRecoveryTest, RetiredDatasetStaysRetiredAcrossRestart) {
  const gdp::core::BudgetSpec budget = SmallSpec().budget;
  // Room for phase 1 and one release; the second release trips the cap.
  const double cap =
      budget.phase1_epsilon() + 1.5 * budget.phase2_epsilon();
  auto configure = [cap](DisclosureService& service) {
    Configure(service);
    service.odometer().SetBudget("dblp", cap, 0.4);
  };
  const std::string wal_path = ::testing::TempDir() + "/retire.wal";
  std::remove(wal_path.c_str());
  double spent_before_restart = 0.0;
  {
    auto service = DisclosureService::Open(configure, wal_path);
    Rng rng(5);
    ASSERT_TRUE(service->Serve("low", "dblp", budget, rng).granted);
    const ServeResult denied = service->Serve("low", "dblp", budget, rng);
    EXPECT_FALSE(denied.granted);
    EXPECT_NE(denied.denial_reason.find("retired"), std::string::npos)
        << denied.denial_reason;
    EXPECT_TRUE(service->odometer().IsRetired("dblp"));
    EXPECT_EQ(service->durability_stats().dataset_denials, 1u);
    spent_before_restart = service->Ledger("low", "dblp").epsilon_spent();
  }
  {
    auto service = DisclosureService::Open(configure, wal_path);
    // The retirement record replayed: retired BEFORE any request.
    EXPECT_TRUE(service->odometer().IsRetired("dblp"));
    EXPECT_EQ(service->recovery().datasets_retired, 1u);
    // A recovered tenant is refused without being re-charged…
    Rng rng(6);
    const ServeResult denied = service->Serve("low", "dblp", budget, rng);
    EXPECT_FALSE(denied.granted);
    EXPECT_DOUBLE_EQ(service->Ledger("low", "dblp").epsilon_spent(),
                     spent_before_restart);
    // …and a NEW tenant is refused before paying phase 1 for a view it can
    // never draw.
    const ServeResult fresh = service->Serve("high", "dblp", budget, rng);
    EXPECT_FALSE(fresh.granted);
    EXPECT_THROW((void)service->Ledger("high", "dblp"),
                 gdp::common::NotFoundError);
  }
  std::remove(wal_path.c_str());
}

TEST(CrashRecoveryTest, ConcurrentDurableServesKeepTheLogGapFree) {
  const std::string wal_path = ::testing::TempDir() + "/concurrent.wal";
  std::remove(wal_path.c_str());
  auto configure = [](DisclosureService& service) {
    service.catalog().Register("dblp", SmallDataset());
    for (int t = 0; t < 4; ++t) {
      service.broker().Register("t" + std::to_string(t),
                                TenantProfile{50.0, 0.4, t});
    }
  };
  const gdp::core::BudgetSpec budget = SmallSpec().budget;
  {
    auto service = DisclosureService::Open(configure, wal_path);
    // Warm the registry so threads race on the WAL, not the compile.
    Rng warm_rng(1);
    ASSERT_TRUE(service->Serve("t0", "dblp", budget, warm_rng).granted);
    std::vector<std::thread> threads;
    std::vector<int> served(4, 0);
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        Rng rng(400 + static_cast<std::uint64_t>(t));
        for (int i = 0; i < 3; ++i) {
          const ServeResult r =
              service->Serve("t" + std::to_string(t), "dblp", budget, rng);
          served[static_cast<std::size_t>(t)] += r.granted ? 1 : 0;
        }
      });
    }
    for (std::thread& th : threads) {
      th.join();
    }
    for (int t = 0; t < 4; ++t) {
      EXPECT_EQ(served[static_cast<std::size_t>(t)], 3);
    }
    // 4 opens + 13 charges (t0 warmed once).
    EXPECT_EQ(service->durability_stats().wal_appends, 17u);
    EXPECT_FALSE(service->failed_closed());
  }
  FileStorage reader(wal_path);
  const WalReplayResult replay = AuditWal::Replay(reader.ReadAll());
  EXPECT_EQ(replay.records.size(), 17u);
  EXPECT_FALSE(replay.sequence_gap);
  EXPECT_FALSE(replay.torn_tail());
  std::remove(wal_path.c_str());
}

}  // namespace
}  // namespace gdp::serve
