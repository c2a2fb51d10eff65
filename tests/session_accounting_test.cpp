// Session-level accounting: the AccountingPolicy knob on SessionSpec, the
// mechanism events Release/Sweep/Answer thread into the ledger, and the
// acceptance pin — a tenant composing >= 8 Gaussian level-releases under
// kRdp reports a cumulative ε at δ = 1e-6 strictly below the sequential
// ledger's Σε, while kSequential stays bit-identical to the default.
#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "core/session.hpp"
#include "dp/privacy_accountant.hpp"
#include "dp/rdp_accountant.hpp"
#include "graph/generators.hpp"

namespace gdp::core {
namespace {

using gdp::common::Rng;
using gdp::dp::AccountingPolicy;
using gdp::dp::MechanismEvent;
using gdp::graph::BipartiteGraph;

BipartiteGraph TestGraph() {
  Rng rng(3);
  gdp::graph::DblpLikeParams p;
  p.num_left = 400;
  p.num_right = 500;
  p.num_edges = 2500;
  return GenerateDblpLike(p, rng);
}

SessionSpec SpecWithPolicy(AccountingPolicy policy) {
  SessionSpec spec;
  spec.hierarchy.depth = 5;
  spec.hierarchy.arity = 4;
  spec.accounting = policy;
  // Real caps so exhaustion is reachable, with δ headroom for conversion.
  spec.epsilon_cap = 100.0;
  spec.delta_cap = 1e-2;
  return spec;
}

TEST(SessionAccountingTest, ReleaseChargesAGaussianEventWithMultiplier) {
  const BipartiteGraph graph = TestGraph();
  Rng rng(11);
  DisclosureSession session =
      DisclosureSession::Open(graph, SpecWithPolicy(AccountingPolicy::kRdp), rng);
  (void)session.Release(rng);
  const auto& events = session.ledger().events();
  ASSERT_EQ(events.size(), 2u);  // phase-1 + one release
  EXPECT_EQ(events[0].kind, MechanismEvent::Kind::kPureEps);
  EXPECT_EQ(events[1].kind, MechanismEvent::Kind::kGaussian);
  EXPECT_GT(events[1].noise_multiplier, 0.0);
  // The charge spans every hierarchy level (the parallel-block width).
  EXPECT_EQ(events[1].parallel_width, session.hierarchy().num_levels());
  // The claimed (ε, δ) is exactly what the sequential ledger recorded.
  EXPECT_EQ(events[1].epsilon, session.spec().budget.phase2_epsilon());
  EXPECT_EQ(events[1].delta, session.spec().budget.delta);
}

// THE acceptance pin: >= 8 Gaussian level-releases under kRdp report a
// cumulative ε at δ = 1e-6 strictly below the naive Σε.
TEST(SessionAccountingTest, RdpTightensEightGaussianReleasesAtDelta1e6) {
  const BipartiteGraph graph = TestGraph();
  Rng rng(17);
  DisclosureSession session =
      DisclosureSession::Open(graph, SpecWithPolicy(AccountingPolicy::kRdp), rng);
  for (int i = 0; i < 8; ++i) {
    (void)session.Release(rng);
  }
  const double naive_sum = session.ledger().epsilon_spent();
  const gdp::dp::BudgetCharge tightened =
      session.ledger().AccountedGuarantee(1e-6);
  EXPECT_LT(tightened.epsilon, naive_sum)
      << "RDP composition of 8 Gaussian releases must beat the sequential "
       "ledger's Σε at δ = 1e-6";
  // All-Gaussian (plus a pure-ε phase 1) sessions carry no basic δ claims:
  // the whole δ budget is the conversion target itself.
  EXPECT_DOUBLE_EQ(tightened.delta, 1e-6);
  EXPECT_LT(tightened.delta, session.ledger().delta_spent())
      << "the tightened guarantee's δ at 1e-6 also beats the naive Σδ";
}

TEST(SessionAccountingTest, PoliciesNeverChangeTheReleasedValues) {
  // Accounting is bookkeeping over the charges; the noise drawn must be
  // bit-identical whatever the policy.
  const BipartiteGraph graph = TestGraph();
  std::vector<double> totals;
  for (const AccountingPolicy policy :
       {AccountingPolicy::kSequential, AccountingPolicy::kAdvanced,
        AccountingPolicy::kRdp}) {
    Rng rng(23);
    DisclosureSession session =
        DisclosureSession::Open(graph, SpecWithPolicy(policy), rng);
    const MultiLevelRelease release = session.Release(rng);
    totals.push_back(release.level(2).noisy_total);
  }
  EXPECT_EQ(totals[0], totals[1]);
  EXPECT_EQ(totals[0], totals[2]);
}

TEST(SessionAccountingTest, SequentialPolicyLedgerMatchesDefaultExactly) {
  const BipartiteGraph graph = TestGraph();
  Rng rng_a(29);
  Rng rng_b(29);
  SessionSpec default_spec = SpecWithPolicy(AccountingPolicy::kSequential);
  SessionSpec explicit_spec = default_spec;
  DisclosureSession a = DisclosureSession::Open(graph, default_spec, rng_a);
  DisclosureSession b = DisclosureSession::Open(graph, explicit_spec, rng_b);
  for (int i = 0; i < 3; ++i) {
    (void)a.Release(rng_a);
    (void)b.Release(rng_b);
  }
  EXPECT_EQ(a.ledger().epsilon_spent(), b.ledger().epsilon_spent());
  EXPECT_EQ(a.ledger().delta_spent(), b.ledger().delta_spent());
  EXPECT_EQ(a.ledger().AuditReport(), b.ledger().AuditReport());
}

TEST(SessionAccountingTest, RdpSessionOutlastsSequentialSession) {
  // Same grant, same requests: the RDP handle must admit strictly more
  // releases before TryRelease starts denying.
  const BipartiteGraph graph = TestGraph();
  auto count_releases = [&graph](AccountingPolicy policy) {
    SessionSpec spec = SpecWithPolicy(policy);
    spec.epsilon_cap = 5.0;
    spec.delta_cap = 1e-2;
    Rng rng(31);
    DisclosureSession session = DisclosureSession::Open(graph, spec, rng);
    int granted = 0;
    while (granted < 10000 &&
           session.TryRelease(spec.budget, rng).has_value()) {
      ++granted;
    }
    return granted;
  };
  const int sequential = count_releases(AccountingPolicy::kSequential);
  const int rdp = count_releases(AccountingPolicy::kRdp);
  EXPECT_GT(rdp, sequential);
  EXPECT_LT(rdp, 10000) << "an RDP grant must still exhaust";
}

TEST(SessionAccountingTest, SweepBatchPrecheckUsesThePolicy) {
  // A sweep the naive Σε arithmetic would reject can be admissible under
  // kRdp: 8 points at ε_g ≈ 1 against an ε cap of 5.
  const BipartiteGraph graph = TestGraph();
  SessionSpec spec = SpecWithPolicy(AccountingPolicy::kRdp);
  spec.epsilon_cap = 5.0;
  spec.delta_cap = 1e-2;
  Rng rng(37);
  DisclosureSession session = DisclosureSession::Open(graph, spec, rng);
  const std::vector<BudgetSpec> points(8, spec.budget);
  const auto releases = session.Sweep(points, rng);
  EXPECT_EQ(releases.size(), 8u);
  EXPECT_GT(session.ledger().epsilon_spent(), spec.epsilon_cap)
      << "the naive Σε exceeding the cap while the sweep is granted is "
       "exactly the RDP win";
  // The same sweep under the sequential policy is rejected atomically.
  SessionSpec seq_spec = spec;
  seq_spec.accounting = AccountingPolicy::kSequential;
  Rng seq_rng(37);
  DisclosureSession seq_session =
      DisclosureSession::Open(graph, seq_spec, seq_rng);
  EXPECT_THROW((void)seq_session.Sweep(points, seq_rng),
               gdp::common::BudgetExhaustedError);
}

TEST(SessionAccountingTest, AnswerThreadsQueryCountSizedEvent) {
  const BipartiteGraph graph = TestGraph();
  SessionSpec spec = SpecWithPolicy(AccountingPolicy::kRdp);
  Rng rng(41);
  DisclosureSession session = DisclosureSession::Open(graph, spec, rng);
  std::vector<QuerySpec> queries(2);
  queries[1].kind = QuerySpec::Kind::kGroupCount;
  (void)session.Answer(queries, 1, spec.budget, rng);
  const auto& events = session.ledger().events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].count, 2);
  EXPECT_EQ(events[1].kind, MechanismEvent::Kind::kGaussian);
  // Naive books match the historical k·(ε, δ) charge.
  EXPECT_EQ(session.ledger().charges()[1].epsilon,
            2.0 * spec.budget.phase2_epsilon());
}

TEST(SessionAccountingTest, CompileRejectsRdpWithoutDeltaHeadroom) {
  const BipartiteGraph graph = TestGraph();
  SessionSpec spec = SpecWithPolicy(AccountingPolicy::kRdp);
  spec.delta_cap = 0.0;
  Rng rng(43);
  EXPECT_THROW((void)DisclosureSession::Open(graph, spec, rng),
               std::invalid_argument);
}

TEST(SessionAccountingTest, PerTenantAttachPolicyOverridesTheSpecDefault) {
  const BipartiteGraph graph = TestGraph();
  Rng rng(47);
  const auto compiled = CompiledDisclosure::Compile(
      graph, SpecWithPolicy(AccountingPolicy::kSequential), rng);
  DisclosureSession rdp_tenant = DisclosureSession::Attach(
      compiled, 5.0, 1e-2, AccountingPolicy::kRdp);
  DisclosureSession seq_tenant = DisclosureSession::Attach(compiled, 5.0, 1e-2);
  EXPECT_EQ(rdp_tenant.ledger().policy(), AccountingPolicy::kRdp);
  EXPECT_EQ(seq_tenant.ledger().policy(), AccountingPolicy::kSequential);
}

TEST(SessionAccountingTest, StrictLevelChargingMultipliesTheWidthBackIn) {
  // The strict knob (docs/ACCOUNTING.md's cross-level caveat) must change
  // what a release CHARGES — num_levels sequential mechanisms instead of one
  // parallel-composed event — and NOTHING about what it releases.
  const BipartiteGraph graph = TestGraph();
  SessionSpec loose_spec = SpecWithPolicy(AccountingPolicy::kSequential);
  SessionSpec strict_spec = loose_spec;
  strict_spec.strict_level_charging = true;

  Rng loose_rng(11);
  Rng strict_rng(11);
  DisclosureSession loose = DisclosureSession::Open(graph, loose_spec, loose_rng);
  DisclosureSession strict =
      DisclosureSession::Open(graph, strict_spec, strict_rng);
  const MultiLevelRelease loose_rel = loose.Release(loose_rng);
  const MultiLevelRelease strict_rel = strict.Release(strict_rng);

  // Identical released bits at identical seeds: the knob is invisible to
  // the mechanism (and to the artifact fingerprint).
  ASSERT_EQ(loose_rel.num_levels(), strict_rel.num_levels());
  for (int l = 0; l < loose_rel.num_levels(); ++l) {
    EXPECT_EQ(loose_rel.levels()[static_cast<std::size_t>(l)].noisy_group_counts,
              strict_rel.levels()[static_cast<std::size_t>(l)].noisy_group_counts)
        << "level " << l;
  }

  // The ledger sees the difference: count and parallel_width trade places...
  const int width = loose.hierarchy().num_levels();
  const MechanismEvent& loose_event = loose.ledger().events().back();
  const MechanismEvent& strict_event = strict.ledger().events().back();
  EXPECT_EQ(loose_event.count, 1);
  EXPECT_EQ(loose_event.parallel_width, width);
  EXPECT_EQ(strict_event.count, width);
  EXPECT_EQ(strict_event.parallel_width, 1);

  // ...so the strict session pays (width - 1) extra phase-2 epsilons.
  const double eps2 = loose.spec().budget.phase2_epsilon();
  EXPECT_NEAR(
      strict.ledger().epsilon_spent() - loose.ledger().epsilon_spent(),
      static_cast<double>(width - 1) * eps2, 1e-12);
}

TEST(SessionAccountingTest, NoiseMultiplierForCalibratesAKReleaseBudget) {
  // Plan a σ/Δ for an 8-release budget up front, then verify the composed
  // epsilon actually fits (the satellite's round-trip contract).
  const double target_eps = 2.0;
  const gdp::dp::Delta delta(1e-6);
  const double m = gdp::dp::RdpAccountant::NoiseMultiplierFor(target_eps, delta, 8);
  gdp::dp::RdpAccountant accountant;
  accountant.AddGaussians(m, 8);
  EXPECT_LE(accountant.EpsilonFor(delta), target_eps);
  EXPECT_GT(accountant.EpsilonFor(delta), target_eps * 0.99)
      << "the calibrated multiplier should sit essentially ON the target";
}

}  // namespace
}  // namespace gdp::core
