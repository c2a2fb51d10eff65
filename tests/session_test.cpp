#include "core/session.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/consistency.hpp"
#include "core/pipeline.hpp"
#include "core/release_plan.hpp"
#include "graph/generators.hpp"
#include "hier/navigation.hpp"
#include "release_oracle.hpp"

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

// Default ("audit only") caps: multi-release tests need the headroom.
SessionSpec SmallSpec() {
  SessionSpec cfg;
  cfg.hierarchy.depth = 5;
  cfg.hierarchy.arity = 4;
  return cfg;
}

void ExpectBitIdentical(const MultiLevelRelease& a, const MultiLevelRelease& b,
                        const std::string& context) {
  ASSERT_EQ(a.num_levels(), b.num_levels()) << context;
  for (int lvl = 0; lvl < a.num_levels(); ++lvl) {
    const LevelRelease& la = a.level(lvl);
    const LevelRelease& lb = b.level(lvl);
    EXPECT_EQ(la.sensitivity, lb.sensitivity) << context << " level " << lvl;
    EXPECT_EQ(la.noise_stddev, lb.noise_stddev) << context << " level " << lvl;
    EXPECT_EQ(la.group_noise_stddev, lb.group_noise_stddev)
        << context << " level " << lvl;
    EXPECT_EQ(la.noisy_total, lb.noisy_total) << context << " level " << lvl;
    EXPECT_EQ(la.true_total, lb.true_total) << context << " level " << lvl;
    EXPECT_EQ(la.noisy_group_counts, lb.noisy_group_counts)
        << context << " level " << lvl;
  }
}

// The seed implementation of RunDisclosure, reproduced as the parity oracle:
// specializer + plan composed by hand, exactly as the pre-session
// pipeline.cpp did, then the hand-written draw of release_oracle.hpp.  The
// session/wrapper refactor must stay bit-identical to THIS, not merely to
// itself — at every thread count.
MultiLevelRelease ManualOneShot(const BipartiteGraph& graph,
                                const SessionSpec& config, Rng& rng) {
  const double eps_phase1 = config.budget.phase1_epsilon();
  const double eps_phase2 = config.budget.phase2_epsilon();
  const int transitions = config.hierarchy.depth - 1;

  gdp::hier::SpecializationConfig spec;
  spec.depth = config.hierarchy.depth;
  spec.arity = config.hierarchy.arity;
  spec.epsilon_per_level =
      transitions > 0 ? eps_phase1 / static_cast<double>(transitions)
                      : eps_phase1;
  spec.quality = config.hierarchy.split_quality;
  spec.max_cut_candidates = config.hierarchy.max_cut_candidates;
  spec.validate_hierarchy = config.hierarchy.validate_hierarchy;

  const gdp::hier::Specializer specializer(spec);
  const auto built = specializer.BuildHierarchy(graph, rng);

  OracleSpec draw;
  draw.noise = config.budget.noise;
  draw.epsilon = eps_phase2;
  draw.delta = config.budget.delta;
  draw.include_group_counts = config.exec.include_group_counts;
  draw.grain = config.exec.noise_chunk_grain;
  MultiLevelRelease release =
      OracleRelease(ReleasePlan::Build(graph, built.hierarchy), draw, rng);
  if (config.exec.enforce_consistency) {
    release = EnforceHierarchicalConsistency(built.hierarchy, release);
  }
  return release;
}

// ---------- parity: session == one-shot == seed implementation ----------

TEST(SessionTest, WrapperMatchesSeedImplementationSequential) {
  const BipartiteGraph g = TestGraph();
  for (const std::uint64_t seed : {7u, 11u, 29u}) {
    Rng r1(seed);
    const MultiLevelRelease oracle = ManualOneShot(g, SmallSpec(), r1);
    Rng r2(seed);
    const DisclosureResult wrapped = RunDisclosure(g, SmallSpec(), r2);
    ExpectBitIdentical(oracle, wrapped.release,
                       "seed " + std::to_string(seed));
  }
}

TEST(SessionTest, WrapperMatchesSeedImplementationParallel) {
  const BipartiteGraph g = TestGraph();
  SessionSpec cfg = SmallSpec();
  cfg.exec.num_threads = 2;
  cfg.exec.noise_chunk_grain = 256;  // small enough that level 0 really chunks
  Rng r1(17);
  const MultiLevelRelease oracle = ManualOneShot(g, cfg, r1);
  Rng r2(17);
  const DisclosureResult wrapped = RunDisclosure(g, cfg, r2);
  ExpectBitIdentical(oracle, wrapped.release, "parallel");
}

TEST(SessionTest, ReleaseMatchesRunDisclosureBothPaths) {
  // For every (seed, config), DisclosureSession::Release is bit-identical to
  // RunDisclosure, with and without a pool.
  const BipartiteGraph g = TestGraph();
  for (const bool parallel : {false, true}) {
    SessionSpec cfg = SmallSpec();
    if (parallel) {
      cfg.exec.num_threads = 4;
      cfg.exec.noise_chunk_grain = 256;
    }
    for (const std::uint64_t seed : {5u, 13u}) {
      Rng r1(seed);
      const DisclosureResult oneshot = RunDisclosure(g, cfg, r1);
      Rng r2(seed);
      DisclosureSession session =
          DisclosureSession::Open(g, cfg, r2);
      const MultiLevelRelease rel = session.Release(cfg.budget, r2);
      ExpectBitIdentical(oneshot.release, rel,
                         (parallel ? "parallel seed " : "sequential seed ") +
                             std::to_string(seed));
    }
  }
}

TEST(SessionTest, SecondReleaseWithDifferentEpsilonMatchesFreshOneShot) {
  // ε scales by powers of two with the fraction scaling inversely, so every
  // sweep point's phase-1 budget is bit-equal (0.4·0.25 == 0.8·0.125 == 0.1
  // exactly in binary) and the hierarchies coincide.
  const BipartiteGraph g = TestGraph();
  SessionSpec cfg1 = SmallSpec();
  cfg1.budget.epsilon_g = 0.4;
  cfg1.budget.phase1_fraction = 0.25;
  SessionSpec cfg2 = SmallSpec();
  cfg2.budget.epsilon_g = 0.8;
  cfg2.budget.phase1_fraction = 0.125;

  Rng rs(23);
  DisclosureSession session =
      DisclosureSession::Open(g, cfg1, rs);
  // Post-Open rng state == post-Phase-1 state of any one-shot with the same
  // seed and phase-1 budget; each release resumes from a copy of it.
  Rng r_first = rs;
  const MultiLevelRelease first = session.Release(cfg1.budget, r_first);
  Rng r_second = rs;
  const MultiLevelRelease second =
      session.Release(cfg2.budget, r_second);

  Rng rf1(23);
  const DisclosureResult fresh1 = RunDisclosure(g, cfg1, rf1);
  Rng rf2(23);
  const DisclosureResult fresh2 = RunDisclosure(g, cfg2, rf2);
  ExpectBitIdentical(first, fresh1.release, "first release");
  ExpectBitIdentical(second, fresh2.release, "second release, new eps");
}

TEST(SessionTest, SweepReleasesBitIdenticalToOneShots) {
  // Acceptance: a 4-point ε-sweep through one session, every point
  // bit-identical to the corresponding one-shot RunDisclosure.
  const BipartiteGraph g = TestGraph();
  const double eps_points[] = {0.2, 0.4, 0.8, 1.6};
  const double fractions[] = {0.5, 0.25, 0.125, 0.0625};  // phase-1 ε = 0.1

  SessionSpec cfg0 = SmallSpec();
  cfg0.budget.epsilon_g = eps_points[0];
  cfg0.budget.phase1_fraction = fractions[0];
  Rng rs(41);
  DisclosureSession session =
      DisclosureSession::Open(g, cfg0, rs);
  for (int i = 0; i < 4; ++i) {
    SessionSpec cfg = SmallSpec();
    cfg.budget.epsilon_g = eps_points[i];
    cfg.budget.phase1_fraction = fractions[i];
    Rng r_point = rs;  // every one-shot resumes from the post-Phase-1 state
    const MultiLevelRelease rel = session.Release(cfg.budget, r_point);
    Rng r_fresh(41);
    const DisclosureResult fresh = RunDisclosure(g, cfg, r_fresh);
    ExpectBitIdentical(rel, fresh.release, "sweep point " + std::to_string(i));
  }
  // Phase 1 once + four phase-2 charges.
  EXPECT_EQ(session.ledger().charges().size(), 5u);
}

// ---------- the single-scan guarantee ----------

TEST(SessionTest, FourPointSweepPerformsExactlyOneNodeScan) {
  const BipartiteGraph g = TestGraph();
  SessionSpec cfg = SmallSpec();
  Rng rng(7);
  const std::uint64_t scans_before = gdp::hier::Partition::DegreeSumScanCount();
  DisclosureSession session =
      DisclosureSession::Open(g, cfg, rng);
  std::vector<BudgetSpec> budgets;
  for (const double eps : {0.3, 0.5, 0.7, 0.9}) {
    BudgetSpec b = cfg.budget;
    b.epsilon_g = eps;
    budgets.push_back(b);
  }
  const auto releases = session.Sweep(budgets, rng);
  ASSERT_EQ(releases.size(), 4u);
  for (const auto& rel : releases) {
    EXPECT_EQ(rel.num_levels(), 6);
  }
  EXPECT_EQ(gdp::hier::Partition::DegreeSumScanCount() - scans_before, 1u)
      << "a session sweep must touch the node set exactly once (plan build)";
}

TEST(SessionTest, SweepPointsCarryIndependentNoise) {
  // Same ε at two sweep positions: forked per-point streams must give
  // different draws (no noise reuse across points).
  const BipartiteGraph g = TestGraph();
  SessionSpec cfg = SmallSpec();
  Rng rng(7);
  DisclosureSession session =
      DisclosureSession::Open(g, cfg, rng);
  const std::vector<BudgetSpec> budgets(2, cfg.budget);
  const auto releases = session.Sweep(budgets, rng);
  EXPECT_NE(releases[0].level(2).noisy_total, releases[1].level(2).noisy_total);
}

// ---------- guard rail: typed up-front budget rejection ----------

TEST(SessionTest, ReleaseRejectsUncalibratableBudgetUpFront) {
  const BipartiteGraph g = TestGraph();
  SessionSpec cfg = SmallSpec();
  Rng rng(7);
  DisclosureSession session =
      DisclosureSession::Open(g, cfg, rng);
  const std::size_t charges_before = session.ledger().charges().size();
  const Rng rng_snapshot = rng;

  BudgetSpec bad = cfg.budget;
  bad.epsilon_g = -1.0;
  EXPECT_THROW((void)session.Release(bad, rng), gdp::common::InvalidBudgetError);
  bad = cfg.budget;
  bad.epsilon_g = 0.0;
  EXPECT_THROW((void)session.Release(bad, rng), gdp::common::InvalidBudgetError);
  bad = cfg.budget;
  bad.delta = 0.0;
  EXPECT_THROW((void)session.Release(bad, rng), gdp::common::InvalidBudgetError);
  bad = cfg.budget;
  bad.delta = 1.0;
  EXPECT_THROW((void)session.Release(bad, rng), gdp::common::InvalidBudgetError);
  bad = cfg.budget;
  bad.phase1_fraction = 1.0;  // leaves zero phase-2 budget
  EXPECT_THROW((void)session.Release(bad, rng), gdp::common::InvalidBudgetError);
  bad = cfg.budget;
  bad.phase1_fraction = -0.2;
  EXPECT_THROW((void)session.Release(bad, rng), gdp::common::InvalidBudgetError);

  // Rejected before any draw or charge: ledger untouched, rng untouched.
  EXPECT_EQ(session.ledger().charges().size(), charges_before);
  Rng control = rng_snapshot;
  const MultiLevelRelease after_failures =
      session.Release(cfg.budget, rng);
  DisclosureSession control_session = [&] {
    Rng open_rng(7);
    return DisclosureSession::Open(g, cfg, open_rng);
  }();
  const MultiLevelRelease control_release =
      control_session.Release(cfg.budget, control);
  ExpectBitIdentical(after_failures, control_release,
                     "release after rejected budgets");
}

TEST(SessionTest, SweepRejectsWholeBatchOnOneBadPoint) {
  const BipartiteGraph g = TestGraph();
  SessionSpec cfg = SmallSpec();
  Rng rng(7);
  DisclosureSession session =
      DisclosureSession::Open(g, cfg, rng);
  std::vector<BudgetSpec> budgets(3, cfg.budget);
  budgets[2].delta = -1.0;  // the LAST point is bad
  const std::size_t charges_before = session.ledger().charges().size();
  EXPECT_THROW((void)session.Sweep(budgets, rng),
               gdp::common::InvalidBudgetError);
  // Nothing was drawn or charged for the two good points either.
  EXPECT_EQ(session.ledger().charges().size(), charges_before);
}

TEST(SessionTest, InvalidBudgetErrorIsAnInvalidArgument) {
  // Pre-session callers catch std::invalid_argument; the typed error must
  // still satisfy them.
  const gdp::common::InvalidBudgetError err("x");
  const std::invalid_argument* base = &err;
  EXPECT_NE(base, nullptr);
}

// ---------- ledger across the session lifetime ----------

TEST(SessionTest, LedgerAccumulatesPerReleaseWithLabels) {
  const BipartiteGraph g = TestGraph();
  SessionSpec cfg = SmallSpec();
  Rng rng(7);
  DisclosureSession session =
      DisclosureSession::Open(g, cfg, rng);
  ASSERT_EQ(session.ledger().charges().size(), 1u);  // phase 1
  EXPECT_NE(session.ledger().charges()[0].label.find("phase1"),
            std::string::npos);
  (void)session.Release(cfg.budget, rng);
  (void)session.Release(cfg.budget, rng, "custom audit label");
  ASSERT_EQ(session.ledger().charges().size(), 3u);
  EXPECT_EQ(session.ledger().charges()[2].label, "custom audit label");
  EXPECT_EQ(session.num_releases(), 2);
  const double expected =
      session.phase1_epsilon_spent() + 2.0 * cfg.budget.phase2_epsilon();
  EXPECT_NEAR(session.ledger().epsilon_spent(), expected, 1e-12);
}

TEST(SessionTest, ReleaseBeyondSessionCapThrowsBeforeDrawing) {
  const BipartiteGraph g = TestGraph();
  SessionSpec cfg = SmallSpec();
  SessionSpec spec = cfg;
  // Grant covers phase 1 plus exactly one release.
  spec.epsilon_cap =
      spec.budget.phase1_epsilon() + spec.budget.phase2_epsilon();
  Rng rng(7);
  DisclosureSession session = DisclosureSession::Open(g, spec, rng);
  (void)session.Release(rng);
  const Rng rng_snapshot = rng;
  EXPECT_THROW((void)session.Release(rng), gdp::common::BudgetExhaustedError);
  // The over-cap attempt drew nothing.
  Rng expected = rng_snapshot;
  EXPECT_EQ(rng(), expected());
}

TEST(SessionTest, SweepBeyondGrantRejectsWholeBatchAtomically) {
  // A sweep the session grant cannot cover must fail BEFORE the first draw,
  // not mid-batch with some points already drawn and charged.
  const BipartiteGraph g = TestGraph();
  SessionSpec cfg = SmallSpec();
  SessionSpec spec = cfg;
  // Grant covers phase 1 plus two releases; ask for three.
  spec.epsilon_cap =
      spec.budget.phase1_epsilon() + 2.0 * spec.budget.phase2_epsilon();
  Rng rng(7);
  DisclosureSession session = DisclosureSession::Open(g, spec, rng);
  const std::vector<BudgetSpec> budgets(3, cfg.budget);
  const std::size_t charges_before = session.ledger().charges().size();
  const Rng rng_snapshot = rng;
  EXPECT_THROW((void)session.Sweep(budgets, rng),
               gdp::common::BudgetExhaustedError);
  EXPECT_EQ(session.ledger().charges().size(), charges_before);
  Rng expected = rng_snapshot;
  EXPECT_EQ(rng(), expected());
  // The two-point sweep the grant covers still goes through.
  const std::vector<BudgetSpec> affordable(2, cfg.budget);
  EXPECT_EQ(session.Sweep(affordable, rng).size(), 2u);
}

TEST(SessionTest, AnswerLabelsAreUniquePerCall) {
  const BipartiteGraph g = TestGraph();
  SessionSpec cfg = SmallSpec();
  Rng rng(7);
  DisclosureSession session =
      DisclosureSession::Open(g, cfg, rng);
  const std::vector<QuerySpec> queries(1);  // association count
  (void)session.Answer(queries, 2, cfg.budget, rng);
  (void)session.Answer(queries, 2, cfg.budget, rng);
  const auto& charges = session.ledger().charges();
  ASSERT_EQ(charges.size(), 3u);
  EXPECT_NE(charges[1].label.find("answer[0]"), std::string::npos);
  EXPECT_NE(charges[2].label.find("answer[1]"), std::string::npos);
}

TEST(SessionTest, SweepLabelsAreSweepTagged) {
  const BipartiteGraph g = TestGraph();
  SessionSpec cfg = SmallSpec();
  Rng rng(7);
  DisclosureSession session =
      DisclosureSession::Open(g, cfg, rng);
  std::vector<BudgetSpec> budgets(2, cfg.budget);
  (void)session.Sweep(budgets, rng);
  const auto& charges = session.ledger().charges();
  ASSERT_EQ(charges.size(), 3u);
  EXPECT_NE(charges[1].label.find("sweep[0]"), std::string::npos);
  EXPECT_NE(charges[2].label.find("sweep[1]"), std::string::npos);
}

// ---------- drilldown / answer / post-processing through the session ------

TEST(SessionTest, DrilldownMatchesDirectDrillDown) {
  const BipartiteGraph g = TestGraph();
  SessionSpec cfg = SmallSpec();
  Rng rng(31);
  DisclosureSession session =
      DisclosureSession::Open(g, cfg, rng);
  const MultiLevelRelease rel = session.Release(rng);
  const auto via_session =
      session.Drilldown(rel, gdp::graph::Side::kLeft, 42, 5, 1);
  const gdp::hier::HierarchyIndex index(session.hierarchy());
  const auto direct = DrillDown(rel, index, gdp::graph::Side::kLeft, 42, 5, 1);
  ASSERT_EQ(via_session.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(via_session[i].level, direct[i].level);
    EXPECT_EQ(via_session[i].group, direct[i].group);
    EXPECT_EQ(via_session[i].noisy_count, direct[i].noisy_count);
  }
}

// tests/data/golden_answer.tsv holds one line per answered query,
//   noise  level  query  sensitivity  sigma  n  truth[n]  noisy[n]
// (17 significant digits), written by the query layer that computed every
// value from the graph before Answer read the compiled plan.  Setup: the
// graph, spec, seeds and queries below.
struct GoldenAnswer {
  std::string noise;
  int level{0};
  std::string query;
  double sensitivity{0.0};
  double sigma{0.0};
  std::vector<double> truth;
  std::vector<double> noisy;
};

std::vector<GoldenAnswer> ReadGoldenAnswers() {
  std::ifstream in(std::string(GDP_TEST_DATA_DIR) + "/golden_answer.tsv");
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "gdp-answer v1");
  std::vector<GoldenAnswer> out;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    GoldenAnswer a;
    std::string token;
    std::size_t n = 0;
    fields >> a.noise >> a.level >> a.query >> token;
    a.sensitivity = std::strtod(token.c_str(), nullptr);
    fields >> token >> n;
    a.sigma = std::strtod(token.c_str(), nullptr);
    for (std::vector<double>* column : {&a.truth, &a.noisy}) {
      for (std::size_t i = 0; i < n && fields >> token; ++i) {
        column->push_back(std::strtod(token.c_str(), nullptr));
      }
    }
    out.push_back(std::move(a));
  }
  return out;
}

TEST(SessionTest, AnswerMatchesGoldenAnswersAndChargesLedger) {
  Rng graph_rng(3);
  gdp::graph::DblpLikeParams p;
  p.num_left = 300;
  p.num_right = 400;
  p.num_edges = 2000;
  const BipartiteGraph g = GenerateDblpLike(p, graph_rng);
  SessionSpec cfg;
  cfg.hierarchy.depth = 4;
  cfg.hierarchy.arity = 4;
  Rng rng(7);
  DisclosureSession session = DisclosureSession::Open(g, cfg, rng);
  std::vector<QuerySpec> queries(4);
  queries[1].kind = QuerySpec::Kind::kGroupCount;
  queries[2].kind = QuerySpec::Kind::kDegreeHistogram;
  queries[2].side = gdp::graph::Side::kLeft;
  queries[2].max_degree = 6;
  queries[3] = queries[2];
  queries[3].side = gdp::graph::Side::kRight;

  const std::vector<GoldenAnswer> golden = ReadGoldenAnswers();
  ASSERT_EQ(golden.size(), 5u * 2u * queries.size());
  std::size_t next = 0;
  for (const NoiseKind kind :
       {NoiseKind::kGaussian, NoiseKind::kAnalyticGaussian, NoiseKind::kLaplace,
        NoiseKind::kDiscreteGaussian, NoiseKind::kGeometric}) {
    for (const int level : {1, 3}) {
      const BudgetSpec budget{0.9, 1e-5, 0.1, kind};
      Rng answer_rng(2018 + static_cast<std::uint64_t>(level));
      const std::size_t charges_before = session.ledger().charges().size();
      const auto results = session.Answer(queries, level, budget, answer_rng);
      ASSERT_EQ(results.size(), queries.size());
      for (const QueryResult& r : results) {
        const GoldenAnswer& want = golden[next++];
        const std::string where =
            want.noise + " L" + std::to_string(want.level) + " " + want.query;
        EXPECT_EQ(want.noise, NoiseKindName(kind)) << where;
        EXPECT_EQ(want.level, level) << where;
        EXPECT_EQ(r.query_name, want.query) << where;
        EXPECT_EQ(r.sensitivity, want.sensitivity) << where;
        EXPECT_EQ(r.noise_stddev, want.sigma) << where;
        EXPECT_EQ(r.truth, want.truth) << where;
        EXPECT_EQ(r.noisy, want.noisy) << where;
      }
      // One charge per Answer: k queries at (ε₂, δ) compose to (k·ε₂, k·δ).
      ASSERT_EQ(session.ledger().charges().size(), charges_before + 1);
      const auto& charge = session.ledger().charges().back();
      EXPECT_DOUBLE_EQ(charge.epsilon, 4.0 * budget.phase2_epsilon());
      EXPECT_DOUBLE_EQ(charge.delta, 4.0 * budget.delta);
    }
  }
}

TEST(SessionTest, AnswerRejectsBadLevelWithoutChargingLedger) {
  const BipartiteGraph g = TestGraph();
  SessionSpec cfg = SmallSpec();
  Rng rng(7);
  DisclosureSession session =
      DisclosureSession::Open(g, cfg, rng);
  const std::vector<QuerySpec> queries(1);  // association count
  const std::size_t charges_before = session.ledger().charges().size();
  EXPECT_THROW((void)session.Answer(queries, 99, cfg.budget, rng),
               std::out_of_range);
  EXPECT_THROW((void)session.Answer(queries, -1, cfg.budget, rng),
               std::out_of_range);
  EXPECT_EQ(session.ledger().charges().size(), charges_before)
      << "a rejected Answer must not leave phantom spend on the ledger";
}

TEST(SessionTest, OpenRejectsBadCapsBeforePhase1) {
  const BipartiteGraph g = TestGraph();
  SessionSpec cfg = SmallSpec();
  SessionSpec spec = cfg;
  spec.epsilon_cap = 0.0;
  Rng rng(7);
  const Rng rng_snapshot = rng;
  EXPECT_THROW((void)DisclosureSession::Open(g, spec, rng),
               std::invalid_argument);
  spec = cfg;
  spec.delta_cap = 1.0;
  EXPECT_THROW((void)DisclosureSession::Open(g, spec, rng),
               std::invalid_argument);
  // Rejected before Phase 1 consumed any randomness.
  Rng expected = rng_snapshot;
  EXPECT_EQ(rng(), expected());
}

TEST(SessionTest, ConsistencySessionReleasesAreConsistent) {
  const BipartiteGraph g = TestGraph();
  SessionSpec cfg = SmallSpec();
  cfg.exec.enforce_consistency = true;
  Rng rng(21);
  DisclosureSession session =
      DisclosureSession::Open(g, cfg, rng);
  for (int i = 0; i < 2; ++i) {
    const MultiLevelRelease rel = session.Release(rng);
    EXPECT_TRUE(IsHierarchicallyConsistent(session.hierarchy(), rel, 1e-6));
  }
}

TEST(SessionTest, OpenRejectsConsistencyWithoutGroupCounts) {
  const BipartiteGraph g = TestGraph();
  SessionSpec cfg = SmallSpec();
  cfg.exec.enforce_consistency = true;
  cfg.exec.include_group_counts = false;
  Rng rng(23);
  EXPECT_THROW((void)DisclosureSession::Open(g, cfg, rng),
               std::invalid_argument);
}

TEST(SessionTest, ParallelSessionInvariantAcrossThreadCounts) {
  const BipartiteGraph g = TestGraph();
  SessionSpec cfg = SmallSpec();
  cfg.exec.noise_chunk_grain = 256;
  std::vector<MultiLevelRelease> releases;
  for (const int threads : {1, 2, 8}) {
    cfg.exec.num_threads = threads;
    Rng rng(7);
    DisclosureSession session = DisclosureSession::Open(g, cfg, rng);
    releases.push_back(session.Release(rng));
  }
  ExpectBitIdentical(releases[0], releases[1], "1 vs 2 threads");
  ExpectBitIdentical(releases[0], releases[2], "1 vs 8 threads");
}

TEST(SessionTest, SessionIsMovable) {
  const BipartiteGraph g = TestGraph();
  SessionSpec cfg = SmallSpec();
  Rng rng(7);
  DisclosureSession session =
      DisclosureSession::Open(g, cfg, rng);
  DisclosureSession moved = std::move(session);
  const MultiLevelRelease rel = moved.Release(rng);
  EXPECT_EQ(rel.num_levels(), 6);
  EXPECT_EQ(moved.num_releases(), 1);
}

}  // namespace
}  // namespace gdp::core
