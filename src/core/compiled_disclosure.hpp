// CompiledDisclosure: the shared immutable artifact a multi-tenant service
// caches, extracted from DisclosureSession.
//
// The expensive prefix of the two-phase disclosure — Phase-1 EM
// specialization and the ReleasePlan's single node scan — depends only on
// (graph, hierarchy spec, opening budget, seed), never on who is asking.
// CompiledDisclosure is exactly that prefix, compiled once and frozen:
// hierarchy, plan, a thread-safe mechanism cache, and a race-free lazy
// HierarchyIndex.  One artifact serves every tenant of a dataset; the
// per-tenant state (ledger, counters) lives in DisclosureSession, which is
// now a thin view over a shared_ptr<const CompiledDisclosure>.
//
// THREAD SAFETY: every public const method is safe to call concurrently from
// any number of threads.  Mutation is confined to (a) the caller's per-call
// Rng — never shared between concurrent callers — and (b) two internally
// synchronized caches: the MechanismCache (mutex-guarded) and the lazily
// materialised HierarchyIndex (std::call_once).  The owned ThreadPool, when
// the exec spec requests one, accepts concurrent ParallelForChunked calls by
// design (each call carries its own completion state).  Concurrent releases
// are bit-identical to sequential ones under the same per-call Rng states —
// scheduling can never leak into results because no randomness flows through
// shared state.
//
// OWNERSHIP: Compile returns a shared_ptr; tenants, registries, and in-flight
// requests share it.  A registry evicting its reference never invalidates a
// tenant mid-request — the artifact lives until the last handle drops.  The
// graph must outlive the artifact (an Answer's degree histograms read it;
// everything else comes from the plan).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/drilldown.hpp"
#include "core/group_dp_engine.hpp"
#include "core/release.hpp"
#include "core/release_plan.hpp"
#include "hier/navigation.hpp"
#include "hier/specialization.hpp"

namespace gdp::common {
class ThreadPool;
}  // namespace gdp::common

namespace gdp::core {

// What Phase 1 builds.  Fixed for the artifact's lifetime.
struct HierarchySpec {
  // Hierarchy shape (paper: depth 9, arity 4).
  int depth{9};
  int arity{4};
  gdp::hier::SplitQuality split_quality{gdp::hier::SplitQuality::kEdgeBalance};
  int max_cut_candidates{63};
  // Skip the O(V·depth) refinement re-validation (huge-graph benches only).
  bool validate_hierarchy{true};
};

// What one release spends.  Reusable across arbitrary ε/δ/noise settings;
// every Release call takes its own.
struct BudgetSpec {
  // Total per-level privacy target εg for the release this spec describes.
  double epsilon_g{0.999};
  double delta{1e-5};
  // Fraction of εg attributed to Phase-1 specialization.  At Compile the
  // artifact spends phase1_epsilon() of its opening budget on the EM build;
  // a later Release's own fraction merely apportions that release's εg
  // (phase2_epsilon() is what its noise consumes).  0 means "this εg is all
  // Phase 2"; must be < 1 so a release always has noise budget.
  double phase1_fraction{0.1};
  NoiseKind noise{NoiseKind::kGaussian};

  [[nodiscard]] double phase1_epsilon() const noexcept {
    return epsilon_g * phase1_fraction;
  }
  [[nodiscard]] double phase2_epsilon() const noexcept {
    return epsilon_g - phase1_epsilon();
  }
};

// How work is executed and post-processed.  Fixed for the artifact's
// lifetime; none of it is privacy-relevant (the grain is part of the output
// contract, consistency/clamping are post-processing).
struct ExecSpec {
  // Worker threads of the artifact's release pool.  1 (default) runs every
  // release on the calling thread; any other value builds an owned
  // ThreadPool at Compile whose workers draw each release's level and chunk
  // noise; 0 selects the hardware concurrency.  Must be in
  // [0, common::kMaxThreadCount].  The compile itself (Phase 1 and the plan
  // build) always runs on the calling thread.  Wall time only: the released
  // values are bit-identical at every thread count.
  int num_threads{1};
  // Groups per chunk of a level's vector noise draw (GroupDpEngine's one
  // draw order).  Part of the output contract: one RNG substream per chunk,
  // so changing it changes the released values; thread count never does.
  std::size_t noise_chunk_grain{8192};
  // Also release per-group noisy counts at every level.
  bool include_group_counts{true};
  // Post-process the release so parent counts equal their children's sums
  // (GLS tree consistency; requires include_group_counts).
  bool enforce_consistency{false};
  // Post-processing: clamp noisy counts at 0.
  bool clamp_nonnegative{false};
};

// Everything a compile/open needs: the one-time specs plus the opening
// budget (whose phase1_epsilon() the EM build spends) and the default ledger
// caps a tenant handle receives when none are supplied.
struct SessionSpec {
  HierarchySpec hierarchy;
  // Opening budget: phase1_epsilon() is spent at Compile; the remainder is
  // the default Release budget for callers that don't pass their own.
  BudgetSpec budget;
  ExecSpec exec;
  // Cumulative per-tenant grant enforced by each handle's ledger
  // (BudgetExhaustedError on overrun).  Defaults are effectively "audit
  // only"; a deployment sets the real grant.  epsilon_cap must be finite and
  // > 0, delta_cap in [0, 1).
  double epsilon_cap{1e6};
  double delta_cap{0.5};
  // How each tenant handle's ledger composes its charges (the DEFAULT for
  // handles attached without their own policy): kSequential is the
  // historical (Σε, Σδ) bound, bit-identical to the pre-accountant ledger;
  // kAdvanced / kRdp compose tighter from the mechanism-level events the
  // session threads through (see docs/ACCOUNTING.md) and require
  // delta_cap > 0.
  gdp::dp::AccountingPolicy accounting{gdp::dp::AccountingPolicy::kSequential};
  // Opt-in strict reading of the cross-level caveat in docs/ACCOUNTING.md:
  // when true, ChargeEventFor multiplies the hierarchy width back into the
  // charge (count = num_levels, parallel_width = 1), so one release is
  // accounted as num_levels sequential mechanisms instead of one
  // parallel-composed event.  The paper's per-level reading (the default)
  // relies on the levels being released over the same partition tree; a
  // deployment that does not want to lean on that argument pays the
  // sequential price here.  NOT part of the artifact fingerprint — it
  // changes what a release CHARGES, never what it RELEASES, so artifacts
  // compiled either way are interchangeable bits.
  bool strict_level_charging{false};
};

// Shape validation of the (ε, δ, fraction) triple alone, independent of any
// plan's sensitivities.  Throws gdp::common::InvalidBudgetError.  Shared by
// every budget-consuming entry point.
void ValidateBudgetShape(const BudgetSpec& budget);

// One query of an Answer, named by its shape.  The level is the caller's
// argument (a served tenant's comes from its tier, never from the request).
struct QuerySpec {
  enum class Kind : std::uint8_t {
    kAssociationCount = 0,  // |E|: the level's total
    kGroupCount = 1,        // per-group counts at the level
    kDegreeHistogram = 2,   // side + max_degree below
  };
  Kind kind{Kind::kAssociationCount};
  gdp::graph::Side side{gdp::graph::Side::kLeft};
  std::size_t max_degree{8};
};

// One answered query: the Δ its noise was calibrated to, the noise σ and its
// values.  A published answer is the name, σ and noisy values only.
struct QueryResult {
  std::string query_name;
  double sensitivity{0.0};
  double noise_stddev{0.0};
  std::vector<double> truth;  // evaluation-only
  std::vector<double> noisy;
};

// The most bins (max_degree + 2) one degree histogram may have: 4 Mi f64s,
// 32 MiB — no larger histogram fits one network reply frame.
inline constexpr std::size_t kMaxHistogramBins = std::size_t{1} << 22;

// Shape validation of a query list: throws std::invalid_argument on an
// unknown kind or side, or a degree histogram with max_degree 0 or more than
// kMaxHistogramBins bins.  Every Answer entry point runs it before anything
// is charged, and the network decoder runs it on every Answer request.
void ValidateQueries(std::span<const QuerySpec> queries);

// The name an Answer gives `q`'s result: association_count, group_counts or
// degree_histogram_left / degree_histogram_right.
[[nodiscard]] std::string QueryName(const QuerySpec& q);

class CompiledDisclosure {
 public:
  // Run Phase 1 once (EM specialization under spec.budget.phase1_epsilon()),
  // build the ReleasePlan once, both on the calling thread, and freeze the
  // result with the release pool spec.exec asks for.  `graph` must
  // outlive the artifact.  Deterministic given `rng` state — consumes
  // exactly the draws the one-shot pipeline's Phase 1 consumed.  The
  // spec's caps are validated here (they are the default tenant grant) even
  // though the artifact itself holds no ledger, so a bad grant cannot cost
  // an EM build first.
  [[nodiscard]] static std::shared_ptr<const CompiledDisclosure> Compile(
      const gdp::graph::BipartiteGraph& graph, const SessionSpec& spec,
      gdp::common::Rng& rng);

  // Adopt a hierarchy + plan that were compiled earlier (typically loaded
  // from a GDPSNAP01 snapshot): skip Phase-1 EM and the node scan entirely,
  // run the same spec validation as Compile, and verify the pieces agree
  // with each other and the graph (level counts, per-level group counts,
  // edge count) — throws std::invalid_argument on mismatch.  The caller
  // vouches that (hierarchy, plan, phase1_epsilon_spent) really came from a
  // compile under `spec` + some seed; SessionRegistry enforces that with
  // its fingerprint discipline before calling this.  Given that, the
  // artifact serves releases bit-identical to the one Compile would have
  // produced (snapshot_test pins this).  `graph` must outlive the artifact.
  [[nodiscard]] static std::shared_ptr<const CompiledDisclosure> FromPrecompiled(
      const gdp::graph::BipartiteGraph& graph, const SessionSpec& spec,
      gdp::hier::GroupHierarchy hierarchy, ReleasePlan plan,
      double phase1_epsilon_spent);

  // Pinned by shared_ptr; never copied or moved (it owns a mutex-guarded
  // cache and a once_flag).
  CompiledDisclosure(const CompiledDisclosure&) = delete;
  CompiledDisclosure& operator=(const CompiledDisclosure&) = delete;
  ~CompiledDisclosure();

  // One multi-level release under `budget`, drawn from `rng`, with zero
  // graph scans.  Validates the budget (InvalidBudgetError) before any noise
  // is drawn.  No ledger is touched — budget accounting is the tenant
  // handle's job.  Safe to call concurrently (each caller brings its own
  // Rng).
  [[nodiscard]] MultiLevelRelease Release(const BudgetSpec& budget,
                                          gdp::common::Rng& rng) const;

  // Drill-down over a release produced by (or shaped like) this artifact's
  // hierarchy.  Pure post-processing — no privacy cost.  The HierarchyIndex
  // is materialised on first use under std::call_once, so concurrent first
  // calls race-freely build it exactly once.
  [[nodiscard]] std::vector<DrillDownEntry> Drilldown(
      const MultiLevelRelease& release, gdp::hier::Side side,
      gdp::hier::NodeIndex v, int max_level, int min_level) const;

  // Answer `queries` at hierarchy `level` under `budget` (no ledger charge —
  // see DisclosureSession::Answer), every calibration through the shared
  // MechanismCache at (budget.noise, phase2_epsilon, delta, Δ):
  //   association_count   the plan's |E|, at Δ = Δℓ;
  //   group_counts        the plan's level-ℓ group sums, at √2·Δℓ;
  //   degree_histogram_*  bin d counts the side's nodes of degree d, the last
  //                       bin those above max_degree, at Δ = max over groups
  //                       of (size + 2·sum): removing a group moves each
  //                       member out of its bin and, per incident edge, one
  //                       neighbour between bins.  The one query that reads
  //                       the graph.
  // Queries draw in list order from `rng`, each vector through
  // AddChunkedNoise at the exec spec's grain, so {association_count,
  // group_counts} at ℓ equals the level-ℓ total and group counts Release
  // draws from the same level stream.  A query whose Δ is 0 (edgeless
  // graph) is released exactly.
  [[nodiscard]] std::vector<QueryResult> Answer(
      std::span<const QuerySpec> queries, int level, const BudgetSpec& budget,
      gdp::common::Rng& rng) const;

  // Reject a budget that cannot calibrate its mechanisms: phase fraction
  // outside [0, 1), non-positive phase-2 ε, δ outside (0, 1), or a
  // calibration failure at any level's sensitivity.  Throws
  // InvalidBudgetError; successful validations warm the shared mechanism
  // cache, so Release pays nothing extra for the check.
  void ValidateBudget(const BudgetSpec& budget) const;

  // Throws std::out_of_range when `level` is not a level of this hierarchy.
  void CheckLevel(int level, const char* where) const;

  // The mechanism-level accounting event ONE Release under `budget` charges:
  // kind and noise multiplier from the budget's noise configuration, the
  // claimed (ε, δ) = (phase2_epsilon, delta), parallel_width = the number of
  // hierarchy levels the charge spans.  Requires a shape-valid budget (same
  // InvalidBudgetError taxonomy as ValidateBudget).
  [[nodiscard]] gdp::dp::MechanismEvent ChargeEventFor(
      const BudgetSpec& budget) const;

  [[nodiscard]] const SessionSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] const gdp::graph::BipartiteGraph& graph() const noexcept {
    return *graph_;
  }
  [[nodiscard]] const gdp::hier::GroupHierarchy& hierarchy() const noexcept {
    return hierarchy_;
  }
  [[nodiscard]] const ReleasePlan& plan() const noexcept { return plan_; }
  // The navigation index, built on first use (thread-safe).
  [[nodiscard]] const gdp::hier::HierarchyIndex& index() const;
  // Actual Phase-1 ε consumed at Compile ((depth-1)·ε-per-transition; may
  // differ from phase1_epsilon() in the last bit of fp rounding).  Tenant
  // handles charge this to their ledgers at Attach.
  [[nodiscard]] double phase1_epsilon_spent() const noexcept {
    return phase1_epsilon_spent_;
  }

 private:
  // DisclosureSession is the trusted handle: it uses the pre-validated draw
  // path below (it has already run ValidateBudget before charging its
  // ledger) and TakeHierarchy's sole-owner move-out.
  friend class DisclosureSession;

  // Release body without the validation pass.  Callers must have validated
  // `budget` against this artifact first.
  [[nodiscard]] MultiLevelRelease DrawRelease(const BudgetSpec& budget,
                                              gdp::common::Rng& rng) const;

  CompiledDisclosure(const gdp::graph::BipartiteGraph& graph, SessionSpec spec,
                     gdp::hier::GroupHierarchy hierarchy, ReleasePlan plan,
                     std::unique_ptr<gdp::common::ThreadPool> pool,
                     double phase1_spent);

  const gdp::graph::BipartiteGraph* graph_;
  SessionSpec spec_;
  gdp::hier::GroupHierarchy hierarchy_;
  ReleasePlan plan_;
  std::unique_ptr<gdp::common::ThreadPool> pool_;  // null at num_threads == 1
  // One calibration cache for the artifact's lifetime, shared by every
  // tenant: repeated releases at an already-seen (kind, ε, δ, Δ) skip
  // calibration.  Internally mutex-guarded.
  mutable MechanismCache mech_cache_;
  // Lazy drilldown index; call_once makes the first concurrent builds race
  // a single construction.
  mutable std::once_flag index_once_;
  mutable std::unique_ptr<gdp::hier::HierarchyIndex> index_;
  double phase1_epsilon_spent_{0.0};
};

}  // namespace gdp::core
