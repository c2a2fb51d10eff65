#include "core/compiled_disclosure.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "core/consistency.hpp"

namespace gdp::core {

void ValidateBudgetShape(const BudgetSpec& budget) {
  if (!(budget.phase1_fraction >= 0.0) || !(budget.phase1_fraction < 1.0)) {
    throw gdp::common::InvalidBudgetError(
        "BudgetSpec: phase1_fraction must be in [0, 1), got " +
        std::to_string(budget.phase1_fraction));
  }
  try {
    (void)gdp::dp::Epsilon(budget.epsilon_g);
    (void)gdp::dp::Epsilon(budget.phase2_epsilon());
    // Every engine config validates δ regardless of noise kind (pure-ε
    // mechanisms simply ignore it), so the artifact does too.
    (void)gdp::dp::Delta(budget.delta);
  } catch (const std::invalid_argument& e) {
    throw gdp::common::InvalidBudgetError(std::string("BudgetSpec: ") +
                                          e.what());
  }
}

void ValidateQueries(std::span<const QuerySpec> queries) {
  for (const QuerySpec& q : queries) {
    if (q.kind > QuerySpec::Kind::kDegreeHistogram ||
        q.side > gdp::graph::Side::kRight) {
      throw std::invalid_argument(
          "QuerySpec: unknown query kind " +
          std::to_string(static_cast<int>(q.kind)) + " or side " +
          std::to_string(static_cast<int>(q.side)));
    }
    if (q.kind == QuerySpec::Kind::kDegreeHistogram &&
        (q.max_degree == 0 || q.max_degree > kMaxHistogramBins - 2)) {
      throw std::invalid_argument(
          "QuerySpec: degree histogram max_degree must be in [1, " +
          std::to_string(kMaxHistogramBins - 2) + "], got " +
          std::to_string(q.max_degree));
    }
  }
}

std::string QueryName(const QuerySpec& q) {
  if (q.kind == QuerySpec::Kind::kDegreeHistogram) {
    return std::string("degree_histogram_") + gdp::graph::SideName(q.side);
  }
  return q.kind == QuerySpec::Kind::kGroupCount ? "group_counts"
                                                : "association_count";
}

CompiledDisclosure::~CompiledDisclosure() = default;

namespace {

// Shared precondition check of Compile and FromPrecompiled: both paths
// produce an artifact frozen under `spec`, so both must reject the same
// malformed specs up front (a bad default grant must not cost an EM build —
// or a snapshot load — first).
void ValidateSpecForCompile(const SessionSpec& spec, const char* where) {
  // Opening budget: Phase 1 must receive a usable EM budget, and the
  // remainder must be a releasable Phase-2 budget (same constraint the
  // one-shot pipeline enforced as phase1_fraction in (0, 1)).
  if (!(spec.budget.phase1_fraction > 0.0) ||
      !(spec.budget.phase1_fraction < 1.0)) {
    throw std::invalid_argument(std::string(where) +
                                ": opening phase1_fraction must be in (0, 1)");
  }
  (void)gdp::dp::Epsilon(spec.budget.epsilon_g);
  if (spec.exec.enforce_consistency && !spec.exec.include_group_counts) {
    throw std::invalid_argument(
        std::string(where) +
        ": enforce_consistency requires include_group_counts");
  }
  if (spec.exec.noise_chunk_grain == 0) {
    throw std::invalid_argument(std::string(where) +
                                ": noise_chunk_grain must be > 0");
  }
  // The release pool starts this many OS threads.
  if (spec.exec.num_threads < 0 ||
      spec.exec.num_threads > gdp::common::kMaxThreadCount) {
    throw std::invalid_argument(
        std::string(where) + ": num_threads must be in [0, " +
        std::to_string(gdp::common::kMaxThreadCount) + "], got " +
        std::to_string(spec.exec.num_threads));
  }
  // Cap shape (the tenant ledger constructor enforces the same rules, but
  // that runs AFTER Phase 1 — a bad default grant must not cost an EM build
  // and a node scan on a large graph first).
  if (!(spec.epsilon_cap > 0.0) || !std::isfinite(spec.epsilon_cap)) {
    throw std::invalid_argument(std::string(where) +
                                ": epsilon_cap must be finite and > 0");
  }
  if (!(spec.delta_cap >= 0.0) || !(spec.delta_cap < 1.0)) {
    throw std::invalid_argument(std::string(where) +
                                ": delta_cap must be in [0, 1)");
  }
  if (spec.accounting != gdp::dp::AccountingPolicy::kSequential &&
      !(spec.delta_cap > 0.0)) {
    throw std::invalid_argument(
        std::string(where) + ": the " +
        gdp::dp::AccountingPolicyName(spec.accounting) +
        " accounting policy requires delta_cap > 0");
  }
}

// The artifact's release pool: none at num_threads == 1, so that setting
// draws every release on the calling thread.
std::unique_ptr<gdp::common::ThreadPool> PoolFor(const ExecSpec& exec) {
  if (exec.num_threads == 1) {
    return nullptr;
  }
  return std::make_unique<gdp::common::ThreadPool>(exec.num_threads);
}

}  // namespace

std::shared_ptr<const CompiledDisclosure> CompiledDisclosure::Compile(
    const gdp::graph::BipartiteGraph& graph, const SessionSpec& spec,
    gdp::common::Rng& rng) {
  ValidateSpecForCompile(spec, "CompiledDisclosure::Compile");

  const double eps_phase1 = spec.budget.phase1_epsilon();
  const int transitions = spec.hierarchy.depth - 1;

  gdp::hier::SpecializationConfig em;
  em.depth = spec.hierarchy.depth;
  em.arity = spec.hierarchy.arity;
  em.epsilon_per_level =
      transitions > 0 ? eps_phase1 / static_cast<double>(transitions)
                      : eps_phase1;
  em.quality = spec.hierarchy.split_quality;
  em.max_cut_candidates = spec.hierarchy.max_cut_candidates;
  em.validate_hierarchy = spec.hierarchy.validate_hierarchy;

  // Phase 1 and the plan build run on the calling thread; the Specializer
  // refuses a bad config (a depth past kMaxHierarchyDepth included) before
  // it starts.  The pool serves the releases only.
  const gdp::hier::Specializer specializer(em);
  gdp::hier::SpecializationResult built = specializer.BuildHierarchy(graph, rng);
  ReleasePlan plan = ReleasePlan::Build(graph, built.hierarchy);

  // Not make_shared: the constructor is private and the control block
  // indirection is irrelevant next to the artifact's payload.
  return std::shared_ptr<const CompiledDisclosure>(new CompiledDisclosure(
      graph, spec, std::move(built.hierarchy), std::move(plan),
      PoolFor(spec.exec), built.epsilon_spent));
}

std::shared_ptr<const CompiledDisclosure> CompiledDisclosure::FromPrecompiled(
    const gdp::graph::BipartiteGraph& graph, const SessionSpec& spec,
    gdp::hier::GroupHierarchy hierarchy, ReleasePlan plan,
    double phase1_epsilon_spent) {
  ValidateSpecForCompile(spec, "CompiledDisclosure::FromPrecompiled");
  if (!(phase1_epsilon_spent >= 0.0) || !std::isfinite(phase1_epsilon_spent)) {
    throw std::invalid_argument(
        "CompiledDisclosure::FromPrecompiled: phase1_epsilon_spent must be "
        "finite and >= 0");
  }
  // The three pieces must describe the same dataset: the release path
  // indexes the plan by the hierarchy's levels/groups, and an Answer's
  // degree histograms read the graph beside them.
  if (hierarchy.level(0).num_left_nodes() != graph.num_left() ||
      hierarchy.level(0).num_right_nodes() != graph.num_right()) {
    throw std::invalid_argument(
        "CompiledDisclosure::FromPrecompiled: hierarchy node counts do not "
        "match the graph");
  }
  if (plan.num_levels() != hierarchy.num_levels()) {
    throw std::invalid_argument(
        "CompiledDisclosure::FromPrecompiled: plan and hierarchy level "
        "counts disagree");
  }
  if (plan.num_edges() != graph.num_edges()) {
    throw std::invalid_argument(
        "CompiledDisclosure::FromPrecompiled: plan edge count does not match "
        "the graph");
  }
  for (int level = 0; level < hierarchy.num_levels(); ++level) {
    if (plan.GroupDegreeSums(level).size() !=
        hierarchy.level(level).num_groups()) {
      throw std::invalid_argument(
          "CompiledDisclosure::FromPrecompiled: plan level " +
          std::to_string(level) + " group count does not match the hierarchy");
    }
  }
  return std::shared_ptr<const CompiledDisclosure>(new CompiledDisclosure(
      graph, spec, std::move(hierarchy), std::move(plan), PoolFor(spec.exec),
      phase1_epsilon_spent));
}

CompiledDisclosure::CompiledDisclosure(
    const gdp::graph::BipartiteGraph& graph, SessionSpec spec,
    gdp::hier::GroupHierarchy hierarchy, ReleasePlan plan,
    std::unique_ptr<gdp::common::ThreadPool> pool, double phase1_spent)
    : graph_(&graph),
      spec_(std::move(spec)),
      hierarchy_(std::move(hierarchy)),
      plan_(std::move(plan)),
      pool_(std::move(pool)),
      phase1_epsilon_spent_(phase1_spent) {}

void CompiledDisclosure::ValidateBudget(const BudgetSpec& budget) const {
  ValidateBudgetShape(budget);
  // Dry-run every calibration this budget will need, against the plan's
  // actual sensitivities, without drawing.  Successful calibrations land in
  // the shared cache, so Release re-uses rather than re-derives them.
  const double eps2 = budget.phase2_epsilon();
  try {
    for (int level = 0; level < plan_.num_levels(); ++level) {
      if (plan_.CountSensitivity(level) == 0) {
        continue;  // released exactly; nothing to calibrate
      }
      (void)mech_cache_.Get(
          budget.noise, eps2, budget.delta,
          static_cast<double>(plan_.CountSensitivity(level)));
      if (spec_.exec.include_group_counts) {
        (void)mech_cache_.Get(budget.noise, eps2, budget.delta,
                              plan_.VectorSensitivity(level));
      }
    }
  } catch (const std::exception& e) {
    throw gdp::common::InvalidBudgetError(
        std::string("BudgetSpec: mechanism calibration failed: ") + e.what());
  }
}

gdp::dp::MechanismEvent CompiledDisclosure::ChargeEventFor(
    const BudgetSpec& budget) const {
  ValidateBudgetShape(budget);
  const double eps2 = budget.phase2_epsilon();
  const int width = hierarchy_.num_levels();
  // Gaussian kinds: take σ/Δ from the shared mechanism cache at Δ = 1
  // (σ scales linearly with Δ for both calibrations, so σ(ε, δ, 1) IS the
  // multiplier).  The analytic calibration's bisection then runs once per
  // distinct (kind, ε, δ) for the artifact's lifetime — the admission path
  // of every tenant's every request reuses it, exactly like DrawRelease
  // reuses the per-level calibrations.
  // Default (paper) reading: ONE event of parallel_width = num_levels — the
  // levels partition the same tree, so the release costs one level's (ε, δ).
  // Strict mode (docs/ACCOUNTING.md's cross-level caveat) multiplies the
  // width back in: num_levels SEQUENTIAL mechanisms, parallel_width = 1.
  // Either way the released bits are identical; only the charge differs.
  const bool strict = spec_.strict_level_charging;
  const int count = strict ? width : 1;
  const int parallel_width = strict ? 1 : width;
  if (budget.noise == NoiseKind::kGaussian ||
      budget.noise == NoiseKind::kAnalyticGaussian) {
    const double multiplier =
        mech_cache_.Get(budget.noise, eps2, budget.delta, 1.0).NoiseStddev();
    return gdp::dp::MechanismEvent::Gaussian(eps2, budget.delta, multiplier,
                                             count, parallel_width);
  }
  gdp::dp::MechanismEvent event =
      MechanismEventFor(budget.noise, eps2, budget.delta, parallel_width);
  event.count = count;
  return event;
}

void CompiledDisclosure::CheckLevel(int level, const char* where) const {
  if (level < 0 || level >= hierarchy_.num_levels()) {
    throw std::out_of_range(std::string(where) + ": level " +
                            std::to_string(level) + " outside [0, " +
                            std::to_string(hierarchy_.num_levels()) + ")");
  }
}

MultiLevelRelease CompiledDisclosure::Release(const BudgetSpec& budget,
                                              gdp::common::Rng& rng) const {
  ValidateBudget(budget);
  return DrawRelease(budget, rng);
}

MultiLevelRelease CompiledDisclosure::DrawRelease(const BudgetSpec& budget,
                                                  gdp::common::Rng& rng) const {
  ReleaseConfig rel;
  rel.epsilon_g = budget.phase2_epsilon();
  rel.delta = budget.delta;
  rel.noise = budget.noise;
  rel.include_group_counts = spec_.exec.include_group_counts;
  rel.clamp_nonnegative = spec_.exec.clamp_nonnegative;
  rel.noise_chunk_grain = spec_.exec.noise_chunk_grain;

  const GroupDpEngine engine(rel, &mech_cache_);
  MultiLevelRelease release = engine.Release(plan_, rng, pool_.get());
  if (spec_.exec.enforce_consistency) {
    release = EnforceHierarchicalConsistency(hierarchy_, release);
  }
  return release;
}

const gdp::hier::HierarchyIndex& CompiledDisclosure::index() const {
  std::call_once(index_once_, [this] {
    index_ = std::make_unique<gdp::hier::HierarchyIndex>(hierarchy_);
  });
  return *index_;
}

std::vector<DrillDownEntry> CompiledDisclosure::Drilldown(
    const MultiLevelRelease& release, gdp::hier::Side side,
    gdp::hier::NodeIndex v, int max_level, int min_level) const {
  return DrillDown(release, index(), side, v, max_level, min_level);
}

std::vector<QueryResult> CompiledDisclosure::Answer(
    std::span<const QuerySpec> queries, int level, const BudgetSpec& budget,
    gdp::common::Rng& rng) const {
  ValidateBudgetShape(budget);
  CheckLevel(level, "CompiledDisclosure::Answer");
  ValidateQueries(queries);
  const std::span<const gdp::graph::EdgeCount> sums =
      plan_.GroupDegreeSums(level);
  const auto count_sensitivity =
      static_cast<double>(plan_.CountSensitivity(level));
  std::vector<QueryResult> results;
  results.reserve(queries.size());
  for (const QuerySpec& q : queries) {
    QueryResult r;
    r.query_name = QueryName(q);
    switch (q.kind) {
      case QuerySpec::Kind::kAssociationCount:
        r.sensitivity = count_sensitivity;
        r.truth = {static_cast<double>(plan_.num_edges())};
        break;
      case QuerySpec::Kind::kGroupCount:
        r.sensitivity =
            count_sensitivity == 0.0 ? 0.0 : plan_.VectorSensitivity(level);
        r.truth.assign(sums.begin(), sums.end());
        break;
      case QuerySpec::Kind::kDegreeHistogram: {
        const gdp::hier::Partition& partition = hierarchy_.level(level);
        for (gdp::hier::GroupId g = 0; g < partition.num_groups(); ++g) {
          r.sensitivity =
              std::max(r.sensitivity,
                       static_cast<double>(partition.group(g).size) +
                           2.0 * static_cast<double>(sums[g]));
        }
        r.truth.assign(q.max_degree + 2, 0.0);
        for (gdp::graph::NodeIndex v = 0; v < graph_->num_nodes(q.side); ++v) {
          const auto d = static_cast<std::size_t>(graph_->Degree(q.side, v));
          ++r.truth[std::min(d, q.max_degree + 1)];
        }
        break;
      }
    }
    r.noisy = r.truth;
    if (r.sensitivity != 0.0) {
      const gdp::dp::NumericMechanism& mechanism =
          mech_cache_.Get(budget.noise, budget.phase2_epsilon(), budget.delta,
                          r.sensitivity);
      r.noise_stddev = mechanism.NoiseStddev();
      AddChunkedNoise(mechanism, r.noisy, spec_.exec.noise_chunk_grain, rng,
                      pool_.get());
    }
    results.push_back(std::move(r));
  }
  return results;
}

}  // namespace gdp::core
