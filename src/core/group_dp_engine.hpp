// Phase 2 of the paper's pipeline: group-DP noise injection.
//
// For each hierarchy level ℓ the engine computes the group-level sensitivity
// Δℓ (max incident-edge count over level-ℓ groups) and perturbs the
// association-count statistics with noise calibrated to (εg, δ, Δℓ).  By the
// Gaussian/Laplace mechanism guarantee, each level's release satisfies
// εg-group-DP with respect to level-ℓ group adjacency.
//
// ONE RELEASE PATH, ONE DRAW ORDER: GroupDpEngine::Release consumes a
// ReleasePlan (every level's statistics from one node sweep, see
// release_plan.hpp) and draws in the same order with or without a
// ThreadPool, so the output is a function of (rng state, grain) alone.
//
// SENSITIVITY CAVEAT (documented honestly): following the paper, Δℓ is
// computed from the dataset's own hierarchy, i.e. it is a *local* rather
// than worst-case-global sensitivity.  The hierarchy itself was produced by
// the DP Exponential Mechanism in Phase 1, which is the paper's argument for
// treating the level structure as safe metadata.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <tuple>

#include "common/rng.hpp"
#include "core/release.hpp"
#include "core/release_plan.hpp"
#include "dp/mechanism.hpp"
#include "dp/privacy_accountant.hpp"
#include "dp/privacy_params.hpp"
#include "hier/hierarchy.hpp"

namespace gdp::common {
class ThreadPool;
}  // namespace gdp::common

namespace gdp::core {

using gdp::graph::BipartiteGraph;
using gdp::hier::GroupHierarchy;
using gdp::hier::Partition;

enum class NoiseKind {
  kGaussian,          // classic calibration for ε<1, analytic above (paper's choice)
  kAnalyticGaussian,  // Balle–Wang calibration at every ε
  kLaplace,           // pure-ε comparator (ablation A3)
  kDiscreteGaussian,  // integer-valued comparator (ablation A3)
  kGeometric,         // integer pure-ε comparator (ablation A3)
};

[[nodiscard]] const char* NoiseKindName(NoiseKind kind) noexcept;

struct ReleaseConfig {
  // Per-level Phase-2 privacy budget εg (the paper's swept parameter).
  double epsilon_g{0.999};
  // Gaussian failure probability δ (the paper leaves it unstated; see
  // DESIGN.md "Substitutions").
  double delta{1e-5};
  NoiseKind noise{NoiseKind::kGaussian};
  // Also release per-group noisy counts at every level.
  bool include_group_counts{true};
  // Post-processing: clamp noisy counts at 0 (counts cannot be negative).
  // Off by default to match the paper's raw-RER measurements.
  bool clamp_nonnegative{false};
  // Groups per chunk of a level's per-group vector noise draw.  Part of the
  // output's reproducibility contract: a level with more groups than this
  // forks one RNG substream per chunk, so changing the grain re-splits the
  // stream and changes the released values — thread count never does.
  std::size_t noise_chunk_grain{8192};
};

// Factory shared by the engine and the baselines: a calibrated scalar
// mechanism for the given noise kind.
[[nodiscard]] std::unique_ptr<gdp::dp::NumericMechanism> MakeMechanism(
    NoiseKind kind, double epsilon, double delta, double sensitivity);

// The accounting event a release charge at (kind, epsilon, delta) claims —
// the mechanism-level fact the ledger's PrivacyAccountant composes from.
// Gaussian kinds carry the noise multiplier σ/Δ their calibration implies
// (scale-free: both the classic and the analytic calibration scale σ
// linearly with Δ, so the multiplier depends only on (ε, δ), never on which
// level's Δℓ is being perturbed).  Laplace/geometric are pure-ε; the δ the
// caller claims stays in the books but an RDP backend knows the mechanism
// itself spends none.  The discrete-Gaussian comparator stays opaque — its
// integer calibration is not σ = m·Δ, so no multiplier is claimed for it.
// `parallel_width` records how many hierarchy levels (disjoint adjacency
// relations) the one charge spans; see docs/ACCOUNTING.md for the
// composition caveat.  Uses the same calibration validity switch as
// MakeMechanism, and the same Epsilon/Delta validation.
[[nodiscard]] gdp::dp::MechanismEvent MechanismEventFor(NoiseKind kind,
                                                        double epsilon,
                                                        double delta,
                                                        int parallel_width = 1);

// Perturb `values` in place with `mechanism` in the engine's one vector draw
// order: at most `grain` values draw straight from `rng`; more fork one
// substream per chunk of `grain` values, in chunk order before any draw, and
// chunk c draws from the c-th.  The layout depends only on (values.size(),
// grain), so chunks run inline without a pool and across `pool` with one,
// bit-identically.  A level's group counts and every query of an Answer
// draw through it.
void AddChunkedNoise(const gdp::dp::NumericMechanism& mechanism,
                     std::span<double> values, std::size_t grain,
                     gdp::common::Rng& rng, gdp::common::ThreadPool* pool);

// Memoized mechanism calibration, keyed by (kind, ε, δ, Δ).  A 9-level
// release with repeated ε touches only a handful of distinct calibrations;
// re-deriving (and heap-allocating) one per level per release is pure waste.
// Mechanisms are immutable after construction, so the cached instances are
// safe to share across the pool's threads; the map itself is mutex-guarded.
class MechanismCache {
 public:
  [[nodiscard]] const gdp::dp::NumericMechanism& Get(NoiseKind kind,
                                                     double epsilon,
                                                     double delta,
                                                     double sensitivity);

  [[nodiscard]] std::size_t size() const;

 private:
  using Key = std::tuple<int, double, double, double>;
  mutable std::mutex mutex_;
  std::map<Key, std::unique_ptr<gdp::dp::NumericMechanism>> cache_;
};

class GroupDpEngine {
 public:
  explicit GroupDpEngine(ReleaseConfig config);

  // Engine sharing a caller-owned MechanismCache.  A DisclosureSession
  // constructs one engine per release (the ReleaseConfig changes with every
  // BudgetSpec) but keeps ONE cache for its whole lifetime, so re-releasing
  // at an already-seen (kind, ε, δ, Δ) skips calibration entirely.  The
  // cache must outlive the engine.
  GroupDpEngine(ReleaseConfig config, MechanismCache* shared_cache);

  // The engine owns a mechanism cache (and a mutex): non-copyable by design.
  GroupDpEngine(const GroupDpEngine&) = delete;
  GroupDpEngine& operator=(const GroupDpEngine&) = delete;

  // Release every level of the plan with the configured εg per level (the
  // paper's scheme: each level carries its own εg-group-DP guarantee under
  // its own adjacency relation).  Level ℓ draws from the ℓ-th stream of
  // rng.ForkStreams(plan.num_levels()); a level with more than
  // noise_chunk_grain groups draws chunk c of its vector noise from the c-th
  // stream its level stream forks.  Every stream is forked before any work
  // is dispatched, so levels and chunks run inline without a pool and across
  // `pool` with one, bit-identically for every pool size; and level ℓ's
  // noise depends on nothing but (rng state, ℓ, grain), so drawing one level
  // equals slicing the full release.  A level whose sensitivity is zero
  // (edgeless graph) is released exactly: there are no associations to
  // protect.
  [[nodiscard]] MultiLevelRelease Release(
      const ReleasePlan& plan, gdp::common::Rng& rng,
      gdp::common::ThreadPool* pool = nullptr) const;

  [[nodiscard]] const ReleaseConfig& config() const noexcept { return config_; }

  // Noise σ the engine will use for a level with sensitivity Δ (exposed for
  // expected-error analysis and tests).  Served from the mechanism cache.
  [[nodiscard]] double NoiseStddevFor(double sensitivity) const;

  // Number of distinct calibrations memoized so far (tests assert repeat
  // releases hit the cache instead of re-deriving).
  [[nodiscard]] std::size_t MechanismCacheSize() const {
    return cache().size();
  }

 private:
  // Level `level_index` of Release, drawn from its own level stream.
  [[nodiscard]] LevelRelease DrawLevel(const ReleasePlan& plan, int level_index,
                                       gdp::common::Rng& level_rng,
                                       gdp::common::ThreadPool* pool) const;

  // The shared cache when one was given, else the owned one.
  [[nodiscard]] MechanismCache& cache() const noexcept {
    return shared_cache_ != nullptr ? *shared_cache_ : owned_cache_;
  }

  ReleaseConfig config_;
  mutable MechanismCache owned_cache_;
  MechanismCache* shared_cache_{nullptr};
};

}  // namespace gdp::core
