// Phase 2 of the paper's pipeline: the noise building blocks.
//
// The paper perturbs each hierarchy level's association counts with noise
// calibrated to (εg, δ, Δℓ), where Δℓ is the level's group sensitivity (max
// incident-edge count over level-ℓ groups).  This header holds the pieces
// that draw: the noise kinds, the calibrated mechanism factory, the
// accounting event a charge claims, the one chunked vector draw and the
// calibration cache.  CompiledDisclosure::Release is the one release path
// that composes them (level streams, then chunk streams), and Answer draws
// every query through the same level-statistic draw.
//
// SENSITIVITY CAVEAT (documented honestly): following the paper, Δℓ is
// computed from the dataset's own hierarchy, i.e. it is a *local* rather
// than worst-case-global sensitivity, and every published σ discloses it.
// The hierarchy itself was produced by the DP Exponential Mechanism in
// Phase 1, which is the paper's argument for treating the level structure
// as safe metadata; docs/ACCOUNTING.md states what that does not cover.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <tuple>

#include "common/rng.hpp"
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

// Factory shared by the release path and the baselines: a calibrated scalar
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

// Perturb `values` in place with `mechanism` in the one vector draw order:
// at most `grain` values draw straight from `rng`; more fork one substream
// per chunk of `grain` values, in chunk order before any draw, and chunk c
// draws from the c-th.  The layout depends only on (values.size(),
// grain), so chunks run inline without a pool and across `pool` with one,
// bit-identically.  Every statistic a release or an Answer publishes draws
// through it.
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

}  // namespace gdp::core
