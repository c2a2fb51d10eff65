#include "core/group_dp_engine.hpp"

#include <span>
#include <stdexcept>
#include <vector>

#include "common/thread_pool.hpp"
#include "dp/discrete_gaussian.hpp"
#include "dp/gaussian.hpp"
#include "dp/geometric.hpp"
#include "dp/laplace.hpp"

namespace gdp::core {

const char* NoiseKindName(NoiseKind kind) noexcept {
  switch (kind) {
    case NoiseKind::kGaussian:
      return "gaussian";
    case NoiseKind::kAnalyticGaussian:
      return "analytic_gaussian";
    case NoiseKind::kLaplace:
      return "laplace";
    case NoiseKind::kDiscreteGaussian:
      return "discrete_gaussian";
    case NoiseKind::kGeometric:
      return "geometric";
  }
  return "?";
}

std::unique_ptr<gdp::dp::NumericMechanism> MakeMechanism(NoiseKind kind,
                                                         double epsilon,
                                                         double delta,
                                                         double sensitivity) {
  using namespace gdp::dp;
  const Epsilon eps(epsilon);
  switch (kind) {
    case NoiseKind::kGaussian: {
      // Classic calibration inside its validity range (Dwork–Roth Thm 3.22
      // requires ε ≤ 1 — the old `< 1.0001` cutoff admitted ε ∈ (1, 1.0001)
      // outside the theorem), analytic above.
      const GaussianCalibration calib = epsilon <= 1.0
                                            ? GaussianCalibration::kClassic
                                            : GaussianCalibration::kAnalytic;
      return std::make_unique<GaussianMechanism>(eps, Delta(delta),
                                                 L2Sensitivity(sensitivity), calib);
    }
    case NoiseKind::kAnalyticGaussian:
      return std::make_unique<GaussianMechanism>(eps, Delta(delta),
                                                 L2Sensitivity(sensitivity),
                                                 GaussianCalibration::kAnalytic);
    case NoiseKind::kLaplace:
      return std::make_unique<LaplaceMechanism>(eps, L1Sensitivity(sensitivity));
    case NoiseKind::kDiscreteGaussian:
      return std::make_unique<DiscreteGaussianMechanism>(
          eps, Delta(delta), L2Sensitivity(sensitivity));
    case NoiseKind::kGeometric:
      return std::make_unique<GeometricMechanism>(eps,
                                                  L1Sensitivity(sensitivity));
  }
  throw std::invalid_argument("MakeMechanism: unknown noise kind");
}

gdp::dp::MechanismEvent MechanismEventFor(NoiseKind kind, double epsilon,
                                          double delta, int parallel_width) {
  using namespace gdp::dp;
  const Epsilon eps(epsilon);  // validates
  switch (kind) {
    case NoiseKind::kGaussian: {
      // Same validity switch as MakeMechanism: classic calibration for
      // ε <= 1, analytic above.  σ at Δ = 1 IS the noise multiplier.
      const double m =
          epsilon <= 1.0
              ? ClassicGaussianSigma(eps, Delta(delta), L2Sensitivity(1.0))
              : AnalyticGaussianSigma(eps, Delta(delta), L2Sensitivity(1.0));
      return MechanismEvent::Gaussian(epsilon, delta, m, 1, parallel_width);
    }
    case NoiseKind::kAnalyticGaussian: {
      const double m =
          AnalyticGaussianSigma(eps, Delta(delta), L2Sensitivity(1.0));
      return MechanismEvent::Gaussian(epsilon, delta, m, 1, parallel_width);
    }
    case NoiseKind::kLaplace:
    case NoiseKind::kGeometric:
      return MechanismEvent::PureEps(epsilon, delta, 1, parallel_width);
    case NoiseKind::kDiscreteGaussian: {
      MechanismEvent event = MechanismEvent::Opaque(epsilon, delta);
      event.parallel_width = parallel_width;
      return event;
    }
  }
  throw std::invalid_argument("MechanismEventFor: unknown noise kind");
}

void AddChunkedNoise(const gdp::dp::NumericMechanism& mechanism,
                     std::span<double> values, std::size_t grain,
                     gdp::common::Rng& rng, gdp::common::ThreadPool* pool) {
  if (grain == 0) {
    throw std::invalid_argument("AddChunkedNoise: grain must be > 0");
  }
  const std::size_t n = values.size();
  if (n <= grain) {
    mechanism.AddNoise(values, rng);
    return;
  }
  std::vector<gdp::common::Rng> streams =
      rng.ForkStreams((n + grain - 1) / grain);
  gdp::common::ForEachChunk(
      pool, n, grain,
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        mechanism.AddNoise(values.subspan(begin, end - begin), streams[chunk]);
      });
}

const gdp::dp::NumericMechanism& MechanismCache::Get(NoiseKind kind,
                                                     double epsilon,
                                                     double delta,
                                                     double sensitivity) {
  const Key key{static_cast<int>(kind), epsilon, delta, sensitivity};
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = cache_.find(key);
  if (it == cache_.end()) {
    it = cache_.emplace(key, MakeMechanism(kind, epsilon, delta, sensitivity))
             .first;
  }
  return *it->second;
}

std::size_t MechanismCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return cache_.size();
}

}  // namespace gdp::core
