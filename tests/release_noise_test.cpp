// Release-level noise conformance: for every NoiseKind, the noise a whole
// release adds to each level's total and to each level's group vector has
// the σ that level reports.  The mechanism tests check each sampler alone;
// this suite checks what CompiledDisclosure::Release publishes, through its
// level streams, chunk streams and span draws, at a grain small enough to
// split level 0 into chunks.
//
// Each kind releases one fixed-seed graph kReleases times and standardizes
// every noise value by its level's reported σ, so a correct release gives
// squared values of mean 1.
//  - Gaussian kinds: per level, the totals and the group vector each get a
//    chi-square test (Wilson–Hilferty bounds at z = 6.5).
//  - Every kind: the pooled mean of the squared values, over all totals and
//    over all group entries, must be within max(2%, 6.5 × its sampling
//    spread) of 1; the spread comes from the kind's fourth moment.  A sum of
//    0 (no noise drawn) fails both tests.
//
// False-failure rate: each of the 30 checks (20 chi-square, 10 pooled) is a
// 6.5-sigma bound, about 1e-10 each under the normal approximation, so a
// correct sampler fails a fresh set of seeds with probability ~3e-9.  A 3%
// error in the group σ moves the pooled group variance by 5.9%, more than 12
// sampling spreads beyond its 2% tolerance for every kind.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "hier/specialization.hpp"
#include "release_oracle.hpp"

namespace gdp::core {
namespace {

using gdp::common::Rng;

constexpr double kTailZ = 6.5;
constexpr int kReleases = 2000;
constexpr std::size_t kGrain = 16;

// The golden fixture's graph and hierarchy: 128 groups at level 0.
gdp::graph::BipartiteGraph TestGraph() {
  Rng graph_rng(3);
  return gdp::graph::GenerateUniformRandom(64, 64, 1000, graph_rng);
}

gdp::hier::GroupHierarchy TestHierarchy(const gdp::graph::BipartiteGraph& g) {
  gdp::hier::SpecializationConfig cfg;
  cfg.depth = 4;
  Rng hier_rng(5);
  return gdp::hier::Specializer(cfg).BuildHierarchy(g, hier_rng).hierarchy;
}

// Wilson–Hilferty approximation of the chi-square quantile with `dof`
// degrees of freedom at standard-normal quantile `z` (as in perfbench).
double ChiSquareQuantile(double dof, double z) {
  const double a = 2.0 / (9.0 * dof);
  const double c = 1.0 - a + z * std::sqrt(a);
  return c > 0.0 ? dof * c * c * c : 0.0;
}

// E[z^4] of the kind's noise standardized by its σ.
double FourthMoment(NoiseKind kind, double sigma) {
  switch (kind) {
    case NoiseKind::kGaussian:
    case NoiseKind::kAnalyticGaussian:
      return 3.0;
    case NoiseKind::kDiscreteGaussian:
      // N_Z(0, σ²) matches the continuous moments to within ~e^(-2π²σ²);
      // every σ here is > 1.
      return 3.0;
    case NoiseKind::kLaplace:
      return 6.0;
    case NoiseKind::kGeometric:
      // Two-sided geometric with ratio a: excess kurtosis 3 + (1-a)²/(2a),
      // and σ² = 2a/(1-a)², so E[z^4] = 6 + 1/σ².
      return 6.0 + 1.0 / (sigma * sigma);
  }
  return 0.0;
}

bool IsGaussian(NoiseKind kind) {
  return kind == NoiseKind::kGaussian || kind == NoiseKind::kAnalyticGaussian;
}

// Squared standardized noise over many draws.
struct Tally {
  double sum_sq{0.0};
  double draws{0.0};
  double var_sum{0.0};  // Σ Var(z²) = Σ (E[z^4] - 1)

  void Add(double noise, double sigma, double fourth_moment) {
    const double z = noise / sigma;
    sum_sq += z * z;
    draws += 1.0;
    var_sum += fourth_moment - 1.0;
  }
};

// Empty when the tally is a chi-square with `draws` degrees of freedom
// inside its 6.5-sigma bounds; otherwise what is wrong.
std::string ChiSquareFailure(const Tally& t) {
  if (!(t.sum_sq > 0.0) || t.sum_sq < ChiSquareQuantile(t.draws, -kTailZ) ||
      t.sum_sq > ChiSquareQuantile(t.draws, kTailZ)) {
    return "chi-square " + std::to_string(t.sum_sq) + " over " +
           std::to_string(t.draws) + " dof";
  }
  return {};
}

// Empty when the pooled variance ratio is within max(2%, 6.5 sampling
// spreads) of 1; otherwise what is wrong.
std::string PooledFailure(const Tally& t) {
  const double ratio = t.sum_sq / t.draws;
  const double tolerance =
      std::max(0.02, kTailZ * std::sqrt(t.var_sum) / t.draws);
  if (!(t.sum_sq > 0.0) || std::abs(ratio - 1.0) > tolerance) {
    return "pooled variance ratio " + std::to_string(ratio) +
           " (tolerance " + std::to_string(tolerance) + ") over " +
           std::to_string(t.draws) + " draws";
  }
  return {};
}

class ReleaseNoiseTest : public ::testing::TestWithParam<NoiseKind> {};

TEST_P(ReleaseNoiseTest, EveryLevelsNoiseHasItsReportedSigma) {
  const NoiseKind kind = GetParam();
  const gdp::graph::BipartiteGraph g = TestGraph();
  ExecSpec exec;
  exec.noise_chunk_grain = kGrain;
  const auto artifact = ArtifactFor(g, TestHierarchy(g), exec);
  ASSERT_GT(artifact->plan().GroupDegreeSums(0).size(), 2 * kGrain)
      << "level 0 must split into chunks";
  const BudgetSpec budget = Phase2Budget(0.999, kind);

  const auto levels = static_cast<std::size_t>(artifact->plan().num_levels());
  std::vector<Tally> totals(levels);
  std::vector<Tally> groups(levels);
  Tally pooled_totals;
  Tally pooled_groups;
  Rng rng(4000 + static_cast<std::uint64_t>(kind));
  for (int r = 0; r < kReleases; ++r) {
    const MultiLevelRelease release = artifact->Release(budget, rng);
    for (std::size_t l = 0; l < levels; ++l) {
      const LevelRelease& lr = release.level(static_cast<int>(l));
      ASSERT_GT(lr.noise_stddev, 0.0) << "level " << l;
      ASSERT_GT(lr.group_noise_stddev, 0.0) << "level " << l;
      const double total_m4 = FourthMoment(kind, lr.noise_stddev);
      const double group_m4 = FourthMoment(kind, lr.group_noise_stddev);
      const double total_noise = lr.noisy_total - lr.true_total;
      totals[l].Add(total_noise, lr.noise_stddev, total_m4);
      pooled_totals.Add(total_noise, lr.noise_stddev, total_m4);
      ASSERT_EQ(lr.noisy_group_counts.size(), lr.true_group_counts.size());
      for (std::size_t i = 0; i < lr.true_group_counts.size(); ++i) {
        const double noise = lr.noisy_group_counts[i] - lr.true_group_counts[i];
        groups[l].Add(noise, lr.group_noise_stddev, group_m4);
        pooled_groups.Add(noise, lr.group_noise_stddev, group_m4);
      }
    }
  }

  if (IsGaussian(kind)) {
    for (std::size_t l = 0; l < levels; ++l) {
      EXPECT_EQ(ChiSquareFailure(totals[l]), "") << "level " << l << " totals";
      EXPECT_EQ(ChiSquareFailure(groups[l]), "") << "level " << l << " groups";
    }
  }
  EXPECT_EQ(PooledFailure(pooled_totals), "") << "totals";
  EXPECT_EQ(PooledFailure(pooled_groups), "") << "group counts";
}

INSTANTIATE_TEST_SUITE_P(
    EveryNoiseKind, ReleaseNoiseTest,
    ::testing::Values(NoiseKind::kGaussian, NoiseKind::kAnalyticGaussian,
                      NoiseKind::kLaplace, NoiseKind::kDiscreteGaussian,
                      NoiseKind::kGeometric),
    [](const ::testing::TestParamInfo<NoiseKind>& info) {
      return std::string(NoiseKindName(info.param));
    });

}  // namespace
}  // namespace gdp::core
