// The release draw order written out by hand, and the artifact the release
// tests draw from.
//
// OracleRelease is the reference the release path is judged against.  It is
// built only from MakeMechanism and Rng::ForkStreams, never from
// CompiledDisclosure, so a change to the release path cannot carry the
// reference along with it.  The order it spells out:
//  - level ℓ draws from the ℓ-th stream of rng.ForkStreams(num_levels);
//  - first its total, one scalar draw at Δℓ;
//  - then, with group counts, its group vector at √2·Δℓ: one span draw when
//    the level has at most `grain` groups, otherwise one span draw per chunk
//    of `grain` groups, chunk c from the c-th stream the level stream forks;
//  - a level whose Δℓ is 0 (edgeless graph) is released exactly, with σ 0.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/compiled_disclosure.hpp"
#include "core/group_dp_engine.hpp"
#include "core/release.hpp"
#include "core/release_plan.hpp"
#include "graph/bipartite_graph.hpp"
#include "hier/hierarchy.hpp"

namespace gdp::core {

// What the oracle draws: the mechanism's kind and its (ε, δ), i.e. the
// Phase-2 ε a release's noise is calibrated to, and the exec spec's two
// output-shaping fields.
struct OracleSpec {
  NoiseKind noise{NoiseKind::kGaussian};
  double epsilon{0.999};
  double delta{1e-5};
  bool include_group_counts{true};
  std::size_t grain{8192};
};

inline MultiLevelRelease OracleRelease(const ReleasePlan& plan,
                                       const OracleSpec& spec,
                                       gdp::common::Rng& rng) {
  std::vector<gdp::common::Rng> level_streams =
      rng.ForkStreams(static_cast<std::size_t>(plan.num_levels()));
  std::vector<LevelRelease> levels;
  for (int lvl = 0; lvl < plan.num_levels(); ++lvl) {
    gdp::common::Rng& stream = level_streams[static_cast<std::size_t>(lvl)];
    LevelRelease out;
    out.level = lvl;
    out.sensitivity = static_cast<double>(plan.CountSensitivity(lvl));
    out.true_total = static_cast<double>(plan.num_edges());
    out.noisy_total = out.true_total;
    if (spec.include_group_counts) {
      const std::span<const gdp::graph::EdgeCount> sums =
          plan.GroupDegreeSums(lvl);
      out.true_group_counts.assign(sums.begin(), sums.end());
      out.noisy_group_counts = out.true_group_counts;
    }
    if (out.sensitivity != 0.0) {
      const auto total = MakeMechanism(spec.noise, spec.epsilon, spec.delta,
                                       out.sensitivity);
      out.noise_stddev = total->NoiseStddev();
      out.noisy_total = total->AddNoise(out.true_total, stream);
      if (spec.include_group_counts) {
        const auto vec = MakeMechanism(spec.noise, spec.epsilon, spec.delta,
                                       plan.VectorSensitivity(lvl));
        out.group_noise_stddev = vec->NoiseStddev();
        const std::span<double> noisy(out.noisy_group_counts);
        if (noisy.size() <= spec.grain) {
          vec->AddNoise(noisy, stream);
        } else {
          std::vector<gdp::common::Rng> chunk_streams = stream.ForkStreams(
              (noisy.size() + spec.grain - 1) / spec.grain);
          for (std::size_t c = 0; c < chunk_streams.size(); ++c) {
            const std::size_t begin = c * spec.grain;
            vec->AddNoise(noisy.subspan(begin, std::min(spec.grain,
                                                        noisy.size() - begin)),
                          chunk_streams[c]);
          }
        }
      }
    }
    levels.push_back(std::move(out));
  }
  return MultiLevelRelease(std::move(levels));
}

// A budget whose whole ε is Phase 2, so the noise is calibrated to exactly
// `epsilon`.
inline BudgetSpec Phase2Budget(double epsilon,
                               NoiseKind noise = NoiseKind::kGaussian,
                               double delta = 1e-5) {
  return BudgetSpec{epsilon, delta, 0.0, noise};
}

// The release path under test: an artifact adopting `hierarchy` over
// `graph`, with its plan built here.  `graph` must outlive it.
inline std::shared_ptr<const CompiledDisclosure> ArtifactFor(
    const gdp::graph::BipartiteGraph& graph,
    const gdp::hier::GroupHierarchy& hierarchy, const ExecSpec& exec = {}) {
  SessionSpec spec;
  spec.exec = exec;
  return CompiledDisclosure::FromPrecompiled(
      graph, spec, hierarchy, ReleasePlan::Build(graph, hierarchy), 0.0);
}

}  // namespace gdp::core
