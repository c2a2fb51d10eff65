// Ablation A8: hierarchical consistency post-processing.
//
// The raw release perturbs each level independently; GLS tree consistency
// (core/consistency.hpp) is free post-processing that pools the information
// across levels.  This bench reports, per level, the mean RER of the
// association-count total and the mean absolute error of per-group counts,
// raw vs consistent, averaged over trials.  (Scalar totals are preserved by
// the post-processing, so only the group-count columns differ.)
#include <cmath>
#include <iostream>

#include "bench_util.hpp"
#include "core/consistency.hpp"
#include "core/metrics.hpp"
#include "hier/specialization.hpp"

int main() {
  using namespace gdp;
  bench::PrintHeader("Ablation A8: GLS consistency post-processing",
                     "# raw vs consistent release, eps_g = 0.999, mean over "
                     "trials");
  const double fraction = bench::ScaleFraction(0.01);
  const graph::BipartiteGraph g = bench::MakeDblpLikeGraph(fraction, 424);

  hier::SpecializationConfig scfg;
  scfg.depth = 7;  // keep the level-0 singleton tree tractable in memory
  scfg.arity = 4;
  scfg.epsilon_per_level = 0.0125;
  scfg.validate_hierarchy = false;
  const hier::Specializer spec(scfg);
  common::Rng srng(17);
  const auto built = spec.BuildHierarchy(g, srng);

  const auto artifact = bench::ArtifactFor(g, built.hierarchy);

  constexpr int kTrials = 10;
  const int levels = built.hierarchy.num_levels();
  std::vector<double> raw_rer(static_cast<std::size_t>(levels), 0.0);
  std::vector<double> adj_rer(static_cast<std::size_t>(levels), 0.0);
  std::vector<double> raw_mae(static_cast<std::size_t>(levels), 0.0);
  std::vector<double> adj_mae(static_cast<std::size_t>(levels), 0.0);

  common::Rng rng(23);
  for (int t = 0; t < kTrials; ++t) {
    const auto raw = artifact->Release(bench::Phase2Budget(0.999), rng);
    const auto adj = core::EnforceHierarchicalConsistency(built.hierarchy, raw);
    for (int lvl = 0; lvl < levels; ++lvl) {
      raw_rer[static_cast<std::size_t>(lvl)] += raw.level(lvl).TotalRer();
      adj_rer[static_cast<std::size_t>(lvl)] += adj.level(lvl).TotalRer();
      raw_mae[static_cast<std::size_t>(lvl)] +=
          core::MeanAbsoluteError(raw.level(lvl).noisy_group_counts,
                                  raw.level(lvl).true_group_counts);
      adj_mae[static_cast<std::size_t>(lvl)] +=
          core::MeanAbsoluteError(adj.level(lvl).noisy_group_counts,
                                  adj.level(lvl).true_group_counts);
    }
  }

  common::TextTable table({"level", "total_RER", "raw_group_MAE",
                           "consistent_group_MAE", "MAE_reduction"});
  for (int lvl = 0; lvl < levels; ++lvl) {
    const auto i = static_cast<std::size_t>(lvl);
    (void)adj_rer;
    const double reduction = 1.0 - (adj_mae[i] / raw_mae[i]);
    table.AddRow({"L" + std::to_string(lvl),
                  common::FormatPercent(raw_rer[i] / kTrials, 3),
                  common::FormatDouble(raw_mae[i] / kTrials, 1),
                  common::FormatDouble(adj_mae[i] / kTrials, 1),
                  common::FormatPercent(reduction, 1)});
  }
  std::cout << '\n';
  table.Print(std::cout);
  std::cout << "\n# reading: consistency is free (post-processing) and cuts "
               "coarse-level error\n# by pooling the fine levels' information; "
               "fine levels are nearly unchanged\n# (they already dominate "
               "the GLS weights).\n";
  return 0;
}
