// Ablation A6: hierarchy fan-out.
//
// The paper splits every group 4-ways per level.  This ablation varies the
// per-level arity over {2, 4, 8, 16} at fixed depth and reports the level
// sensitivities and the coarse-level RER: higher arity descends to small
// groups faster (better utility per level) but gives Phase 1 less signal per
// cut and produces more groups to release.
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "hier/specialization.hpp"

int main() {
  using namespace gdp;
  bench::PrintHeader("Ablation A6: specialization fan-out (arity)",
                     "# depth 9; sensitivity and RER by level per arity");
  const double fraction = bench::ScaleFraction(0.02);
  const graph::BipartiteGraph g = bench::MakeDblpLikeGraph(fraction, 111);

  constexpr int kTrials = 25;
  common::TextTable table({"arity", "groups_L1", "sens_L5", "sens_L7",
                           "RER_L5", "RER_L7"});
  for (const int arity : {2, 4, 8, 16}) {
    hier::SpecializationConfig cfg;
    cfg.depth = 9;
    cfg.arity = arity;
    cfg.epsilon_per_level = 0.0125;
    cfg.validate_hierarchy = false;
    const hier::Specializer spec(cfg);
    common::Rng rng(19);
    const auto built = spec.BuildHierarchy(g, rng);
    const auto sens = built.hierarchy.LevelSensitivities(g);

    core::ExecSpec exec;
    exec.include_group_counts = false;
    const auto artifact = bench::ArtifactFor(g, built.hierarchy, exec);
    const auto mean_rer = [&](int lvl) {
      double total = 0.0;
      for (int t = 0; t < kTrials; ++t) {
        total += artifact->Release(bench::Phase2Budget(0.999), rng)
                     .level(lvl)
                     .TotalRer();
      }
      return total / kTrials;
    };
    table.AddRow({std::to_string(arity),
                  std::to_string(built.hierarchy.level(1).num_groups()),
                  std::to_string(sens[5]), std::to_string(sens[7]),
                  common::FormatPercent(mean_rer(5), 3),
                  common::FormatPercent(mean_rer(7), 3)});
  }
  std::cout << '\n';
  table.Print(std::cout);
  std::cout << "\n# reading: larger arity shrinks groups (hence sensitivity "
               "and RER) faster per\n# level; the paper's arity 4 balances "
               "level granularity against per-cut EM signal.\n";
  return 0;
}
