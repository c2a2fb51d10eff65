// Reproduction of Figure 1 ("Impact of eps_g"), the paper's sole evaluation
// artifact.
//
// Setup mirrored from Section III: a DBLP-scale bipartite association graph
// is specialized for nine rounds (each group splits 4-ways per level) to form
// group levels 9 (entire dataset) down to 1, with level 0 the individual
// level.  For each privacy budget eps_g in {0.1 ... 0.9, 0.999} and each
// information level I9,i (i in [0,7]), the association-count query is
// perturbed by a Gaussian Mechanism calibrated to the group-level sensitivity
// of level i, and the relative error rate RER = |P - T| / T is averaged over
// trials.
//
// Expected shape (paper anchor points at eps_g = 0.999): I9,1 ~ 0.2%,
// I9,2 ~ 0.33%, I9,5 ~ 4%, I9,6 ~ 11%, I9,7 ~ 35%; all series grow as eps_g
// shrinks, I9,6/I9,7 dramatically so.  Our absolute floor at fine levels
// depends on the synthetic max degree (see EXPERIMENTS.md).
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "core/compiled_disclosure.hpp"

namespace {

constexpr int kDepth = 9;
constexpr int kArity = 4;
constexpr int kMaxShownLevel = 7;  // the paper plots I9,0..I9,7
constexpr int kTrials = 25;

}  // namespace

int main() {
  using namespace gdp;
  bench::PrintHeader("Figure 1: impact of eps_g on relative error rate",
                     "# per level I9,i: RER of the association-count query, "
                     "mean over " +
                         std::to_string(kTrials) + " trials");
  const double fraction = bench::ScaleFraction();
  const graph::BipartiteGraph g = bench::MakeDblpLikeGraph(fraction, 2026);

  const std::vector<double> eps_values{0.1, 0.2, 0.3, 0.4, 0.5,
                                       0.6, 0.7, 0.8, 0.9, 0.999};

  std::vector<std::string> header{"eps_g"};
  for (int lvl = 0; lvl <= kMaxShownLevel; ++lvl) {
    header.push_back("I9," + std::to_string(lvl));
  }
  common::TextTable table(header);

  for (const double eps : eps_values) {
    // The full pipeline per eps: Phase 1 consumes a fraction of eps_g to
    // build the hierarchy, Phase 2 perturbs each level with the remainder.
    core::SessionSpec spec;
    spec.budget.epsilon_g = eps;
    spec.hierarchy.depth = kDepth;
    spec.hierarchy.arity = kArity;
    // O(V*depth) check skipped at bench scale.
    spec.hierarchy.validate_hierarchy = false;
    spec.exec.include_group_counts = false;
    common::Rng rng(1000 + static_cast<std::uint64_t>(eps * 1e4));
    const auto compiled = core::CompiledDisclosure::Compile(g, spec, rng);

    // Average RER per level over repeated Phase-2 releases from the plan.
    std::vector<double> total_rer(kMaxShownLevel + 1, 0.0);
    for (int t = 0; t < kTrials; ++t) {
      const core::MultiLevelRelease release =
          compiled->Release(spec.budget, rng);
      for (int lvl = 0; lvl <= kMaxShownLevel; ++lvl) {
        total_rer[static_cast<std::size_t>(lvl)] += release.level(lvl).TotalRer();
      }
    }
    std::vector<std::string> row{common::FormatDouble(eps, 3)};
    for (const double total : total_rer) {
      row.push_back(common::FormatPercent(total / kTrials, 3));
    }
    table.AddRow(std::move(row));
    std::cout << "# eps_g=" << eps << " done\n" << std::flush;
  }

  std::cout << '\n';
  table.Print(std::cout);
  std::cout << "\n# TSV for plotting:\n";
  table.PrintTsv(std::cout);
  return 0;
}
