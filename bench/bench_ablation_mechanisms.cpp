// Ablation A3: noise mechanism choice in Phase 2.
//
// The paper uses the Gaussian Mechanism [Dwork-Roth].  This ablation compares
// Gaussian (classic), analytic Gaussian (Balle-Wang), Laplace, discrete
// Gaussian, and geometric noise at matched (eps_g, delta) across hierarchy
// levels, reporting mean RER.  Pure-eps mechanisms (Laplace/geometric) need
// no delta but pay an L1-vs-L2 calibration difference on the scalar query.
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "hier/specialization.hpp"

int main() {
  using namespace gdp;
  bench::PrintHeader("Ablation A3: Phase-2 noise mechanism",
                     "# mean RER by level at eps_g = 0.999, delta = 1e-5");
  const double fraction = bench::ScaleFraction(0.02);
  const graph::BipartiteGraph g = bench::MakeDblpLikeGraph(fraction, 99);

  hier::SpecializationConfig scfg;
  scfg.depth = 9;
  scfg.arity = 4;
  scfg.epsilon_per_level = 0.0125;
  scfg.validate_hierarchy = false;
  const hier::Specializer spec(scfg);
  common::Rng srng(13);
  const auto built = spec.BuildHierarchy(g, srng);
  core::ExecSpec exec;
  exec.include_group_counts = false;
  const auto artifact = bench::ArtifactFor(g, built.hierarchy, exec);

  const std::vector<core::NoiseKind> kinds{
      core::NoiseKind::kGaussian, core::NoiseKind::kAnalyticGaussian,
      core::NoiseKind::kLaplace, core::NoiseKind::kDiscreteGaussian,
      core::NoiseKind::kGeometric};
  const std::vector<int> levels{1, 3, 5, 6, 7};
  constexpr int kTrials = 25;

  std::vector<std::string> header{"mechanism"};
  for (const int lvl : levels) {
    header.push_back("RER_L" + std::to_string(lvl));
  }
  common::TextTable table(header);

  for (const core::NoiseKind kind : kinds) {
    const core::BudgetSpec budget = bench::Phase2Budget(0.999, kind);
    common::Rng rng(17);
    std::vector<std::string> row{core::NoiseKindName(kind)};
    for (const int lvl : levels) {
      double total = 0.0;
      for (int t = 0; t < kTrials; ++t) {
        total += artifact->Release(budget, rng).level(lvl).TotalRer();
      }
      row.push_back(common::FormatPercent(total / kTrials, 3));
    }
    table.AddRow(std::move(row));
  }
  std::cout << '\n';
  table.Print(std::cout);
  std::cout << "\n# reading: at eps < 1 Laplace/geometric (pure eps) inject "
               "less noise than the\n# classic Gaussian on a scalar count; "
               "the analytic Gaussian closes most of that\n# gap.  The paper's "
               "choice of Gaussian matters for vector releases where L2\n"
               "# calibration wins.\n";
  return 0;
}
