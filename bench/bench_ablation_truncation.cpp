// Ablation A7: degree truncation for worst-case sensitivity bounds.
//
// The paper calibrates noise to the realized (local) per-level sensitivity.
// A worst-case deployment instead (i) spends a small eps to estimate a high
// degree quantile (EM quantile), (ii) truncates the graph to that cap, and
// (iii) bounds each level's sensitivity by max_group_size * cap.  This bench
// sweeps the cap and reports the bias the projection introduces (edges
// dropped) against the noise it saves at a coarse level -- the classic
// bias-variance tradeoff of degree-bounded DP on graphs.
#include <cmath>
#include <iostream>

#include "bench_util.hpp"
#include "core/group_dp_engine.hpp"
#include "core/group_sensitivity.hpp"
#include "graph/projection.hpp"
#include "hier/specialization.hpp"

int main() {
  using namespace gdp;
  bench::PrintHeader("Ablation A7: degree truncation / worst-case bounds",
                     "# cap sweep at eps_g = 0.999; level-6 count release");
  const double fraction = bench::ScaleFraction(0.02);
  const graph::BipartiteGraph g = bench::MakeDblpLikeGraph(fraction, 314);

  // DP estimate of a sensible cap (eps = 0.5 side budget; the EM quantile
  // needs eps * n large against the log-width of the public range, so very
  // small estimation budgets over-shoot upward).
  common::Rng qrng(41);
  const auto dp_cap = core::EstimateDegreeCapDp(g, dp::Epsilon(0.5), 0.995,
                                                1.5, qrng);
  std::cout << "# DP-estimated degree cap (99.5th pct x1.5): " << dp_cap << "\n";

  constexpr int kTrials = 25;
  constexpr int kLevel = 6;
  common::TextTable table({"cap", "edges_dropped", "bias_RER", "noise_RER",
                           "total_RER"});
  const double true_total = static_cast<double>(g.num_edges());

  std::vector<graph::EdgeCount> caps{2,  4,  8, 16, 64, 256,
                                     dp_cap};
  for (const auto cap : caps) {
    common::Rng rng(1000 + cap);
    const auto projected = graph::TruncateDegreesBothSides(g, cap, rng);

    hier::SpecializationConfig scfg;
    scfg.depth = 9;
    scfg.arity = 4;
    scfg.epsilon_per_level = 0.0125;
    scfg.validate_hierarchy = false;
    const hier::Specializer spec(scfg);
    const auto built = spec.BuildHierarchy(projected.graph, rng);

    core::ReleaseConfig rel;
    rel.epsilon_g = 0.999;
    rel.include_group_counts = false;
    const core::GroupDpEngine engine(rel);
    const core::ReleasePlan plan =
        core::ReleasePlan::Build(projected.graph, built.hierarchy);

    // Bias: the projection's deterministic undercount of the TRUE total.
    const double projected_total =
        static_cast<double>(projected.graph.num_edges());
    const double bias_rer = (true_total - projected_total) / true_total;

    double noise_rer = 0.0;
    double total_rer = 0.0;
    for (int t = 0; t < kTrials; ++t) {
      const auto release = engine.Release(plan, rng);
      const core::LevelRelease& lr = release.level(kLevel);
      noise_rer += std::fabs(lr.noisy_total - projected_total) / projected_total;
      total_rer += std::fabs(lr.noisy_total - true_total) / true_total;
    }
    table.AddRow({std::to_string(cap), std::to_string(projected.edges_dropped),
                  common::FormatPercent(bias_rer, 3),
                  common::FormatPercent(noise_rer / kTrials, 3),
                  common::FormatPercent(total_rer / kTrials, 3)});
  }
  std::cout << '\n';
  table.Print(std::cout);
  std::cout << "\n# reading: tiny caps destroy the count deterministically "
               "(bias), huge caps keep\n# the heavy tail and its noise; the "
               "DP-estimated cap lands near the knee.\n";
  return 0;
}
