// Baseline comparison A5: group-DP release vs individual-DP vs safe grouping.
//
// Quantifies the paper's motivation.  For a mid-level group (the aggregate
// the publisher wants protected) we report, per scheme:
//   * count RER            — utility of the released association count;
//   * group disclosure TV  — total-variation distance an adversary gets for
//                            deciding the group's presence (1 = exposed).
// Individual (edge/node) DP achieves near-zero RER but ~1.0 disclosure risk;
// safe grouping releases exact group aggregates (risk 1 by construction);
// the group-DP release is the only scheme driving the risk below e^eps-style
// bounds, at the cost of level-dependent RER.
#include <iostream>
#include <vector>

#include "baseline/individual_dp.hpp"
#include "baseline/safe_grouping.hpp"
#include "bench_util.hpp"
#include "core/pipeline.hpp"

int main() {
  using namespace gdp;
  bench::PrintHeader("A5: group privacy vs individual DP vs safe grouping",
                     "# protected target: a level-6 group's aggregate; "
                     "eps = 0.999, delta = 1e-5");
  const double fraction = bench::ScaleFraction(0.02);
  const graph::BipartiteGraph g = bench::MakeDblpLikeGraph(fraction, 123);

  constexpr double kEps = 0.999;
  constexpr int kTrials = 25;

  core::SessionSpec spec;
  spec.budget.epsilon_g = kEps;
  spec.hierarchy.depth = 9;
  spec.hierarchy.validate_hierarchy = false;
  spec.exec.include_group_counts = false;
  common::Rng rng(31);
  const core::DisclosureResult built = core::RunDisclosure(g, spec, rng);

  const int kTargetLevel = 6;
  const double group_weight = static_cast<double>(
      built.hierarchy.level(kTargetLevel).MaxGroupDegreeSum(g));
  std::cout << "# target group weight (level " << kTargetLevel
            << " max): " << group_weight << " of " << g.num_edges()
            << " associations\n";

  common::TextTable table({"scheme", "count_RER", "group_disclosure_TV"});

  // Individual edge-DP.
  {
    double rer = 0.0;
    double sigma = 0.0;
    for (int t = 0; t < kTrials; ++t) {
      const auto r = baseline::ReleaseCountEdgeDp(
          g, core::NoiseKind::kLaplace, kEps, 1e-5, rng);
      rer += r.Rer();
      sigma = r.noise_stddev;
    }
    table.AddRow({"individual edge-DP (Laplace)",
                  common::FormatPercent(rer / kTrials, 4),
                  common::FormatDouble(
                      baseline::GroupDistinguishability(group_weight, sigma), 4)});
  }
  // Individual node-DP.
  {
    double rer = 0.0;
    double sigma = 0.0;
    for (int t = 0; t < kTrials; ++t) {
      const auto r = baseline::ReleaseCountNodeDp(
          g, core::NoiseKind::kGaussian, kEps, 1e-5, rng);
      rer += r.Rer();
      sigma = r.noise_stddev;
    }
    table.AddRow({"individual node-DP (Gaussian)",
                  common::FormatPercent(rer / kTrials, 4),
                  common::FormatDouble(
                      baseline::GroupDistinguishability(group_weight, sigma), 4)});
  }
  // Safe grouping (Cormode et al.): exact group aggregates.
  {
    common::Rng sg_rng(37);
    baseline::SafeGroupingConfig sgc;
    sgc.k = 8;
    const auto sg = baseline::BuildSafeGrouping(g, graph::Side::kLeft, sgc, sg_rng);
    table.AddRow({"safe grouping k=8 (exact release)",
                  common::FormatPercent(0.0, 4),
                  common::FormatDouble(
                      baseline::GroupDistinguishability(group_weight, 0.0), 4)});
    std::cout << "# safe grouping built " << sg.num_groups << " groups with "
              << sg.safety_violations << " safety violations\n";
  }
  // Group-DP at the target level.
  {
    const auto artifact =
        bench::ArtifactFor(g, built.hierarchy, spec.exec);
    double rer = 0.0;
    double sigma = 0.0;
    for (int t = 0; t < kTrials; ++t) {
      const auto release = artifact->Release(bench::Phase2Budget(kEps), rng);
      const core::LevelRelease& lr = release.level(kTargetLevel);
      rer += lr.TotalRer();
      sigma = lr.noise_stddev;
    }
    table.AddRow({"group-DP at level 6 (this paper)",
                  common::FormatPercent(rer / kTrials, 4),
                  common::FormatDouble(
                      baseline::GroupDistinguishability(group_weight, sigma), 4)});
  }

  std::cout << '\n';
  table.Print(std::cout);
  std::cout << "\n# reading: only the group-DP release drives the group "
               "disclosure TV distance\n# materially below 1; individual DP "
               "keeps the count nearly exact and thereby\n# exposes the "
               "group aggregate, and safe grouping publishes it outright.\n";
  return 0;
}
