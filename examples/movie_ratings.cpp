// Movie-ratings scenario (from the paper's introduction): viewers x movies.
//
// A ratings platform publishes engagement statistics at several granularities
// (whole catalogue, genre clusters, niche communities, single titles).  The
// per-group counts of the multi-level release power dashboards for partners
// with different contracts, and the session's Answer() runs standing queries
// (catalogue total, viewer- and movie-activity histograms) at any level with
// noise calibrated from the compiled plan — every answer charged to the
// session's cumulative budget ledger, so the platform can show an auditor
// exactly what the quarter's dashboards spent.
#include <iostream>
#include <vector>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/metrics.hpp"
#include "core/session.hpp"
#include "graph/generators.hpp"

int main() {
  using namespace gdp;
  common::Rng rng(99);

  // 20k viewers x 2k movies, heavy-tailed popularity on both sides.
  graph::DblpLikeParams params;
  params.num_left = 20000;
  params.num_right = 2000;
  params.num_edges = 120000;
  params.left_zipf_exponent = 0.4;   // viewer activity
  params.right_zipf_exponent = 0.6;  // movie popularity
  const graph::BipartiteGraph ratings = GenerateDblpLike(params, rng);
  std::cout << "ratings graph: " << ratings.Summary() << "\n\n";

  // One session for the catalogue: the hierarchy and plan serve the
  // published release AND every query answer below.
  core::SessionSpec spec;
  spec.budget.epsilon_g = 0.8;
  spec.hierarchy.depth = 7;
  spec.hierarchy.arity = 4;
  auto session = core::DisclosureSession::Open(ratings, spec, rng);
  const core::MultiLevelRelease release = session.Release(rng);
  std::cout << "published release: " << release.num_levels() << " levels\n\n";

  // Standing queries evaluated at two contract tiers.
  std::vector<core::QuerySpec> queries(3);
  queries[1].kind = core::QuerySpec::Kind::kDegreeHistogram;
  queries[1].side = graph::Side::kLeft;
  queries[1].max_degree = 30;
  queries[2].kind = core::QuerySpec::Kind::kDegreeHistogram;
  queries[2].side = graph::Side::kRight;
  queries[2].max_degree = 200;

  // The catalogue-total query is the quantity a relative error describes
  // well; for histograms (many near-empty bins) the absolute noise level is
  // the honest metric.
  common::TextTable table({"tier_level", "query", "sensitivity", "noise_sigma",
                           "total_RER", "MAE"});
  for (const int level : {5, 2}) {  // partner tier vs premium tier
    const auto results = session.Answer(
        queries, level, spec.budget, rng,
        "queries at L" + std::to_string(level) + " (3 queries, sequential)");
    for (const auto& r : results) {
      const bool scalar = r.truth.size() == 1;
      table.AddRow(
          {"L" + std::to_string(level), r.query_name,
           common::FormatDouble(r.sensitivity, 0),
           common::FormatDouble(r.noise_stddev, 1),
           scalar ? common::FormatPercent(
                        core::MeanRelativeErrorRate(r.noisy, r.truth), 2)
                  : "-",
           common::FormatDouble(core::MeanAbsoluteError(r.noisy, r.truth), 1)});
    }
  }
  table.Print(std::cout);

  std::cout << '\n' << session.ledger().AuditReport();
  std::cout
      << "\nReading the table: the premium tier (protection level 2) answers "
         "the catalogue\ntotal to within a few percent, the partner tier "
         "(level 5) only to tens of\npercent -- the multi-level contract in "
         "one artifact.  Histogram noise is\ncalibrated to the worst-case "
         "group at each level, so fine-grained breakdowns\nremain expensive: "
         "that is the price of protecting group aggregates, not a bug.\n";
  return 0;
}
