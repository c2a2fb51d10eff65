// Quickstart: the smallest end-to-end use of the library.
//
//   1. Build a bipartite association graph (here: synthetic, DBLP-like).
//   2. Open a DisclosureSession (Phase 1 + release plan, once) and release.
//   3. Hand each privilege tier its level view and compare accuracy.
//
// The one-shot wrapper core::RunDisclosure(graph, spec, rng) does steps
// 2a+2b in a single call and is bit-identical; the session form shown here
// is what you keep when you'll release more than once (see
// examples/epsilon_sweep.cpp).
//
// Build & run:  cmake --build build && ./build/quickstart
#include <iostream>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/access_policy.hpp"
#include "core/session.hpp"
#include "graph/generators.hpp"

int main() {
  using namespace gdp;

  // 1. A small heavy-tailed association graph: 5k "authors" x 8k "papers".
  common::Rng rng(/*seed=*/42);
  graph::DblpLikeParams params;
  params.num_left = 5000;
  params.num_right = 8000;
  params.num_edges = 30000;
  const graph::BipartiteGraph graph = GenerateDblpLike(params, rng);
  std::cout << graph.Summary() << "\n\n";

  // 2. Two-phase disclosure: EM specialization (depth 9, 4-way splits) at
  //    Open, then one Gaussian release per level under the session budget
  //    eps_g = 0.999, delta = 1e-5.
  core::SessionSpec spec;
  spec.hierarchy.depth = 9;
  spec.hierarchy.arity = 4;
  spec.budget.epsilon_g = 0.999;
  auto session = core::DisclosureSession::Open(graph, spec, rng);
  const core::MultiLevelRelease release = session.Release(rng);

  std::cout << session.ledger().AuditReport() << '\n';

  // 3. Eight privilege tiers, lowest first (the paper's I9,7 .. I9,0 views).
  const core::AccessPolicy policy = core::AccessPolicy::Uniform(8);
  common::TextTable table(
      {"tier", "protected_level", "noisy_count", "true_count", "RER"});
  for (int tier = 0; tier < policy.num_tiers(); ++tier) {
    const core::LevelRelease& view = policy.ViewFor(release, tier);
    table.AddRow({std::to_string(tier),
                  "L" + std::to_string(policy.LevelForPrivilege(tier)),
                  common::FormatDouble(view.noisy_total, 0),
                  common::FormatDouble(view.true_total, 0),
                  common::FormatPercent(view.TotalRer(), 2)});
  }
  table.Print(std::cout);
  std::cout << "\nHigher tiers receive finer protection levels and hence more "
               "accurate counts.\n";
  return 0;
}
