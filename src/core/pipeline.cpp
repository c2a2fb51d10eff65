#include "core/pipeline.hpp"

#include <utility>

namespace gdp::core {

DisclosureResult RunDisclosure(const gdp::graph::BipartiteGraph& graph,
                               const SessionSpec& spec, gdp::common::Rng& rng) {
  // Open-release-close: Phase 1 + plan once, one release, ledger out.
  // Open validates the cheap knobs (fraction, ε, consistency flags) before
  // Phase 1 touches the graph.
  // Phase 2: the release is charged as ONE (ε, δ) event spanning every
  // level: each level protects a *different* adjacency relation (the paper's
  // per-level reading), so the ledger records the max over levels.  Within
  // a level the scalar total and the group vector are two mechanisms under
  // that one event (see docs/ACCOUNTING.md).
  DisclosureSession session = DisclosureSession::Open(graph, spec, rng);
  MultiLevelRelease release = session.Release(
      spec.budget, rng, "phase2: per-level noise (max over levels)");
  gdp::dp::BudgetLedger ledger = session.ledger();
  return DisclosureResult{std::move(session).TakeHierarchy(),
                          std::move(release), std::move(ledger)};
}

}  // namespace gdp::core
