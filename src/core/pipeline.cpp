#include "core/pipeline.hpp"

#include <utility>

namespace gdp::core {

DisclosureResult RunDisclosure(const gdp::graph::BipartiteGraph& graph,
                               const SessionSpec& spec, gdp::common::Rng& rng) {
  // Open-release-close: Phase 1 + plan once, one release, ledger out.
  // Open validates the cheap knobs (fraction, ε, consistency flags) before
  // Phase 1 touches the graph.
  // Phase 2: one (ε, δ) mechanism per level; within a level the scalar and
  // the group vector are charged sequentially by the engine's construction,
  // but across levels each level protects a *different* adjacency relation —
  // the per-level guarantee is εg-group-DP at that level's granularity
  // (matching the paper's statement), so the ledger records the max.
  DisclosureSession session = DisclosureSession::Open(graph, spec, rng);
  MultiLevelRelease release = session.Release(
      spec.budget, rng, "phase2: per-level noise (max over levels)");
  gdp::dp::BudgetLedger ledger = session.ledger();
  return DisclosureResult{std::move(session).TakeHierarchy(),
                          std::move(release), std::move(ledger)};
}

}  // namespace gdp::core
