// End-to-end disclosure pipeline: Phase 1 (specialization) + Phase 2 (noise
// injection), with budget accounting.  RunDisclosure is the one-call
// convenience wrapper — it opens a DisclosureSession, releases once, and
// closes it.  Callers that release more than once from one (graph,
// hierarchy) pair — ε-sweeps, drilldown services, budget re-plans — should
// hold the session instead (see core/session.hpp): the wrapper re-runs
// Phase 1 and rebuilds the ReleasePlan on every call.
#pragma once

#include "common/rng.hpp"
#include "core/release.hpp"
#include "core/session.hpp"
#include "dp/accountant.hpp"

namespace gdp::core {

struct DisclosureResult {
  gdp::hier::GroupHierarchy hierarchy;
  MultiLevelRelease release;
  // Budget ledger with one charge per phase (audit trail).
  gdp::dp::BudgetLedger ledger;
};

// Run the full pipeline on a graph: open a session under `spec` (Phase 1
// spends spec.budget.phase1_epsilon()), release spec.budget once under the
// spec's caps, close.  Deterministic given `rng` state, and bit-identical to
// DisclosureSession::Open + Release under the same seed and spec.
[[nodiscard]] DisclosureResult RunDisclosure(
    const gdp::graph::BipartiteGraph& graph, const SessionSpec& spec,
    gdp::common::Rng& rng);

}  // namespace gdp::core
