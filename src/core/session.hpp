// DisclosureSession: a per-tenant view over a shared CompiledDisclosure.
//
// The expensive immutable artifact — hierarchy, ReleasePlan, mechanism
// cache, drilldown index — lives in core::CompiledDisclosure (see
// compiled_disclosure.hpp) and is compiled once per (graph, spec, seed).  A
// session is the thin mutable handle one tenant holds over it:
//
//   shared_ptr<const CompiledDisclosure>  +  own BudgetLedger  +  counters.
//
// N tenants on one dataset mean ONE Phase-1 build and ONE node scan total
// (pinned by compiled_disclosure_test): each tenant Attaches its own session
// to the shared artifact with its own grant, and their releases proceed
// concurrently — all mutation is confined to the per-call Rng, the handle's
// own ledger, and the artifact's internally synchronized caches.
//
// DETERMINISM: a session adds no randomness of its own.  Open consumes the
// caller's Rng exactly as the one-shot pipeline's Phase 1 did, and each
// Release draws only from the Rng passed to it, so a release is bit-identical
// to the corresponding one-shot RunDisclosure under the same seed, at every
// ExecSpec::num_threads (ExecSpec::noise_chunk_grain is part of the output
// contract; thread count never is).  A tenant served from a registry-cached
// artifact is bit-identical to a fresh session at the same seeds.
//
// BUDGET AUDIT: the session owns a cumulative BudgetLedger.  Attach charges
// the artifact's Phase-1 EM spend once (the hierarchy is part of what the
// tenant sees); every Release / Sweep / Answer charges its own Phase-2 spend
// with a labelled entry, so the ledger is a real audit trail across the
// session's lifetime and a release that would exceed the session caps throws
// BudgetExhaustedError BEFORE any noise is drawn.  TryRelease is the
// serving layer's admission path: same guarantees, but an exhausted grant
// returns nullopt instead of throwing.  A BudgetSpec that cannot calibrate
// its mechanisms at all (bad ε/δ, impossible split) is rejected up front
// with InvalidBudgetError, likewise before any draw.
//
// THREADING: the shared artifact is safe for concurrent use from any number
// of sessions; the session handle itself (ledger, counters) is externally
// synchronized — one caller at a time per handle, like an iostream.  One
// handle per tenant thread needs no locking at all.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/compiled_disclosure.hpp"
#include "dp/accountant.hpp"

namespace gdp::core {

// One historical ledger charge, as replayed from a durable audit log: the
// mechanism-level event plus its audit label.  A session's own charge
// history is exposed in exactly this shape (ledger().events() / charges()),
// so a serving layer can persist every committed charge and rebuild the
// session after a crash via DisclosureSession::Restore.
struct ReplayedCharge {
  gdp::dp::MechanismEvent event;
  std::string label;
};

// Admission gate for TryRelease: called AFTER the session's own ledger has
// admitted the charge and BEFORE anything commits or draws.  Return false to
// deny the release (ledger and rng untouched); throw to abort it (same
// guarantee).  The serving layer uses this seam to consult the dataset
// odometer and to make the charge durable (write-ahead) before any noise
// exists.
using ChargeGate = std::function<bool(const gdp::dp::MechanismEvent&)>;

class DisclosureSession {
 public:
  // Compile the artifact (Phase 1 + plan build, once) and attach a session
  // with the spec's caps — the single-tenant convenience path, bit-identical
  // to the pre-split DisclosureSession::Open.  `graph` must outlive the
  // session.
  [[nodiscard]] static DisclosureSession Open(
      const gdp::graph::BipartiteGraph& graph, const SessionSpec& spec,
      gdp::common::Rng& rng);

  // Attach a tenant handle to an existing shared artifact with this tenant's
  // own grant.  Charges the artifact's Phase-1 spend to the fresh ledger
  // (the hierarchy is part of what this tenant receives), so a grant that
  // cannot cover even Phase 1 fails here with BudgetExhaustedError.
  // Cheap: no graph work, no randomness.  The ledger composes under the
  // artifact's spec().accounting policy unless the tenant brings its own
  // (the serving layer's per-tenant knob): kSequential is the historical
  // Σε bound; kAdvanced / kRdp compose the mechanism-level events Release /
  // Sweep / Answer thread through, so a long-lived tenant's cumulative
  // (ε, δ) at its δ is tighter than the naive totals (docs/ACCOUNTING.md).
  [[nodiscard]] static DisclosureSession Attach(
      std::shared_ptr<const CompiledDisclosure> compiled, double epsilon_cap,
      double delta_cap);

  [[nodiscard]] static DisclosureSession Attach(
      std::shared_ptr<const CompiledDisclosure> compiled, double epsilon_cap,
      double delta_cap, gdp::dp::AccountingPolicy accounting);

  // Attach with the artifact's default caps (spec().epsilon_cap/delta_cap).
  [[nodiscard]] static DisclosureSession Attach(
      std::shared_ptr<const CompiledDisclosure> compiled);

  // Rebuild a tenant handle from its durable charge history instead of
  // charging afresh: every replayed charge (the first one is normally the
  // original phase-1 spend) is committed through
  // BudgetLedger::RestoreCharge — no cap check, because an admitted
  // historical spend is a fact the recovery must reproduce even if the caps
  // have since shrunk.  Unlike Attach, Restore does NOT charge the
  // artifact's Phase-1 spend again: the tenant already paid it in a previous
  // life and the replayed history carries that charge.  Throws
  // std::invalid_argument on a null artifact or a malformed replayed event
  // (log corruption must not be absorbed silently).
  [[nodiscard]] static DisclosureSession Restore(
      std::shared_ptr<const CompiledDisclosure> compiled, double epsilon_cap,
      double delta_cap, gdp::dp::AccountingPolicy accounting,
      std::span<const ReplayedCharge> charges);

  // Movable, not copyable (the ledger is an audit trail, not a value).
  DisclosureSession(DisclosureSession&&) noexcept = default;
  DisclosureSession& operator=(DisclosureSession&&) noexcept = default;
  DisclosureSession(const DisclosureSession&) = delete;
  DisclosureSession& operator=(const DisclosureSession&) = delete;
  ~DisclosureSession() = default;

  // One multi-level release under `budget`, drawn from `rng`, with zero
  // graph scans (all statistics come from the shared plan).  Validates the
  // budget (InvalidBudgetError) and charges the ledger
  // (BudgetExhaustedError) BEFORE any noise is drawn: a rejected call
  // consumes neither randomness nor budget, and the audit trail never
  // under-reports a draw.  `label` overrides the ledger entry text.
  [[nodiscard]] MultiLevelRelease Release(const BudgetSpec& budget,
                                          gdp::common::Rng& rng,
                                          std::string label = {});

  // Release with the session's default budget (spec().budget).
  [[nodiscard]] MultiLevelRelease Release(gdp::common::Rng& rng,
                                          std::string label = {});

  // Check-and-release for the serving layer: identical to Release except
  // that a grant the ledger cannot cover returns nullopt (ledger and rng
  // untouched) instead of throwing — admission control is an expected
  // outcome, not exception-driven control flow.  An uncalibratable budget
  // still throws InvalidBudgetError (a configuration error).
  [[nodiscard]] std::optional<MultiLevelRelease> TryRelease(
      const BudgetSpec& budget, gdp::common::Rng& rng, std::string label = {});

  // TryRelease with an external admission gate, the durable serving layer's
  // charge path.  Order of operations is the write-ahead contract:
  //   1. validate the budget (InvalidBudgetError — nothing spent),
  //   2. check this session's own ledger (nullopt — nothing spent),
  //   3. run `gate(event)`: false or a throw denies/aborts with the ledger
  //      and rng still untouched,
  //   4. commit the ledger charge, then draw noise.
  // A gate that persists the event durably therefore guarantees every crash
  // point errs toward "budget spent", never toward unaccounted disclosure:
  // noise exists only after the gate succeeded.  A null gate is exactly
  // TryRelease above.
  [[nodiscard]] std::optional<MultiLevelRelease> TryRelease(
      const BudgetSpec& budget, gdp::common::Rng& rng, std::string label,
      const ChargeGate& gate);

  // One release per budget — the ε-sweep primitive.  ALL budgets are
  // validated before any noise is drawn (a bad third point rejects the
  // whole sweep with InvalidBudgetError, leaving rng and ledger untouched),
  // and the batch's TOTAL spend is checked against the session grant up
  // front (BudgetExhaustedError) — a sweep never fails mid-batch with some
  // points already drawn and charged.
  // Each point draws from its own child stream forked from `rng` in budget
  // order before the first release, so sweep points carry independent noise
  // regardless of how many points precede them.  Ledger entries are
  // sweep-labelled ("sweep[i] ...").
  [[nodiscard]] std::vector<MultiLevelRelease> Sweep(
      std::span<const BudgetSpec> budgets, gdp::common::Rng& rng);

  // Drill-down over a release produced by (or shaped like) this session's
  // hierarchy: the enclosing-group chain of node (side, v) with its
  // released counts, from max_level down to min_level.  Pure
  // post-processing — no privacy cost, no ledger charge.  Delegates to the
  // shared artifact's race-free lazy HierarchyIndex; safe concurrently with
  // other tenants' calls.
  [[nodiscard]] std::vector<DrillDownEntry> Drilldown(
      const MultiLevelRelease& release, gdp::hier::Side side,
      gdp::hier::NodeIndex v, int max_level, int min_level) const;

  // Answer `queries` at one hierarchy level under `budget` (values and draw
  // order: CompiledDisclosure::Answer), charging the ledger ONE event of
  // count = k for k queries: they all read the same data, so they compose
  // sequentially into (k·ε₂, k·δ).  The budget shape, the level and the
  // query shapes are checked before the charge (throws — nothing spent).
  [[nodiscard]] std::vector<QueryResult> Answer(
      std::span<const QuerySpec> queries, int level, const BudgetSpec& budget,
      gdp::common::Rng& rng, std::string label = {});

  // Check-and-answer for the serving layer: TryRelease's contract applied to
  // Answer.  The order of operations is the same write-ahead discipline:
  //   1. check the budget, level and query shapes (throws — nothing spent),
  //   2. check this session's own ledger (nullopt — nothing spent),
  //   3. run `gate(event)`: false or a throw denies/aborts, nothing spent,
  //   4. commit the ledger charge, then draw.
  // The charged event is identical to Answer's.  A null gate skips step 3.
  [[nodiscard]] std::optional<std::vector<QueryResult>> TryAnswer(
      std::span<const QuerySpec> queries, int level, const BudgetSpec& budget,
      gdp::common::Rng& rng, std::string label, const ChargeGate& gate);

  // See CompiledDisclosure::ValidateBudget.
  void ValidateBudget(const BudgetSpec& budget) const {
    compiled_->ValidateBudget(budget);
  }

  // The shared artifact this session views (attach further tenants to it).
  [[nodiscard]] const std::shared_ptr<const CompiledDisclosure>& compiled()
      const noexcept {
    return compiled_;
  }
  // The artifact's publication spec.  NOTE: its epsilon_cap/delta_cap are
  // the DEFAULT grant; this session's actual caps live on ledger().
  [[nodiscard]] const SessionSpec& spec() const noexcept {
    return compiled_->spec();
  }
  [[nodiscard]] const gdp::hier::GroupHierarchy& hierarchy() const noexcept {
    return compiled_->hierarchy();
  }
  [[nodiscard]] const ReleasePlan& plan() const noexcept {
    return compiled_->plan();
  }
  [[nodiscard]] const gdp::dp::BudgetLedger& ledger() const noexcept {
    return ledger_;
  }
  [[nodiscard]] double phase1_epsilon_spent() const noexcept {
    return compiled_->phase1_epsilon_spent();
  }
  [[nodiscard]] int num_releases() const noexcept { return num_releases_; }
  // The charge the latest TryRelease / TryAnswer ledger check refused —
  // num_levels sequential mechanisms under strict_level_charging, k queries
  // for an answer — or nullopt when that charge fit the ledger.  The
  // serving layer names the binding cap and the need from it.
  [[nodiscard]] const std::optional<gdp::dp::MechanismEvent>& last_refusal()
      const noexcept {
    return last_refusal_;
  }

  // Consume the session, yielding its hierarchy (the open-release-close
  // wrapper's exit path).  Moves the hierarchy out of the artifact when this
  // session is its sole owner — the artifact is dying with the session, so
  // the move is unobservable; copies when the artifact is shared.
  [[nodiscard]] gdp::hier::GroupHierarchy TakeHierarchy() &&;

 private:
  DisclosureSession(std::shared_ptr<const CompiledDisclosure> compiled,
                    double epsilon_cap, double delta_cap,
                    gdp::dp::AccountingPolicy accounting);

  // The Try* ledger check: true when `event` fits the ledger; records the
  // refusal (last_refusal) either way.
  [[nodiscard]] bool AdmittedByLedger(const gdp::dp::MechanismEvent& event);

  std::shared_ptr<const CompiledDisclosure> compiled_;
  gdp::dp::BudgetLedger ledger_;
  int num_releases_{0};
  int num_answers_{0};  // keeps default Answer audit labels unique
  std::optional<gdp::dp::MechanismEvent> last_refusal_;
};

}  // namespace gdp::core
