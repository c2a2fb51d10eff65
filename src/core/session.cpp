#include "core/session.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"

namespace gdp::core {

DisclosureSession DisclosureSession::Open(
    const gdp::graph::BipartiteGraph& graph, const SessionSpec& spec,
    gdp::common::Rng& rng) {
  return Attach(CompiledDisclosure::Compile(graph, spec, rng),
                spec.epsilon_cap, spec.delta_cap);
}

DisclosureSession DisclosureSession::Attach(
    std::shared_ptr<const CompiledDisclosure> compiled, double epsilon_cap,
    double delta_cap) {
  if (compiled == nullptr) {
    throw std::invalid_argument("DisclosureSession::Attach: null artifact");
  }
  const gdp::dp::AccountingPolicy accounting = compiled->spec().accounting;
  return Attach(std::move(compiled), epsilon_cap, delta_cap, accounting);
}

DisclosureSession DisclosureSession::Attach(
    std::shared_ptr<const CompiledDisclosure> compiled, double epsilon_cap,
    double delta_cap, gdp::dp::AccountingPolicy accounting) {
  if (compiled == nullptr) {
    throw std::invalid_argument("DisclosureSession::Attach: null artifact");
  }
  DisclosureSession session(std::move(compiled), epsilon_cap, delta_cap,
                            accounting);
  // The EM specialization is a pure-ε mechanism; saying so (instead of an
  // opaque charge) lets an RDP-backed ledger keep it on the Rényi curve.
  session.ledger_.Charge(
      gdp::dp::MechanismEvent::PureEps(session.compiled_->phase1_epsilon_spent()),
      "phase1: EM specialization");
  return session;
}

DisclosureSession DisclosureSession::Restore(
    std::shared_ptr<const CompiledDisclosure> compiled, double epsilon_cap,
    double delta_cap, gdp::dp::AccountingPolicy accounting,
    std::span<const ReplayedCharge> charges) {
  if (compiled == nullptr) {
    throw std::invalid_argument("DisclosureSession::Restore: null artifact");
  }
  DisclosureSession session(std::move(compiled), epsilon_cap, delta_cap,
                            accounting);
  // No fresh phase-1 charge: the replayed history already carries the one
  // this tenant paid.  RestoreCharge bypasses the caps — spent budget is a
  // fact recovery must reproduce, never "lose" back to the tenant.
  for (const ReplayedCharge& charge : charges) {
    session.ledger_.RestoreCharge(charge.event, charge.label);
  }
  return session;
}

DisclosureSession DisclosureSession::Attach(
    std::shared_ptr<const CompiledDisclosure> compiled) {
  if (compiled == nullptr) {
    throw std::invalid_argument("DisclosureSession::Attach: null artifact");
  }
  const SessionSpec& spec = compiled->spec();
  return Attach(std::move(compiled), spec.epsilon_cap, spec.delta_cap);
}

DisclosureSession::DisclosureSession(
    std::shared_ptr<const CompiledDisclosure> compiled, double epsilon_cap,
    double delta_cap, gdp::dp::AccountingPolicy accounting)
    : compiled_(std::move(compiled)),
      ledger_(epsilon_cap, delta_cap, accounting) {
  // The ctor leaves the ledger empty: Attach charges the phase-1 spend
  // (and throws on an insufficient grant), Restore replays the history
  // that already contains it.
}

namespace {

std::string DefaultReleaseLabel(int release_index, const BudgetSpec& budget) {
  return "release[" + std::to_string(release_index) +
         "]: phase2 noise eps_g=" + std::to_string(budget.phase2_epsilon()) +
         " (" + NoiseKindName(budget.noise) + ")";
}

std::string DefaultAnswerLabel(int answer_index, std::size_t num_queries,
                               int level, const BudgetSpec& budget) {
  return "answer[" + std::to_string(answer_index) + "]: " +
         std::to_string(num_queries) + " queries at L" +
         std::to_string(level) +
         ", eps=" + std::to_string(budget.phase2_epsilon()) + " each (" +
         NoiseKindName(budget.noise) + ")";
}

// The event ONE Answer charges: k identical mechanisms at (ε₂, δ) composed
// sequentially; an empty query list claims nothing.
gdp::dp::MechanismEvent AnswerEventFor(std::size_t num_queries,
                                       const BudgetSpec& budget) {
  gdp::dp::MechanismEvent event =
      num_queries == 0
          ? gdp::dp::MechanismEvent::Opaque(0.0, 0.0)
          : MechanismEventFor(budget.noise, budget.phase2_epsilon(),
                              budget.delta);
  event.count = std::max<int>(1, static_cast<int>(num_queries));
  return event;
}

}  // namespace

MultiLevelRelease DisclosureSession::Release(const BudgetSpec& budget,
                                             gdp::common::Rng& rng,
                                             std::string label) {
  ValidateBudget(budget);
  if (label.empty()) {
    label = DefaultReleaseLabel(num_releases_, budget);
  }
  // Charge before drawing: a cap overrun rejects the release while the rng
  // is still untouched, and the audit trail never misses a draw.  The charge
  // is a mechanism-level event (noise kind + multiplier), so a non-
  // sequential accountant can compose it tighter than the (ε, δ) claim.
  ledger_.Charge(compiled_->ChargeEventFor(budget), std::move(label));
  MultiLevelRelease release = compiled_->DrawRelease(budget, rng);
  ++num_releases_;
  return release;
}

MultiLevelRelease DisclosureSession::Release(gdp::common::Rng& rng,
                                             std::string label) {
  return Release(spec().budget, rng, std::move(label));
}

std::optional<MultiLevelRelease> DisclosureSession::TryRelease(
    const BudgetSpec& budget, gdp::common::Rng& rng, std::string label) {
  return TryRelease(budget, rng, std::move(label), nullptr);
}

std::optional<MultiLevelRelease> DisclosureSession::TryRelease(
    const BudgetSpec& budget, gdp::common::Rng& rng, std::string label,
    const ChargeGate& gate) {
  ValidateBudget(budget);
  if (label.empty()) {
    label = DefaultReleaseLabel(num_releases_, budget);
  }
  const gdp::dp::MechanismEvent event = compiled_->ChargeEventFor(budget);
  // Own-ledger admission first: a grant this session cannot cover must not
  // reach the gate (the gate may persist the event durably — an inadmissible
  // charge must never hit the log).
  if (!AdmittedByLedger(event)) {
    return std::nullopt;
  }
  // Write-ahead seam: the gate runs with the ledger and rng still untouched,
  // so a gate denial (or throw, e.g. a durability failure) spends nothing
  // here — while a gate that persisted the event before returning true
  // guarantees the charge outlives any crash after this point.
  if (gate && !gate(event)) {
    return std::nullopt;
  }
  ledger_.Charge(event, std::move(label));
  MultiLevelRelease release = compiled_->DrawRelease(budget, rng);
  ++num_releases_;
  return release;
}

std::vector<MultiLevelRelease> DisclosureSession::Sweep(
    std::span<const BudgetSpec> budgets, gdp::common::Rng& rng) {
  // Validate the WHOLE sweep before any draw or charge: a bad point leaves
  // rng and ledger exactly as they were.
  double total_eps = 0.0;
  double total_delta = 0.0;
  std::vector<gdp::dp::MechanismEvent> events;
  events.reserve(budgets.size());
  for (const BudgetSpec& budget : budgets) {
    ValidateBudget(budget);
    events.push_back(compiled_->ChargeEventFor(budget));
    total_eps += budget.phase2_epsilon();
    total_delta += budget.delta;
  }
  // Cap check for the whole batch, so a sweep the grant cannot cover is
  // rejected as atomically as a bad point — not mid-batch with some points
  // already drawn and charged.  The check replays the batch's EVENTS through
  // the ledger's accountant: under a non-sequential policy, per-point
  // guarantees do not simply add, so a Σε pre-check would not be the check
  // the per-point charges later run.
  if (ledger_.WouldExceedAll(events)) {
    throw gdp::common::BudgetExhaustedError(
        "DisclosureSession::Sweep: the batch would exceed the session grant "
        "(needs eps=" +
        std::to_string(total_eps) + ", delta=" + std::to_string(total_delta) +
        " beyond what is already spent)");
  }
  // One child stream per point, forked in budget order up front, so point
  // i's noise is independent of the other points' settings.
  std::vector<gdp::common::Rng> streams = rng.ForkStreams(budgets.size());
  std::vector<MultiLevelRelease> releases;
  releases.reserve(budgets.size());
  for (std::size_t i = 0; i < budgets.size(); ++i) {
    const BudgetSpec& budget = budgets[i];
    releases.push_back(Release(
        budget, streams[i],
        "sweep[" + std::to_string(i) +
            "]: phase2 noise eps_g=" + std::to_string(budget.phase2_epsilon()) +
            " (" + NoiseKindName(budget.noise) + ")"));
  }
  return releases;
}

std::vector<DrillDownEntry> DisclosureSession::Drilldown(
    const MultiLevelRelease& release, gdp::hier::Side side,
    gdp::hier::NodeIndex v, int max_level, int min_level) const {
  return compiled_->Drilldown(release, side, v, max_level, min_level);
}

std::vector<QueryResult> DisclosureSession::Answer(
    std::span<const QuerySpec> queries, int level, const BudgetSpec& budget,
    gdp::common::Rng& rng, std::string label) {
  ValidateBudgetShape(budget);
  // Everything that can fail must fail BEFORE the charge below: a rejected
  // call must not leave phantom spend on the ledger.
  compiled_->CheckLevel(level, "DisclosureSession::Answer");
  ValidateQueries(queries);
  if (label.empty()) {
    label = DefaultAnswerLabel(num_answers_, queries.size(), level, budget);
  }
  // Same order as Release: commit the spend, then draw (the artifact
  // re-runs the O(k) checks above).  One event with count = k: k identical
  // mechanisms at (ε₂, δ), each against its own query's Δ but — both
  // Gaussian calibrations being scale-free — all at the same noise
  // multiplier.
  ledger_.Charge(AnswerEventFor(queries.size(), budget), std::move(label));
  ++num_answers_;
  return compiled_->Answer(queries, level, budget, rng);
}

std::optional<std::vector<QueryResult>> DisclosureSession::TryAnswer(
    std::span<const QuerySpec> queries, int level, const BudgetSpec& budget,
    gdp::common::Rng& rng, std::string label, const ChargeGate& gate) {
  ValidateBudgetShape(budget);
  compiled_->CheckLevel(level, "DisclosureSession::TryAnswer");
  ValidateQueries(queries);
  if (label.empty()) {
    label = DefaultAnswerLabel(num_answers_, queries.size(), level, budget);
  }
  const gdp::dp::MechanismEvent event = AnswerEventFor(queries.size(), budget);
  // Same admission order as the gated TryRelease: own ledger first (an
  // inadmissible charge must never reach a gate that persists events), then
  // the gate with ledger and rng still untouched, then commit and draw.
  if (!AdmittedByLedger(event)) {
    return std::nullopt;
  }
  if (gate && !gate(event)) {
    return std::nullopt;
  }
  ledger_.Charge(event, std::move(label));
  ++num_answers_;
  return compiled_->Answer(queries, level, budget, rng);
}

bool DisclosureSession::AdmittedByLedger(const gdp::dp::MechanismEvent& event) {
  if (ledger_.WouldExceed(event)) {
    last_refusal_ = event;
    return false;
  }
  last_refusal_.reset();
  return true;
}

gdp::hier::GroupHierarchy DisclosureSession::TakeHierarchy() && {
  // Sole owner: the artifact dies when compiled_ resets below, so moving its
  // hierarchy out is unobservable (this is the one-shot wrapper's exit path,
  // where copying a depth-9 label set would dominate small-graph runs).  The
  // const_cast is confined to this provably-unshared case.
  if (compiled_.use_count() == 1) {
    return std::move(const_cast<CompiledDisclosure&>(*compiled_).hierarchy_);
  }
  return compiled_->hierarchy();
}

}  // namespace gdp::core
