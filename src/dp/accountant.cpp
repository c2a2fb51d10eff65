#include "dp/accountant.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace gdp::dp {

BudgetCharge ComposeAdvanced(Epsilon eps, double delta, int k, double delta_slack) {
  if (k <= 0) {
    throw std::invalid_argument("ComposeAdvanced: k must be positive");
  }
  if (!(delta >= 0.0) || !(delta < 1.0)) {
    throw std::invalid_argument("ComposeAdvanced: delta must be in [0, 1)");
  }
  if (!(delta_slack > 0.0) || !(delta_slack < 1.0)) {
    throw std::invalid_argument("ComposeAdvanced: delta_slack must be in (0, 1)");
  }
  const double e = eps.value();
  const auto kd = static_cast<double>(k);
  BudgetCharge total;
  total.label = "advanced";
  total.epsilon =
      e * std::sqrt(2.0 * kd * std::log(1.0 / delta_slack)) + kd * e * std::expm1(e);
  total.delta = kd * delta + delta_slack;
  return total;
}

BudgetLedger::BudgetLedger(double epsilon_cap, double delta_cap)
    : BudgetLedger(epsilon_cap, delta_cap, AccountingPolicy::kSequential) {}

BudgetLedger::BudgetLedger(double epsilon_cap, double delta_cap,
                           AccountingPolicy policy)
    : eps_cap_(epsilon_cap),
      delta_cap_(delta_cap),
      policy_(policy),
      accountant_(MakeAccountant(policy)) {
  if (!(epsilon_cap > 0.0) || !std::isfinite(epsilon_cap)) {
    throw std::invalid_argument("BudgetLedger: epsilon_cap must be > 0");
  }
  if (!(delta_cap >= 0.0) || !(delta_cap < 1.0)) {
    throw std::invalid_argument("BudgetLedger: delta_cap must be in [0, 1)");
  }
  if (policy != AccountingPolicy::kSequential && !(delta_cap > 0.0)) {
    throw std::invalid_argument(
        std::string("BudgetLedger: the ") + AccountingPolicyName(policy) +
        " policy converts through a delta slack and requires delta_cap > 0");
  }
}

BudgetLedger::BudgetLedger(const BudgetLedger& other)
    : eps_cap_(other.eps_cap_),
      delta_cap_(other.delta_cap_),
      eps_spent_(other.eps_spent_),
      delta_spent_(other.delta_spent_),
      policy_(other.policy_),
      accountant_(other.accountant_->Clone()),
      charges_(other.charges_),
      events_(other.events_) {}

BudgetLedger& BudgetLedger::operator=(const BudgetLedger& other) {
  if (this != &other) {
    BudgetLedger copy(other);
    *this = std::move(copy);
  }
  return *this;
}

bool BudgetLedger::WouldExceed(double epsilon, double delta) const {
  return WouldExceed(MechanismEvent::Opaque(epsilon, delta));
}

bool BudgetLedger::WouldExceed(const MechanismEvent& event) const {
  return accountant_->WouldExceed(event, eps_cap_, delta_cap_);
}

const char* BudgetLedger::BindingCap(const MechanismEvent& event) const {
  MechanismEvent eps_only = event;
  eps_only.delta = 0.0;
  return accountant_->WouldExceed(eps_only, eps_cap_, delta_cap_) ? "epsilon"
                                                                  : "delta";
}

bool BudgetLedger::WouldExceedAll(
    std::span<const MechanismEvent> events) const {
  const std::unique_ptr<PrivacyAccountant> probe = accountant_->Clone();
  for (const MechanismEvent& event : events) {
    probe->Spend(event);
  }
  const BudgetCharge guarantee = probe->AdmissionGuarantee(delta_cap_);
  return ExceedsBudgetCaps(guarantee.epsilon, guarantee.delta, eps_cap_,
                           delta_cap_);
}

void BudgetLedger::CommitCharge(const MechanismEvent& event,
                                std::string label) {
  accountant_->Spend(event);
  eps_spent_ += event.TotalEpsilon();
  delta_spent_ += event.TotalDelta();
  charges_.push_back(
      BudgetCharge{event.TotalEpsilon(), event.TotalDelta(), std::move(label)});
  events_.push_back(event);
}

void BudgetLedger::Charge(double epsilon, double delta, std::string label) {
  Charge(MechanismEvent::Opaque(epsilon, delta), std::move(label));
}

void BudgetLedger::Charge(const MechanismEvent& event, std::string label) {
  ValidateMechanismEvent(event);
  if (WouldExceed(event)) {
    throw gdp::common::BudgetExhaustedError(
        std::string("BudgetLedger: ") + BindingCap(event) +
        " cap exceeded by charge '" + label + "'");
  }
  CommitCharge(event, std::move(label));
}

bool BudgetLedger::TryCharge(double epsilon, double delta, std::string label) {
  return TryCharge(MechanismEvent::Opaque(epsilon, delta), std::move(label));
}

bool BudgetLedger::TryCharge(const MechanismEvent& event, std::string label) {
  // Malformed spends are still programming errors, not admission decisions.
  ValidateMechanismEvent(event);
  if (WouldExceed(event)) {
    return false;
  }
  CommitCharge(event, std::move(label));
  return true;
}

void BudgetLedger::RestoreCharge(const MechanismEvent& event,
                                 std::string label) {
  ValidateMechanismEvent(event);
  CommitCharge(event, std::move(label));
}

BudgetCharge BudgetLedger::AccountedGuarantee(double target_delta) const {
  return accountant_->CumulativeGuarantee(target_delta);
}

BudgetCharge BudgetLedger::AccountedSpend() const {
  return accountant_->AdmissionGuarantee(delta_cap_);
}

BudgetCharge BudgetLedger::AccountedSpendWith(
    const MechanismEvent& event) const {
  return accountant_->GuaranteeWith(event, delta_cap_);
}

std::string BudgetLedger::AuditReport() const {
  std::ostringstream os;
  os << "budget ledger (cap eps=" << eps_cap_ << ", delta=" << delta_cap_
     << ", accounting=" << AccountingPolicyName(policy_) << ")\n";
  for (const auto& c : charges_) {
    os << "  charge eps=" << c.epsilon << " delta=" << c.delta << "  [" << c.label
       << "]\n";
  }
  os << "  total  eps=" << eps_spent_ << " delta=" << delta_spent_ << '\n';
  if (policy_ != AccountingPolicy::kSequential) {
    const BudgetCharge tightened = AccountedSpend();
    os << "  " << AccountingPolicyName(policy_)
       << "-accounted eps=" << tightened.epsilon
       << " delta=" << tightened.delta << " (naive eps=" << eps_spent_
       << ", delta=" << delta_spent_ << ")\n";
  }
  return os.str();
}

}  // namespace gdp::dp
