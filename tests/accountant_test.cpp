#include "dp/accountant.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

namespace gdp::dp {
namespace {

TEST(ComposeAdvancedTest, MatchesFormula) {
  const double eps = 0.1;
  const int k = 100;
  const double slack = 1e-6;
  const BudgetCharge total = ComposeAdvanced(Epsilon(eps), 1e-8, k, slack);
  const double expected_eps = eps * std::sqrt(2.0 * k * std::log(1.0 / slack)) +
                              k * eps * std::expm1(eps);
  EXPECT_NEAR(total.epsilon, expected_eps, 1e-9);
  EXPECT_NEAR(total.delta, k * 1e-8 + slack, 1e-12);
}

TEST(ComposeAdvancedTest, BeatsSequentialForManySmallQueries) {
  const double eps = 0.01;
  const int k = 1000;
  const BudgetCharge adv = ComposeAdvanced(Epsilon(eps), 0.0, k, 1e-6);
  EXPECT_LT(adv.epsilon, eps * k);
}

TEST(ComposeAdvancedTest, RejectsBadArguments) {
  EXPECT_THROW((void)ComposeAdvanced(Epsilon(0.1), 0.0, 0, 1e-6),
               std::invalid_argument);
  EXPECT_THROW((void)ComposeAdvanced(Epsilon(0.1), -0.1, 10, 1e-6),
               std::invalid_argument);
  EXPECT_THROW((void)ComposeAdvanced(Epsilon(0.1), 0.0, 10, 0.0),
               std::invalid_argument);
  EXPECT_THROW((void)ComposeAdvanced(Epsilon(0.1), 0.0, 10, 1.0),
               std::invalid_argument);
}

// Regression (input-validation satellite): negative k, δ = 1, and
// non-finite arguments must all fail the typed checks — none may reach the
// composition arithmetic.
TEST(ComposeAdvancedTest, RejectsNegativeKAndNonFiniteArguments) {
  EXPECT_THROW((void)ComposeAdvanced(Epsilon(0.1), 0.0, -5, 1e-6),
               std::invalid_argument);
  EXPECT_THROW((void)ComposeAdvanced(Epsilon(0.1), 1.0, 10, 1e-6),
               std::invalid_argument);
  EXPECT_THROW((void)ComposeAdvanced(
                   Epsilon(0.1), std::numeric_limits<double>::quiet_NaN(), 10,
                   1e-6),
               std::invalid_argument);
  EXPECT_THROW((void)ComposeAdvanced(Epsilon(0.1), 0.0, 10,
                                     std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW((void)ComposeAdvanced(Epsilon(0.1), 0.0, 10,
                                     -std::numeric_limits<double>::infinity()),
               std::invalid_argument);
}

TEST(BudgetLedgerTest, RejectsBadCaps) {
  EXPECT_THROW(BudgetLedger(0.0, 0.0), std::invalid_argument);
  EXPECT_THROW(BudgetLedger(1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(BudgetLedger(1.0, -0.1), std::invalid_argument);
}

TEST(BudgetLedgerTest, TracksSpendAndRemaining) {
  BudgetLedger ledger(1.0, 1e-4);
  ledger.Charge(0.4, 1e-5, "phase1");
  ledger.Charge(0.5, 2e-5, "phase2");
  EXPECT_NEAR(ledger.epsilon_spent(), 0.9, 1e-12);
  EXPECT_NEAR(ledger.delta_spent(), 3e-5, 1e-15);
  EXPECT_NEAR(ledger.epsilon_remaining(), 0.1, 1e-12);
  EXPECT_EQ(ledger.charges().size(), 2u);
}

TEST(BudgetLedgerTest, ThrowsOnEpsilonOverspend) {
  BudgetLedger ledger(1.0, 0.0);
  ledger.Charge(0.8, 0.0, "ok");
  EXPECT_THROW(ledger.Charge(0.3, 0.0, "too much"),
               gdp::common::BudgetExhaustedError);
  // A failed charge must not change the ledger.
  EXPECT_NEAR(ledger.epsilon_spent(), 0.8, 1e-12);
  EXPECT_EQ(ledger.charges().size(), 1u);
}

TEST(BudgetLedgerTest, ThrowsOnDeltaOverspend) {
  BudgetLedger ledger(10.0, 1e-6);
  EXPECT_THROW(ledger.Charge(0.1, 1e-5, "delta too big"),
               gdp::common::BudgetExhaustedError);
}

TEST(BudgetLedgerTest, ExactCapIsAllowed) {
  BudgetLedger ledger(1.0, 1e-5);
  EXPECT_NO_THROW(ledger.Charge(1.0, 1e-5, "all of it"));
  EXPECT_NEAR(ledger.epsilon_remaining(), 0.0, 1e-9);
}

TEST(BudgetLedgerTest, ManySmallChargesToleratesFloatAccumulation) {
  BudgetLedger ledger(1.0, 0.0);
  for (int i = 0; i < 10; ++i) {
    EXPECT_NO_THROW(ledger.Charge(0.1, 0.0, "slice"));
  }
  EXPECT_NEAR(ledger.epsilon_spent(), 1.0, 1e-9);
}

TEST(BudgetLedgerTest, RejectsNegativeCharge) {
  BudgetLedger ledger(1.0, 0.0);
  EXPECT_THROW(ledger.Charge(-0.1, 0.0, "negative"), std::invalid_argument);
}

TEST(BudgetLedgerTest, TryChargeRecordsWhenItFits) {
  BudgetLedger ledger(1.0, 1e-4);
  EXPECT_TRUE(ledger.TryCharge(0.6, 1e-5, "first"));
  EXPECT_NEAR(ledger.epsilon_spent(), 0.6, 1e-12);
  ASSERT_EQ(ledger.charges().size(), 1u);
  EXPECT_EQ(ledger.charges()[0].label, "first");
}

TEST(BudgetLedgerTest, TryChargeDeniesWithoutMutating) {
  BudgetLedger ledger(1.0, 1e-4);
  EXPECT_TRUE(ledger.TryCharge(0.6, 1e-5, "first"));
  EXPECT_FALSE(ledger.TryCharge(0.6, 1e-5, "overrun"));
  EXPECT_NEAR(ledger.epsilon_spent(), 0.6, 1e-12);
  EXPECT_EQ(ledger.charges().size(), 1u)
      << "a denied TryCharge must leave the ledger untouched";
  // Denial is exactly WouldExceed's answer; a fitting charge still lands.
  EXPECT_TRUE(ledger.WouldExceed(0.6, 0.0));
  EXPECT_FALSE(ledger.WouldExceed(0.4, 0.0));
  EXPECT_TRUE(ledger.TryCharge(0.4, 0.0, "exact fill"));
  EXPECT_FALSE(ledger.TryCharge(1e-6, 0.0, "past the cap"));
}

TEST(BudgetLedgerTest, TryChargeStillThrowsOnMalformedSpend) {
  // A malformed spend is a programming error, not an admission decision.
  BudgetLedger ledger(1.0, 0.0);
  EXPECT_THROW((void)ledger.TryCharge(-0.1, 0.0, "negative"),
               std::invalid_argument);
  EXPECT_THROW((void)ledger.TryCharge(0.1, 1.5, "bad delta"),
               std::invalid_argument);
}

TEST(BudgetLedgerTest, AuditReportListsCharges) {
  BudgetLedger ledger(2.0, 1e-4);
  ledger.Charge(0.5, 1e-5, "specialization");
  ledger.Charge(1.0, 2e-5, "noise");
  const std::string report = ledger.AuditReport();
  EXPECT_NE(report.find("specialization"), std::string::npos);
  EXPECT_NE(report.find("noise"), std::string::npos);
  EXPECT_NE(report.find("total"), std::string::npos);
}

}  // namespace
}  // namespace gdp::dp
