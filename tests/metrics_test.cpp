#include "core/metrics.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace gdp::core {
namespace {

TEST(RelativeErrorRateTest, MatchesPaperDefinition) {
  EXPECT_DOUBLE_EQ(RelativeErrorRate(105.0, 100.0), 0.05);
  EXPECT_DOUBLE_EQ(RelativeErrorRate(95.0, 100.0), 0.05);
  EXPECT_DOUBLE_EQ(RelativeErrorRate(100.0, 100.0), 0.0);
}

TEST(RelativeErrorRateTest, NegativeTruthUsesMagnitude) {
  EXPECT_DOUBLE_EQ(RelativeErrorRate(-90.0, -100.0), 0.1);
}

TEST(RelativeErrorRateTest, RejectsZeroTruth) {
  EXPECT_THROW((void)RelativeErrorRate(1.0, 0.0), std::invalid_argument);
}

TEST(MeanRelativeErrorRateTest, AveragesOverNonZeroTruths) {
  const std::vector<double> truth{100.0, 0.0, 50.0};
  const std::vector<double> noisy{110.0, 5.0, 45.0};
  // (0.1 + 0.1)/2 — the zero-truth entry is skipped.
  EXPECT_NEAR(MeanRelativeErrorRate(noisy, truth), 0.1, 1e-12);
}

TEST(MeanRelativeErrorRateTest, AllZeroTruthGivesZero) {
  const std::vector<double> truth{0.0, 0.0};
  const std::vector<double> noisy{1.0, 2.0};
  EXPECT_EQ(MeanRelativeErrorRate(noisy, truth), 0.0);
}

TEST(MeanRelativeErrorRateTest, RejectsMismatchedSizes) {
  const std::vector<double> a{1.0};
  const std::vector<double> b{1.0, 2.0};
  EXPECT_THROW((void)MeanRelativeErrorRate(a, b), std::invalid_argument);
  EXPECT_THROW((void)MeanRelativeErrorRate({}, {}), std::invalid_argument);
}

TEST(MeanAbsoluteErrorTest, Basic) {
  const std::vector<double> truth{1.0, 2.0, 3.0};
  const std::vector<double> noisy{2.0, 0.0, 3.0};
  EXPECT_NEAR(MeanAbsoluteError(noisy, truth), 1.0, 1e-12);
}

}  // namespace
}  // namespace gdp::core
