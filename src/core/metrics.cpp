#include "core/metrics.hpp"

#include <cmath>
#include <stdexcept>

namespace gdp::core {

double RelativeErrorRate(double perturbed, double truth) {
  if (truth == 0.0) {
    throw std::invalid_argument("RelativeErrorRate: truth must be non-zero");
  }
  return std::fabs(perturbed - truth) / std::fabs(truth);
}

namespace {
void CheckPaired(std::span<const double> a, std::span<const double> b,
                 const char* who) {
  if (a.size() != b.size() || a.empty()) {
    throw std::invalid_argument(std::string(who) +
                                ": requires equal, non-empty vectors");
  }
}
}  // namespace

double MeanRelativeErrorRate(std::span<const double> perturbed,
                             std::span<const double> truth) {
  CheckPaired(perturbed, truth, "MeanRelativeErrorRate");
  double sum = 0.0;
  std::size_t counted = 0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    if (truth[i] != 0.0) {
      sum += std::fabs(perturbed[i] - truth[i]) / std::fabs(truth[i]);
      ++counted;
    }
  }
  return counted == 0 ? 0.0 : sum / static_cast<double>(counted);
}

double MeanAbsoluteError(std::span<const double> perturbed,
                         std::span<const double> truth) {
  CheckPaired(perturbed, truth, "MeanAbsoluteError");
  double sum = 0.0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    sum += std::fabs(perturbed[i] - truth[i]);
  }
  return sum / static_cast<double>(truth.size());
}

}  // namespace gdp::core
