// Utility metrics used throughout the evaluation.
#pragma once

#include <span>

namespace gdp::core {

// Relative error rate RER = |P − T| / T  (the paper's metric).
// Requires T != 0.
[[nodiscard]] double RelativeErrorRate(double perturbed, double truth);

// Mean RER over paired vectors, skipping entries whose truth is 0 (their
// relative error is undefined); returns 0 when every truth is 0.
[[nodiscard]] double MeanRelativeErrorRate(std::span<const double> perturbed,
                                           std::span<const double> truth);

// Mean absolute error over paired vectors.  Requires equal, non-zero sizes.
[[nodiscard]] double MeanAbsoluteError(std::span<const double> perturbed,
                                       std::span<const double> truth);

}  // namespace gdp::core
