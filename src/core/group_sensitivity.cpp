#include "core/group_sensitivity.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dp/private_quantile.hpp"

namespace gdp::core {

EdgeCount CountSensitivity(const BipartiteGraph& graph, const Partition& level) {
  return level.MaxGroupDegreeSum(graph);
}

gdp::dp::L2Sensitivity VectorSensitivityFromScalar(EdgeCount scalar) {
  if (scalar == 0) {
    throw std::invalid_argument(
        "VectorSensitivity: level has zero sensitivity (edgeless graph); "
        "release exact zeros instead of calibrating a mechanism");
  }
  return gdp::dp::L2Sensitivity(std::sqrt(2.0) * static_cast<double>(scalar));
}

gdp::dp::L2Sensitivity VectorSensitivity(const BipartiteGraph& graph,
                                         const Partition& level) {
  return VectorSensitivityFromScalar(CountSensitivity(graph, level));
}

gdp::graph::EdgeCount EstimateDegreeCapDp(const BipartiteGraph& graph,
                                          gdp::dp::Epsilon eps, double quantile,
                                          double headroom,
                                          gdp::common::Rng& rng) {
  if (!(headroom >= 1.0)) {
    throw std::invalid_argument("EstimateDegreeCapDp: headroom must be >= 1");
  }
  std::vector<double> degrees;
  degrees.reserve(static_cast<std::size_t>(graph.total_nodes()));
  for (const auto side : {gdp::graph::Side::kLeft, gdp::graph::Side::kRight}) {
    for (const auto d : graph.Degrees(side)) {
      degrees.push_back(static_cast<double>(d));
    }
  }
  gdp::dp::QuantileParams params;
  params.quantile = quantile;
  params.lower_bound = 0.0;
  // Public range upper bound: a node can touch at most every association of
  // the smaller side; use total node count as a generous public ceiling.
  params.upper_bound =
      std::max(1.0, static_cast<double>(graph.total_nodes()));
  const double estimate =
      gdp::dp::PrivateQuantile(std::move(degrees), params, eps, rng);
  return static_cast<gdp::graph::EdgeCount>(
      std::max(1.0, std::ceil(estimate * headroom)));
}

}  // namespace gdp::core
