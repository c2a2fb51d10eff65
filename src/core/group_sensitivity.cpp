#include "core/group_sensitivity.hpp"

#include <cmath>
#include <stdexcept>

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

}  // namespace gdp::core
