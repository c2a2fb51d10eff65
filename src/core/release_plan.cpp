#include "core/release_plan.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "core/group_sensitivity.hpp"

namespace gdp::core {

using gdp::graph::EdgeCount;

ReleasePlan ReleasePlan::FromAllSums(
    std::uint64_t num_edges, const std::vector<std::vector<EdgeCount>>& all_sums) {
  const std::vector<EdgeCount> maxes =
      gdp::hier::GroupHierarchy::LevelSensitivitiesFromSums(all_sums);
  std::vector<std::uint64_t> offsets;
  offsets.reserve(all_sums.size() + 1);
  offsets.push_back(0);
  std::size_t total = 0;
  for (const auto& level : all_sums) {
    total += level.size();
    offsets.push_back(total);
  }
  std::vector<EdgeCount> flat;
  flat.reserve(total);
  for (const auto& level : all_sums) {
    flat.insert(flat.end(), level.begin(), level.end());
  }
  ReleasePlan plan;
  plan.num_edges_ = num_edges;
  plan.level_offsets_ =
      gdp::storage::ColumnView<std::uint64_t>(std::move(offsets));
  plan.sums_ = gdp::storage::ColumnView<EdgeCount>(std::move(flat));
  plan.max_sums_ = gdp::storage::ColumnView<EdgeCount>(maxes);
  return plan;
}

ReleasePlan ReleasePlan::Build(const gdp::graph::BipartiteGraph& graph,
                               const gdp::hier::GroupHierarchy& hierarchy) {
  return FromAllSums(graph.num_edges(), hierarchy.AllGroupDegreeSums(graph));
}

ReleasePlan ReleasePlan::FromColumns(
    std::uint64_t num_edges,
    gdp::storage::ColumnView<std::uint64_t> level_offsets,
    gdp::storage::ColumnView<EdgeCount> sums,
    gdp::storage::ColumnView<EdgeCount> max_sums) {
  using gdp::common::SnapshotFormatError;
  if (level_offsets.empty()) {
    throw SnapshotFormatError(
        "ReleasePlan::FromColumns: empty level-offset table");
  }
  const std::span<const std::uint64_t> offsets = level_offsets.view();
  const std::size_t num_levels = offsets.size() - 1;
  if (offsets.front() != 0 || offsets.back() != sums.size()) {
    throw SnapshotFormatError(
        "ReleasePlan::FromColumns: level offsets must start at 0 and end at "
        "the sums column length (" +
        std::to_string(sums.size()) + "), got [" +
        std::to_string(offsets.front()) + ", " +
        std::to_string(offsets.back()) + "]");
  }
  if (max_sums.size() != num_levels) {
    throw SnapshotFormatError(
        "ReleasePlan::FromColumns: max_sums has " +
        std::to_string(max_sums.size()) + " entries for " +
        std::to_string(num_levels) + " levels");
  }
  const std::span<const EdgeCount> flat = sums.view();
  for (std::size_t level = 0; level < num_levels; ++level) {
    if (offsets[level + 1] < offsets[level]) {
      throw SnapshotFormatError(
          "ReleasePlan::FromColumns: level offsets not monotone at level " +
          std::to_string(level));
    }
    // A tampered Δℓ would mis-calibrate every mechanism at this level, so
    // recompute the max instead of trusting the stored column.
    EdgeCount max = 0;
    for (std::uint64_t i = offsets[level]; i < offsets[level + 1]; ++i) {
      max = std::max(max, flat[static_cast<std::size_t>(i)]);
    }
    if (max_sums[level] != max) {
      throw SnapshotFormatError(
          "ReleasePlan::FromColumns: stored sensitivity " +
          std::to_string(max_sums[level]) + " at level " +
          std::to_string(level) + " disagrees with the sums column (max " +
          std::to_string(max) + ")");
    }
  }
  ReleasePlan plan;
  plan.num_edges_ = num_edges;
  plan.level_offsets_ = std::move(level_offsets);
  plan.sums_ = std::move(sums);
  plan.max_sums_ = std::move(max_sums);
  return plan;
}

std::span<const EdgeCount> ReleasePlan::GroupDegreeSums(int level) const {
  if (level < 0 || level >= num_levels()) {
    throw std::out_of_range("ReleasePlan::GroupDegreeSums: level out of range");
  }
  const auto begin =
      static_cast<std::size_t>(level_offsets_[static_cast<std::size_t>(level)]);
  const auto end = static_cast<std::size_t>(
      level_offsets_[static_cast<std::size_t>(level) + 1]);
  return sums_.view().subspan(begin, end - begin);
}

EdgeCount ReleasePlan::CountSensitivity(int level) const {
  if (level < 0 || level >= num_levels()) {
    throw std::out_of_range("ReleasePlan::CountSensitivity: level out of range");
  }
  return max_sums_[static_cast<std::size_t>(level)];
}

double ReleasePlan::VectorSensitivity(int level) const {
  return VectorSensitivityFromScalar(CountSensitivity(level)).value();
}

}  // namespace gdp::core
