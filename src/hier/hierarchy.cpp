#include "hier/hierarchy.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

namespace gdp::hier {

namespace {

// One level transition of the rollup: sum child-group sums into their parent
// slots and accumulate rolled child sizes for the conservation check.
// Returns std::nullopt when any parent link is broken (out-of-range id or
// side mismatch) or a coarse group's declared size disagrees with the total
// size of the children that rolled into it — the caller then falls back to a
// direct scan of the coarse level.
std::optional<std::vector<EdgeCount>> RollUpLevel(
    const Partition& fine, const Partition& coarse,
    const std::vector<EdgeCount>& fine_sums) {
  const std::size_t num_fine = fine.num_groups();
  const std::size_t num_coarse = coarse.num_groups();
  const GroupInfo* const children = fine.groups().data();
  const GroupInfo* const parents = coarse.groups().data();
  const EdgeCount* const child_sums = fine_sums.data();

  std::vector<EdgeCount> sums(num_coarse, 0);
  std::vector<NodeIndex> sizes(num_coarse, 0);
  for (std::size_t g = 0; g < num_fine; ++g) {
    const GroupInfo& child = children[g];
    if (child.parent >= num_coarse ||
        child.side != parents[child.parent].side) {
      return std::nullopt;
    }
    sums[child.parent] += child_sums[g];
    sizes[child.parent] += child.size;
  }
  for (std::size_t p = 0; p < num_coarse; ++p) {
    if (sizes[p] != parents[p].size) {
      return std::nullopt;
    }
  }
  return sums;
}

}  // namespace

GroupHierarchy::GroupHierarchy(std::vector<Partition> levels, bool validate)
    : levels_(std::move(levels)) {
  if (levels_.size() < 2) {
    throw std::invalid_argument(
        "GroupHierarchy: need at least the singleton and top levels");
  }
  const NodeIndex nl = levels_.front().num_left_nodes();
  const NodeIndex nr = levels_.front().num_right_nodes();
  for (const Partition& p : levels_) {
    if (p.num_left_nodes() != nl || p.num_right_nodes() != nr) {
      throw std::invalid_argument("GroupHierarchy: level dimension mismatch");
    }
  }
  if (levels_.front().num_groups() !=
      static_cast<GroupId>(static_cast<std::uint64_t>(nl) + nr)) {
    throw std::invalid_argument(
        "GroupHierarchy: level 0 must be the singleton partition");
  }
  if (validate) {
    for (std::size_t i = 1; i < levels_.size(); ++i) {
      if (!levels_[i].IsRefinedBy(levels_[i - 1])) {
        throw std::invalid_argument("GroupHierarchy: level " + std::to_string(i) +
                                    " is not refined by level " +
                                    std::to_string(i - 1));
      }
    }
  }
}

const Partition& GroupHierarchy::level(int i) const {
  if (i < 0 || i >= num_levels()) {
    throw std::out_of_range("GroupHierarchy::level: index out of range");
  }
  return levels_[static_cast<std::size_t>(i)];
}

std::vector<std::vector<EdgeCount>> GroupHierarchy::AllGroupDegreeSums(
    const BipartiteGraph& graph) const {
  std::vector<std::vector<EdgeCount>> all;
  all.reserve(levels_.size());
  // The one node scan: singleton sums are exactly the node degrees.
  all.push_back(levels_.front().GroupDegreeSums(graph));
  for (std::size_t i = 1; i < levels_.size(); ++i) {
    // Refinement (validated at construction) makes each coarse group the
    // disjoint union of its fine children, so summing child sums into the
    // parent slot reproduces a direct scan exactly.  validate=false
    // hierarchies may carry broken parent links; mis-rolled sums would
    // UNDERSTATE a level's sensitivity and silently under-noise the release,
    // so RollUpLevel guards with an O(groups) conservation check — every
    // coarse group's declared size must equal the total size of the children
    // that rolled into it — and we fall back to a direct scan when it fails.
    std::optional<std::vector<EdgeCount>> rolled =
        RollUpLevel(levels_[i - 1], levels_[i], all[i - 1]);
    all.push_back(rolled.has_value() ? std::move(*rolled)
                                     : levels_[i].GroupDegreeSums(graph));
  }
  return all;
}

std::vector<EdgeCount> GroupHierarchy::LevelSensitivities(
    const BipartiteGraph& graph) const {
  return LevelSensitivitiesFromSums(AllGroupDegreeSums(graph));
}

std::vector<EdgeCount> GroupHierarchy::LevelSensitivitiesFromSums(
    const std::vector<std::vector<EdgeCount>>& all_sums) {
  std::vector<EdgeCount> out;
  out.reserve(all_sums.size());
  for (const auto& sums : all_sums) {
    out.push_back(sums.empty() ? 0
                               : *std::max_element(sums.begin(), sums.end()));
  }
  return out;
}

std::vector<GroupId> GroupHierarchy::LevelGroupCounts() const {
  std::vector<GroupId> out;
  out.reserve(levels_.size());
  for (const Partition& p : levels_) {
    out.push_back(p.num_groups());
  }
  return out;
}

}  // namespace gdp::hier
