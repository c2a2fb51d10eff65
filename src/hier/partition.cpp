#include "hier/partition.hpp"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>

#include "graph/stats.hpp"

namespace gdp::hier {

namespace {
std::atomic<std::uint64_t> g_degree_sum_scans{0};
}  // namespace

std::uint64_t Partition::DegreeSumScanCount() noexcept {
  return g_degree_sum_scans.load(std::memory_order_relaxed);
}

Partition::Partition(std::vector<GroupId> left_labels,
                     std::vector<GroupId> right_labels,
                     std::vector<GroupInfo> groups)
    : left_labels_(std::move(left_labels)),
      right_labels_(std::move(right_labels)),
      groups_(std::move(groups)) {
  const auto n_groups = static_cast<GroupId>(groups_.size());
  std::vector<NodeIndex> observed_sizes(groups_.size(), 0);
  const auto check_side = [&](const std::vector<GroupId>& labels, Side side) {
    for (const GroupId g : labels) {
      if (g >= n_groups) {
        throw std::invalid_argument("Partition: label out of range");
      }
      if (groups_[g].side != side) {
        throw std::invalid_argument("Partition: group side mismatch");
      }
      ++observed_sizes[g];
    }
  };
  check_side(left_labels_, Side::kLeft);
  check_side(right_labels_, Side::kRight);
  for (GroupId g = 0; g < n_groups; ++g) {
    if (observed_sizes[g] != groups_[g].size) {
      throw std::invalid_argument("Partition: declared group size mismatch");
    }
    if (groups_[g].size == 0) {
      throw std::invalid_argument("Partition: empty group");
    }
  }
}

Partition Partition::TopLevel(NodeIndex num_left, NodeIndex num_right) {
  std::vector<GroupId> left(num_left, 0);
  std::vector<GroupId> right(num_right, 1);
  std::vector<GroupInfo> groups{GroupInfo{Side::kLeft, num_left, kNoParent},
                                GroupInfo{Side::kRight, num_right, kNoParent}};
  if (num_left == 0 || num_right == 0) {
    throw std::invalid_argument("Partition::TopLevel: empty side");
  }
  return Partition(std::move(left), std::move(right), std::move(groups));
}

Partition Partition::Singletons(NodeIndex num_left, NodeIndex num_right) {
  if (num_left == 0 || num_right == 0) {
    throw std::invalid_argument("Partition::Singletons: empty side");
  }
  std::vector<GroupId> left(num_left);
  std::vector<GroupId> right(num_right);
  std::iota(left.begin(), left.end(), GroupId{0});
  std::iota(right.begin(), right.end(), num_left);
  std::vector<GroupInfo> groups;
  groups.reserve(static_cast<std::size_t>(num_left) + num_right);
  for (NodeIndex v = 0; v < num_left; ++v) {
    groups.push_back(GroupInfo{Side::kLeft, 1, kNoParent});
  }
  for (NodeIndex v = 0; v < num_right; ++v) {
    groups.push_back(GroupInfo{Side::kRight, 1, kNoParent});
  }
  return Partition(std::move(left), std::move(right), std::move(groups));
}

const GroupInfo& Partition::group(GroupId id) const {
  if (id >= groups_.size()) {
    throw std::out_of_range("Partition::group: id out of range");
  }
  return groups_[id];
}

GroupId Partition::GroupOf(Side side, NodeIndex v) const {
  const auto& lbl = side == Side::kLeft ? left_labels_ : right_labels_;
  if (v >= lbl.size()) {
    throw std::out_of_range("Partition::GroupOf: node out of range");
  }
  return lbl[v];
}

std::vector<NodeIndex> Partition::NodesOf(GroupId id) const {
  const GroupInfo& info = group(id);
  const auto& lbl = info.side == Side::kLeft ? left_labels_ : right_labels_;
  std::vector<NodeIndex> nodes;
  nodes.reserve(info.size);
  for (NodeIndex v = 0; v < lbl.size(); ++v) {
    if (lbl[v] == id) {
      nodes.push_back(v);
    }
  }
  return nodes;
}

std::vector<EdgeCount> Partition::GroupDegreeSums(
    const BipartiteGraph& graph) const {
  if (graph.num_left() != num_left_nodes() ||
      graph.num_right() != num_right_nodes()) {
    throw std::invalid_argument(
        "Partition::GroupDegreeSums: graph dimensions mismatch");
  }
  g_degree_sum_scans.fetch_add(1, std::memory_order_relaxed);

  std::vector<EdgeCount> out(groups_.size(), 0);
  EdgeCount* const sums = out.data();
  const auto scan_side = [sums](const std::vector<GroupId>& labels,
                                const EdgeCount* offsets) {
    const GroupId* const label = labels.data();
    for (std::size_t v = 0; v < labels.size(); ++v) {
      sums[label[v]] += offsets[v + 1] - offsets[v];
    }
  };
  scan_side(left_labels_, graph.offsets(Side::kLeft).data());
  scan_side(right_labels_, graph.offsets(Side::kRight).data());
  return out;
}

EdgeCount Partition::MaxGroupDegreeSum(const BipartiteGraph& graph) const {
  const std::vector<EdgeCount> sums = GroupDegreeSums(graph);
  return sums.empty() ? 0 : *std::max_element(sums.begin(), sums.end());
}

NodeIndex Partition::MaxGroupSize() const noexcept {
  NodeIndex best = 0;
  for (const GroupInfo& g : groups_) {
    best = std::max(best, g.size);
  }
  return best;
}

bool Partition::IsRefinedBy(const Partition& finer) const {
  if (finer.num_left_nodes() != num_left_nodes() ||
      finer.num_right_nodes() != num_right_nodes()) {
    return false;
  }
  // Every node's fine group must map (via parent) to the node's coarse group.
  for (NodeIndex v = 0; v < num_left_nodes(); ++v) {
    const GroupInfo& fine = finer.group(finer.left_labels_[v]);
    if (fine.parent != left_labels_[v]) {
      return false;
    }
  }
  for (NodeIndex v = 0; v < num_right_nodes(); ++v) {
    const GroupInfo& fine = finer.group(finer.right_labels_[v]);
    if (fine.parent != right_labels_[v]) {
      return false;
    }
  }
  return true;
}

}  // namespace gdp::hier
