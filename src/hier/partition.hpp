// Partition: one level of the multi-level grouping.
//
// A partition divides EVERY node of the bipartite graph (both sides) into
// disjoint, side-pure groups: each group contains nodes from exactly one
// side.  This matches the paper's construction, where specialization splits
// left-side and right-side node sets separately.
//
// Storage is label-based: one group id per node, plus per-group metadata.
// This keeps a 9-level hierarchy over millions of nodes at a few bytes per
// node per level, and makes the singleton (individual, level-0) partition no
// more expensive than any other.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "graph/bipartite_graph.hpp"

namespace gdp::hier {

using gdp::graph::BipartiteGraph;
using gdp::graph::EdgeCount;
using gdp::graph::NodeIndex;
using gdp::graph::Side;

using GroupId = std::uint32_t;
inline constexpr GroupId kNoParent = std::numeric_limits<GroupId>::max();

struct GroupInfo {
  Side side{Side::kLeft};
  NodeIndex size{0};        // number of member nodes
  GroupId parent{kNoParent};  // group id in the coarser (parent) partition
};

class Partition {
 public:
  // Construct from explicit labels.  left_labels[v] / right_labels[v] give
  // the group id of each node; groups carries one entry per group id.
  // Validates: label ranges, side purity, and that group sizes match labels.
  Partition(std::vector<GroupId> left_labels, std::vector<GroupId> right_labels,
            std::vector<GroupInfo> groups);

  // The coarsest partition: one group per side (group 0 = all left nodes,
  // group 1 = all right nodes).
  [[nodiscard]] static Partition TopLevel(NodeIndex num_left, NodeIndex num_right);

  // The finest partition: every node is its own group.  Left nodes take
  // group ids [0, num_left), right nodes [num_left, num_left + num_right).
  [[nodiscard]] static Partition Singletons(NodeIndex num_left,
                                            NodeIndex num_right);

  [[nodiscard]] GroupId num_groups() const noexcept {
    return static_cast<GroupId>(groups_.size());
  }
  [[nodiscard]] NodeIndex num_left_nodes() const noexcept {
    return static_cast<NodeIndex>(left_labels_.size());
  }
  [[nodiscard]] NodeIndex num_right_nodes() const noexcept {
    return static_cast<NodeIndex>(right_labels_.size());
  }

  [[nodiscard]] const GroupInfo& group(GroupId id) const;
  [[nodiscard]] std::span<const GroupInfo> groups() const noexcept {
    return groups_;
  }

  [[nodiscard]] GroupId GroupOf(Side side, NodeIndex v) const;
  [[nodiscard]] std::span<const GroupId> labels(Side side) const noexcept {
    return side == Side::kLeft ? std::span<const GroupId>(left_labels_)
                               : std::span<const GroupId>(right_labels_);
  }

  // Materialise the member list of one group.  O(nodes on that side).
  [[nodiscard]] std::vector<NodeIndex> NodesOf(GroupId id) const;

  // Incident-edge count (degree sum) of every group.  This is each group's
  // contribution to the association count; its max over groups is the
  // group-level sensitivity of the count query.  One O(|V|) node scan on
  // the calling thread, counted by DegreeSumScanCount.  Requires the graph
  // dimensions to match the partition.
  [[nodiscard]] std::vector<EdgeCount> GroupDegreeSums(
      const BipartiteGraph& graph) const;

  // Process-wide count of full node-scan degree-sum computations (every
  // GroupDegreeSums / MaxGroupDegreeSum call).  Instrumentation for the
  // ReleasePlan single-scan guarantee; monotone, thread-safe.
  [[nodiscard]] static std::uint64_t DegreeSumScanCount() noexcept;

  [[nodiscard]] EdgeCount MaxGroupDegreeSum(const BipartiteGraph& graph) const;

  // Node count of the largest group.
  [[nodiscard]] NodeIndex MaxGroupSize() const noexcept;

  // True iff `finer` refines this partition: every group of `finer` lies
  // inside a single group of *this, consistent with finer's parent links.
  [[nodiscard]] bool IsRefinedBy(const Partition& finer) const;

 private:
  std::vector<GroupId> left_labels_;
  std::vector<GroupId> right_labels_;
  std::vector<GroupInfo> groups_;
};

}  // namespace gdp::hier
