#include "hier/partition.hpp"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>

#include "common/thread_pool.hpp"
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
    const BipartiteGraph& graph, gdp::common::ThreadPool* pool,
    std::size_t shard_grain) const {
  if (shard_grain == 0) {
    throw std::invalid_argument(
        "Partition::GroupDegreeSums: shard_grain must be > 0");
  }
  if (graph.num_left() != num_left_nodes() ||
      graph.num_right() != num_right_nodes()) {
    throw std::invalid_argument(
        "Partition::GroupDegreeSums: graph dimensions mismatch");
  }
  g_degree_sum_scans.fetch_add(1, std::memory_order_relaxed);

  // Nodes are addressed as one range [0, nl + nr): left side first, then
  // right, so shard boundaries are independent of the side split.
  const std::size_t nl = left_labels_.size();
  const std::size_t total = nl + right_labels_.size();
  const std::size_t grain =
      gdp::common::AccumulatorGrain(pool, total, shard_grain);
  std::vector<EdgeCount> out(groups_.size(), 0);
  std::vector<std::vector<EdgeCount>> later_shards(
      std::max<std::size_t>(1, (total + grain - 1) / grain) - 1);
  const EdgeCount* const left_offsets = graph.offsets(Side::kLeft).data();
  const EdgeCount* const right_offsets = graph.offsets(Side::kRight).data();
  gdp::common::ForEachChunk(
      pool, total, grain,
      [&](std::size_t shard, std::size_t begin, std::size_t end) {
        std::vector<EdgeCount>& acc =
            shard == 0 ? out : later_shards[shard - 1];
        if (shard != 0) {
          acc.assign(groups_.size(), 0);
        }
        EdgeCount* const sums = acc.data();
        const GroupId* const left = left_labels_.data();
        const GroupId* const right = right_labels_.data();
        const std::size_t split = std::clamp(nl, begin, end);
        for (std::size_t v = begin; v < split; ++v) {
          sums[left[v]] += left_offsets[v + 1] - left_offsets[v];
        }
        for (std::size_t v = split; v < end; ++v) {
          const std::size_t u = v - nl;
          sums[right[u]] += right_offsets[u + 1] - right_offsets[u];
        }
      });

  // Merge, parallel over group ranges: each output slot is owned by exactly
  // one chunk, and integer addition over disjoint node sets is
  // order-independent, so this equals the one-shard scan bit-for-bit.
  if (!later_shards.empty()) {
    constexpr std::size_t kMergeGrain = 8192;
    gdp::common::ForEachChunk(
        pool, out.size(), kMergeGrain,
        [&](std::size_t, std::size_t begin, std::size_t end) {
          for (const std::vector<EdgeCount>& acc : later_shards) {
            for (std::size_t g = begin; g < end; ++g) {
              out[g] += acc[g];
            }
          }
        });
  }
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
