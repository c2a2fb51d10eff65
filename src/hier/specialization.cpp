#include "hier/specialization.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

#include "common/error.hpp"
#include "dp/exponential.hpp"

namespace gdp::hier {

const char* SplitQualityName(SplitQuality q) noexcept {
  switch (q) {
    case SplitQuality::kEdgeBalance:
      return "edge_balance";
    case SplitQuality::kNodeBalance:
      return "node_balance";
    case SplitQuality::kRandom:
      return "random";
  }
  return "?";
}

void CutCandidates(std::size_t group_size, int max_candidates,
                   std::vector<std::size_t>& cuts) {
  if (max_candidates < 1) {
    throw std::invalid_argument("CutCandidates: max_candidates must be >= 1");
  }
  cuts.clear();
  if (group_size < 2) {
    return;
  }
  const std::size_t all = group_size - 1;  // positions 1..group_size-1
  const auto want = static_cast<std::size_t>(max_candidates);
  if (all <= want) {
    for (std::size_t c = 1; c < group_size; ++c) {
      cuts.push_back(c);
    }
    return;
  }
  // Evenly spaced interior positions; endpoints 0 and group_size excluded.
  for (std::size_t i = 1; i <= want; ++i) {
    const auto c = static_cast<std::size_t>(
        static_cast<double>(i) * static_cast<double>(group_size) /
        static_cast<double>(want + 1));
    cuts.push_back(std::clamp<std::size_t>(c, 1, group_size - 1));
  }
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
}

void CutUtilities(std::span<const EdgeCount> degree_prefix,
                  std::span<const std::size_t> cut_positions,
                  SplitQuality quality, std::vector<double>& utilities) {
  if (degree_prefix.empty()) {
    throw std::invalid_argument(
        "CutUtilities: degree_prefix needs group_size + 1 entries");
  }
  const std::size_t n = degree_prefix.size() - 1;
  utilities.clear();
  // Every partial degree sum is an integer below 2^53, so these doubles are
  // exact: the same values a running double sum over the group's degrees
  // gives, down to a balanced cut's -0.0.
  const EdgeCount base = degree_prefix[0];
  const auto total = static_cast<double>(degree_prefix[n] - base);
  for (const std::size_t c : cut_positions) {
    if (c == 0 || c >= n) {
      throw std::invalid_argument("CutUtilities: cut position out of range");
    }
    switch (quality) {
      case SplitQuality::kEdgeBalance: {
        const auto first = static_cast<double>(degree_prefix[c] - base);
        utilities.push_back(-std::fabs(first - (total - first)));
        break;
      }
      case SplitQuality::kNodeBalance:
        utilities.push_back(-std::fabs(static_cast<double>(c) -
                                       static_cast<double>(n - c)));
        break;
      case SplitQuality::kRandom:
        utilities.push_back(0.0);
        break;
    }
  }
}

Specializer::Specializer(SpecializationConfig config) : config_(config) {
  if (config_.depth < 1 || config_.depth > kMaxHierarchyDepth) {
    throw std::invalid_argument(
        "Specializer: depth must be in [1, " +
        std::to_string(kMaxHierarchyDepth) + "] (the hierarchy depth bound), got " +
        std::to_string(config_.depth));
  }
  if (config_.arity < 2 || (config_.arity & (config_.arity - 1)) != 0) {
    throw std::invalid_argument("Specializer: arity must be a power of two >= 2");
  }
  if (!(config_.epsilon_per_level > 0.0)) {
    throw std::invalid_argument("Specializer: epsilon_per_level must be > 0");
  }
  if (!(config_.utility_sensitivity > 0.0)) {
    throw std::invalid_argument("Specializer: utility_sensitivity must be > 0");
  }
  if (config_.max_cut_candidates < 1) {
    throw std::invalid_argument("Specializer: max_cut_candidates must be >= 1");
  }
}

namespace {

// One group during the build: the node range [begin, end) of `side`.
struct NodeRange {
  Side side;
  GroupId parent;  // id in the previous (coarser) level
  NodeIndex begin;
  NodeIndex end;
};

}  // namespace

SpecializationResult Specializer::BuildHierarchy(
    const BipartiteGraph& graph, gdp::common::Rng& rng) const {
  if (graph.num_left() == 0 || graph.num_right() == 0) {
    throw std::invalid_argument("Specializer: graph must have nodes on both sides");
  }
  // Level 0 assigns one group id per node with kNoParent reserved as the
  // sentinel; reject before any allocation sized from the oversized count.
  if (graph.total_nodes() >= static_cast<std::uint64_t>(kNoParent)) {
    throw gdp::common::CapacityError(
        "Specializer: graph has " + std::to_string(graph.total_nodes()) +
        " nodes; singleton group ids must fit the 32-bit GroupId range "
        "(kNoParent reserved)");
  }

  const int binary_rounds_per_level =
      static_cast<int>(std::lround(std::log2(config_.arity)));
  const double eps_per_binary_round =
      config_.epsilon_per_level / static_cast<double>(binary_rounds_per_level);
  const gdp::dp::ExponentialMechanism em(
      gdp::dp::Epsilon(eps_per_binary_round),
      gdp::dp::L1Sensitivity(config_.utility_sensitivity));

  // One binary round: each group in order, its cut candidates and their
  // utilities (read from its slice of its side's degree prefix array), then
  // one EM draw if it can split.  The draws run on the calling thread in
  // group order — the rng consumption order is the determinism contract.
  std::vector<NodeRange> current{{Side::kLeft, kNoParent, 0, graph.num_left()},
                                 {Side::kRight, kNoParent, 0, graph.num_right()}};
  std::vector<NodeRange> next;
  std::vector<std::size_t> cuts;
  std::vector<double> utilities;
  std::size_t em_draws = 0;
  const auto binary_round = [&] {
    next.clear();
    for (const NodeRange& g : current) {
      CutCandidates(g.end - g.begin, config_.max_cut_candidates, cuts);
      if (cuts.empty()) {
        next.push_back(g);
        continue;
      }
      CutUtilities(graph.offsets(g.side).subspan(g.begin, g.end - g.begin + 1),
                   cuts, config_.quality, utilities);
      const auto cut =
          static_cast<NodeIndex>(g.begin + cuts[em.Select(utilities, rng)]);
      ++em_draws;
      next.push_back({g.side, g.parent, g.begin, cut});
      next.push_back({g.side, g.parent, cut, g.end});
    }
    current.swap(next);
  };

  // One level's partition.  Each side's groups tile it in id order, so the
  // side's labels are its groups' ids, each repeated over its range.
  const auto to_partition = [&] {
    std::vector<GroupId> left_labels;
    std::vector<GroupId> right_labels;
    left_labels.reserve(graph.num_left());
    right_labels.reserve(graph.num_right());
    std::vector<GroupInfo> infos;
    infos.reserve(current.size());
    for (GroupId id = 0; id < current.size(); ++id) {
      const NodeRange& g = current[id];
      auto& labels = g.side == Side::kLeft ? left_labels : right_labels;
      labels.insert(labels.end(), g.end - g.begin, id);
      infos.push_back(GroupInfo{g.side, g.end - g.begin, g.parent});
    }
    return Partition(std::move(left_labels), std::move(right_labels),
                     std::move(infos));
  };

  // levels[0] = coarsest; built downward, reversed at the end.
  std::vector<Partition> levels;
  levels.push_back(to_partition());

  const int transitions = config_.depth - 1;  // level depth -> ... -> level 1
  for (int t = 0; t < transitions; ++t) {
    // Each transition: log2(arity) binary rounds over every group, each
    // group's parent being its index in the previous level.
    for (GroupId id = 0; id < current.size(); ++id) {
      current[id].parent = id;
    }
    for (int round = 0; round < binary_rounds_per_level; ++round) {
      binary_round();
    }
    levels.push_back(to_partition());
  }

  // Level 0: singletons, parented to the finest grouped level.  Left nodes
  // take ids [0, num_left), right nodes follow: the finest groups' tiling
  // order, so their infos are each group's range of singletons in turn.
  {
    std::vector<GroupId> left_labels(graph.num_left());
    std::vector<GroupId> right_labels(graph.num_right());
    std::iota(left_labels.begin(), left_labels.end(), GroupId{0});
    std::iota(right_labels.begin(), right_labels.end(),
              static_cast<GroupId>(graph.num_left()));
    std::vector<GroupInfo> infos;
    infos.reserve(static_cast<std::size_t>(graph.total_nodes()));
    for (GroupId id = 0; id < current.size(); ++id) {
      const NodeRange& g = current[id];
      infos.insert(infos.end(), g.end - g.begin, GroupInfo{g.side, 1, id});
    }
    levels.push_back(Partition(std::move(left_labels), std::move(right_labels),
                               std::move(infos)));
  }
  std::reverse(levels.begin(), levels.end());

  return SpecializationResult{
      GroupHierarchy(std::move(levels), config_.validate_hierarchy),
      static_cast<double>(transitions) * config_.epsilon_per_level, em_draws};
}

}  // namespace gdp::hier
