// Safe-grouping baseline, after Cormode–Srivastava–Yu–Zhang (VLDB 2008),
// the paper's reference [1].
//
// Safe groupings anonymise a bipartite graph by partitioning one side into
// groups of size >= k such that no two members of a group share a neighbour
// on the other side ("safety"), then publishing the association structure at
// group granularity *exactly* (no noise).  It protects individual edges
// through ambiguity inside a group but — being exact — offers no protection
// for the group-level aggregates themselves, which is precisely the gap the
// paper's group-DP notion fills.  bench_baseline_comparison contrasts the
// two on both utility and group-disclosure risk.
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "graph/bipartite_graph.hpp"
#include "hier/partition.hpp"

namespace gdp::baseline {

using gdp::graph::BipartiteGraph;
using gdp::graph::NodeIndex;
using gdp::graph::Side;

struct SafeGroupingConfig {
  // Minimum group size k.
  int k{4};
  // Greedy passes before giving up on strict safety and admitting conflicts
  // (the published heuristic also falls back; we record violations instead
  // of failing).
  int max_passes{8};
};

struct SafeGrouping {
  // group_of[v] for every node on the grouped side.
  std::vector<std::uint32_t> group_of;
  std::uint32_t num_groups{0};
  Side side{Side::kLeft};
  // Number of intra-group neighbour conflicts the greedy pass could not
  // avoid (0 = strictly safe grouping).
  std::uint64_t safety_violations{0};
  // Exact per-group incident-association counts (what the baseline
  // publishes).
  std::vector<std::uint64_t> group_counts;
};

// Greedy safe grouping of `side`.  Nodes are scanned in random order; each
// is placed into the first open group none of whose members shares a
// neighbour with it, else a new group; a final pass merges undersized
// groups (which may introduce counted violations).
[[nodiscard]] SafeGrouping BuildSafeGrouping(const BipartiteGraph& graph,
                                             Side side,
                                             const SafeGroupingConfig& config,
                                             gdp::common::Rng& rng);

// Convert to the library's Partition type (other side becomes one group), so
// the safe grouping can be compared through the same Partition-based code.
[[nodiscard]] gdp::hier::Partition ToPartition(const SafeGrouping& grouping,
                                               const BipartiteGraph& graph);

}  // namespace gdp::baseline
