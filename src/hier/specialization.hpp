// Phase 1 of the paper's disclosure pipeline: multi-level specialization.
//
// Starting from the coarsest grouping (all nodes of one side per group), each
// round splits every group into `arity` subgroups by repeated binary cuts
// whose positions are selected with the Exponential Mechanism.  Nodes within
// a group are ordered by public node index; candidate cut positions are
// scored by a split-quality function (by default, balance of incident-edge
// counts between the two parts) and one position is sampled with probability
// proportional to exp(ε·q/2Δq).
//
// Range invariant: a cut splits a group's ascending node order into two
// contiguous parts, so every group of every level is a node range
// [begin, end) of its side, and each side's groups tile that side in group-id
// order.  The build keeps only {side, parent, begin, end} per group, reads
// cut utilities from the group's slice of its side's degree prefix array
// (the graph's CSR offsets), and writes a level's labels as one fill per
// group, each side's groups appended in id order.
//
// Privacy accounting: cuts of distinct groups in the same round act on
// disjoint node sets and compose in parallel; the log2(arity) binary rounds
// within one level and the level transitions compose sequentially.  A full
// build therefore consumes (depth-1) · epsilon_per_level of Phase-1 budget.
// The final descent to level 0 (singletons) is data-independent and free.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "hier/hierarchy.hpp"

namespace gdp::common {
class ThreadPool;
}  // namespace gdp::common

namespace gdp::hier {

enum class SplitQuality {
  kEdgeBalance,  // maximise balance of incident-edge counts (paper's intent)
  kNodeBalance,  // maximise balance of node counts (data-independent ablation)
  kRandom,       // uniform cut (ablation lower bound)
};

[[nodiscard]] const char* SplitQualityName(SplitQuality q) noexcept;

struct SpecializationConfig {
  // Number of levels above the individual level; the hierarchy has levels
  // 0..depth.  The paper's experiment uses depth = 9.  At most
  // kMaxHierarchyDepth (255), so every level fits a GDPSNAP01 snapshot.
  int depth{9};
  // Subgroups per group per level transition.  Must be a power of two >= 2.
  // The paper's experiment splits each group 4 ways.
  int arity{4};
  // Exponential-Mechanism budget consumed per level transition.
  double epsilon_per_level{0.05};
  // Sensitivity Δq of the cut utility.  Under edge-level adjacency the
  // edge-balance utility changes by at most 1 when one association is
  // added/removed, so 1.0 is the principled default.
  double utility_sensitivity{1.0};
  // Cap on candidate cut positions per binary split (evenly spaced when the
  // group is larger).  Bounds EM work on million-node groups.
  int max_cut_candidates{63};
  SplitQuality quality{SplitQuality::kEdgeBalance};
  // Skip the O(V·depth) refinement re-validation in GroupHierarchy (the
  // specializer constructs refinements by construction); kept on by default.
  bool validate_hierarchy{true};
};

struct SpecializationResult {
  GroupHierarchy hierarchy;
  // Total Phase-1 ε consumed = (depth-1) · epsilon_per_level.
  double epsilon_spent{0.0};
  // Number of EM invocations (diagnostic).
  std::size_t num_em_draws{0};
};

// Candidate cut positions for a group of `group_size` ordered nodes, written
// to `cuts` (cleared first): all of 1..group_size-1 when few enough, else
// `max_candidates` evenly spaced.  Empty when group_size < 2.
void CutCandidates(std::size_t group_size, int max_candidates,
                   std::vector<std::size_t>& cuts);

// Utility of each candidate cut, written to `utilities` (cleared first).
// `degree_prefix` is the group's slice of a degree prefix array: group_size
// + 1 entries, where degree_prefix[i] - degree_prefix[0] is the degree sum
// of the group's first i nodes in its (public) order.  A cut at position c
// puts nodes [0,c) in the first part.
void CutUtilities(std::span<const EdgeCount> degree_prefix,
                  std::span<const std::size_t> cut_positions,
                  SplitQuality quality, std::vector<double>& utilities);

class Specializer {
 public:
  explicit Specializer(SpecializationConfig config);

  // Build the full hierarchy for `graph`.  Deterministic given `rng` state.
  // Throws gdp::common::CapacityError before any allocation when the graph's
  // node count cannot be indexed by 32-bit group ids (kNoParent reserved).
  //
  // A round costs O(groups + cut candidates) and allocates nothing per
  // group.  The build runs on the calling thread, one Exponential-Mechanism
  // draw per splittable group in group order — the rng consumption order is
  // the determinism contract.  `pool` is not used: the label fills, the one
  // node-proportional stage, were no faster sharded than as a plain loop,
  // even at 10M edges (docs/PERF.md).  So the hierarchy, num_em_draws and
  // the post-build rng state are the same for every pool, none included.
  [[nodiscard]] SpecializationResult BuildHierarchy(
      const BipartiteGraph& graph, gdp::common::Rng& rng,
      gdp::common::ThreadPool* pool = nullptr) const;

  [[nodiscard]] const SpecializationConfig& config() const noexcept {
    return config_;
  }

 private:
  SpecializationConfig config_;
};

}  // namespace gdp::hier
