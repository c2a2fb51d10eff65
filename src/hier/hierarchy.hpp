// GroupHierarchy: the multi-level grouping produced by Phase 1.
//
// Levels are indexed as in the paper: level `depth()` is the coarsest (one
// group per side of the bipartite graph — "the entire dataset"), level 1 is
// the finest *grouped* level, and level 0 is the individual level where each
// group is a single node.  Each level strictly refines the level above it.
#pragma once

#include <vector>

#include "hier/partition.hpp"

namespace gdp::hier {

// The deepest hierarchy Phase 1 builds (Specializer refuses a deeper one):
// levels 0..255, so every built hierarchy fits GDPSNAP01's level bound,
// which storage/snapshot.cpp derives from this.
inline constexpr int kMaxHierarchyDepth = 255;

class GroupHierarchy {
 public:
  // levels[i] is the partition at level i; levels.front() must be the
  // singleton partition and levels.back() the coarsest.  Each levels[i]
  // must be refined by levels[i-1] (validated unless validate=false, which
  // exists only for huge-graph benchmarks where the O(V·depth) check costs
  // more than construction).
  explicit GroupHierarchy(std::vector<Partition> levels, bool validate = true);

  // Number of levels above the individual level.
  [[nodiscard]] int depth() const noexcept {
    return static_cast<int>(levels_.size()) - 1;
  }
  [[nodiscard]] int num_levels() const noexcept {
    return static_cast<int>(levels_.size());
  }

  // Partition at a level; level 0 = singletons, level depth() = coarsest.
  [[nodiscard]] const Partition& level(int i) const;

  // Group degree sums for EVERY level from a single O(V) node scan: the
  // level-0 (singleton) sums are the node degrees, and each coarser level's
  // sums are rolled up from the level below via the finer groups' parent
  // pointers in O(groups at that level).  Total cost O(V + Σ_i groups_i),
  // versus O(V · levels) for per-level scans.  result[i][g] equals
  // level(i).GroupDegreeSums(graph)[g] exactly (integer arithmetic over the
  // same disjoint union of nodes).
  //
  // TRUST CONTRACT: validate=true construction proves parent/label
  // consistency (IsRefinedBy checks every node), making the rollup exact.
  // With validate=false the caller vouches for refinement consistency,
  // parent links included; an O(groups) size-conservation guard still
  // catches absent/out-of-range/side-crossed/size-violating links and falls
  // back to a direct scan, but a deliberately wrong, size-preserving parent
  // permutation is undetectable without the per-level label scan this
  // method exists to eliminate — hand-built hierarchies should validate.
  [[nodiscard]] std::vector<std::vector<EdgeCount>> AllGroupDegreeSums(
      const BipartiteGraph& graph) const;

  // Group-level sensitivity of the association-count query at each level:
  // result[i] = max over groups at level i of the group's incident-edge
  // count.  result[0] is the max node degree; result[depth] >= |E|/1 when a
  // single side-group covers all edges.  Single-pass (AllGroupDegreeSums).
  [[nodiscard]] std::vector<EdgeCount> LevelSensitivities(
      const BipartiteGraph& graph) const;

  // The per-level max reduction LevelSensitivities applies to
  // AllGroupDegreeSums output (empty level → 0).  Shared with ReleasePlan so
  // the sensitivity convention has one home.
  [[nodiscard]] static std::vector<EdgeCount> LevelSensitivitiesFromSums(
      const std::vector<std::vector<EdgeCount>>& all_sums);

  // Total number of groups at each level (diagnostics / tests).
  [[nodiscard]] std::vector<GroupId> LevelGroupCounts() const;

 private:
  std::vector<Partition> levels_;
};

}  // namespace gdp::hier
