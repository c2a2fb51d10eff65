// ReleasePlan: the precomputed statistics Phase 2 needs, for every level at
// once.
//
// Computing each level's statistics from the graph directly takes up to three
// node scans per level (CountSensitivity, the per-group count pass,
// VectorSensitivity), i.e. O(levels · V) per release.  A plan performs ONE node
// scan — the singleton-level group degree sums, which are just the node
// degrees — and rolls sums up the hierarchy through the finer levels' parent
// pointers, O(V + total groups) overall.  Everything the engine consumes per
// level is then a cached lookup:
//
//   GroupDegreeSums(ℓ)   — the true per-group association counts,
//   CountSensitivity(ℓ)  — max group degree sum = Δℓ of the scalar query,
//   VectorSensitivity(ℓ) — the sqrt(2)·Δℓ L2 bound of the count vector.
//
// Storage is SoA: every level's sums live in ONE contiguous column indexed
// by a level-offset table (level ℓ occupies [level_offsets[ℓ],
// level_offsets[ℓ+1])), so the whole plan serializes as three flat columns —
// exactly the GDPSNAP01 plan sections — and FromColumns can adopt them
// zero-copy out of an mmap'd snapshot.  The rollup is exact integer
// arithmetic over the same disjoint unions of nodes, so the plan's statistics
// equal core/group_sensitivity's direct scans, and a snapshot-adopted plan is
// bit-identical to a freshly built one (release_plan_test / snapshot_test
// assert this).  Plans are immutable after Build and safe to share across
// threads (GroupDpEngine::Release reads one from every pool worker).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hier/hierarchy.hpp"
#include "storage/buffer.hpp"

namespace gdp::core {

class ReleasePlan {
 public:
  // One sweep over the graph + one rollup over the hierarchy
  // (GroupHierarchy::AllGroupDegreeSums), on the calling thread.  The plan
  // is bound to the (graph, hierarchy) pair it was built from; dimensions
  // are validated by the underlying scan.
  [[nodiscard]] static ReleasePlan Build(
      const gdp::graph::BipartiteGraph& graph,
      const gdp::hier::GroupHierarchy& hierarchy);

  // Adopt the three serialized plan columns (typically borrowed zero-copy
  // out of a snapshot buffer).  Validates the level-offset table (starts at
  // 0, monotone, ends at the sums column's length) and that every max_sums
  // entry equals the actual max of its level's sums — the columns come from
  // an untrusted file, and a tampered Δℓ would mis-calibrate noise.  Throws
  // gdp::common::SnapshotFormatError.  A plan adopted from the columns
  // Build produced is indistinguishable from (and bit-identical to) the
  // built one.
  [[nodiscard]] static ReleasePlan FromColumns(
      std::uint64_t num_edges,
      gdp::storage::ColumnView<std::uint64_t> level_offsets,
      gdp::storage::ColumnView<gdp::graph::EdgeCount> sums,
      gdp::storage::ColumnView<gdp::graph::EdgeCount> max_sums);

  [[nodiscard]] int num_levels() const noexcept {
    return level_offsets_.empty()
               ? 0
               : static_cast<int>(level_offsets_.size()) - 1;
  }

  // Total association count |E| of the graph the plan was built from.
  [[nodiscard]] std::uint64_t num_edges() const noexcept { return num_edges_; }

  // True per-group association counts at `level` (same values as
  // Partition::GroupDegreeSums, without the scan).
  [[nodiscard]] std::span<const gdp::graph::EdgeCount> GroupDegreeSums(
      int level) const;

  // Δℓ: max group degree sum at `level` (0 for an edgeless graph).
  [[nodiscard]] gdp::graph::EdgeCount CountSensitivity(int level) const;

  // sqrt(2)·Δℓ, the L2 sensitivity of the per-group count vector.  Throws
  // std::invalid_argument when Δℓ = 0, mirroring core::VectorSensitivity —
  // a zero-sensitivity level must be released exactly, not calibrated.
  [[nodiscard]] double VectorSensitivity(int level) const;

  // Δ per level (same values as GroupHierarchy::LevelSensitivities).
  [[nodiscard]] std::span<const gdp::graph::EdgeCount> LevelSensitivities()
      const noexcept {
    return max_sums_.view();
  }

  // The raw serialized columns (what GDPSNAP01's plan sections store):
  // LevelOffsets() has num_levels+1 entries; FlatSums() is every level's
  // sums concatenated in level order.
  [[nodiscard]] std::span<const std::uint64_t> LevelOffsets() const noexcept {
    return level_offsets_.view();
  }
  [[nodiscard]] std::span<const gdp::graph::EdgeCount> FlatSums()
      const noexcept {
    return sums_.view();
  }

 private:
  ReleasePlan() = default;

  [[nodiscard]] static ReleasePlan FromAllSums(
      std::uint64_t num_edges,
      const std::vector<std::vector<gdp::graph::EdgeCount>>& all_sums);

  // Contiguous per-group sums for all levels; level ℓ occupies
  // [level_offsets_[ℓ], level_offsets_[ℓ+1]).
  gdp::storage::ColumnView<std::uint64_t> level_offsets_;  // num_levels+1
  gdp::storage::ColumnView<gdp::graph::EdgeCount> sums_;   // total groups
  gdp::storage::ColumnView<gdp::graph::EdgeCount> max_sums_;  // per level
  std::uint64_t num_edges_{0};
};

}  // namespace gdp::core
