// GDPSNAP01: the versioned, CRC32-framed, mmap-friendly dataset snapshot.
//
// A snapshot packs a dataset once so serving restarts skip text parsing and
// (when a plan is embedded) Phase-1 entirely:
//
//   * the graph's four CSR columns, loaded ZERO-COPY as ColumnViews into the
//     mapping (BipartiteGraph::FromSnapshot),
//   * optionally the hierarchy's label/group columns (materialised into
//     owned Partitions on BuildHierarchy — the Partition constructor
//     re-proves side purity and size consistency on the untrusted bytes),
//   * optionally the precompiled ReleasePlan columns (adopted zero-copy via
//     ReleasePlan::FromColumns) together with the compile fingerprint and
//     the Phase-1 ε actually spent, so SessionRegistry can adopt the
//     artifact under its usual fingerprint discipline.
//
// File layout (docs/FORMATS.md is the spec).  Header, table and meta fields
// are little-endian, written and read through common/le_codec.hpp; the
// columns are host-order memcpy'd on write and mapped zero-copy on load,
// behind a host-order byte-order sentinel in the header:
//
//   [header 48 B] [section table: 32 B per section] [payloads, 64 B aligned]
//
// Every payload is covered by a per-section CRC32 (the same
// gdp::common::Crc32 the GDPWAL01 audit log frames with), the section table
// by a table CRC, and the header by a header CRC.  Load verifies all three
// plus the structural invariants (sections inside the file, no overlap,
// dimensions consistent) before anything is sized from a file field —
// header fields are treated as attacker-controlled, and every violation
// throws gdp::common::SnapshotFormatError.
//
// Compatibility policy: the magic carries the major version ("GDPSNAP01");
// readers reject any other magic.  Unknown section ids are rejected too —
// a snapshot is a closed artifact, not an extensible container, and a
// half-understood file feeding a privacy mechanism is worse than a refused
// one.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/release_plan.hpp"
#include "graph/bipartite_graph.hpp"
#include "hier/hierarchy.hpp"
#include "storage/buffer.hpp"

namespace gdp::storage {

// What WriteSnapshot serializes.  `graph` is required; `hierarchy` may ride
// alone, but a `plan` requires the hierarchy it was built from (an adopted
// plan is useless without the matching group structure) and should carry the
// compile fingerprint + phase-1 spend that make it adoptable.
struct SnapshotContents {
  const gdp::graph::BipartiteGraph* graph{nullptr};
  const gdp::hier::GroupHierarchy* hierarchy{nullptr};
  const gdp::core::ReleasePlan* plan{nullptr};
  double phase1_epsilon_spent{0.0};
  std::string fingerprint;  // SessionRegistry::Fingerprint of the compile
};

class Snapshot {
 public:
  // mmap `path` and validate (header, table, every section CRC, structural
  // invariants).  Pages are faulted lazily by the kernel, but validation
  // reads every section once — the win over the text path is skipping
  // parse + CSR construction (+ Phase-1 with an embedded plan), not
  // skipping the sequential read.  Section CRCs are verified in bounded
  // chunks with the next chunk madvise(WILLNEED)-prefetched, so the page
  // faults of the sequential read overlap the checksum work instead of
  // serialising behind it.
  [[nodiscard]] static std::shared_ptr<const Snapshot> Load(
      const std::string& path);

  // Same validation over an in-memory buffer (tests, pack --verify).
  [[nodiscard]] static std::shared_ptr<const Snapshot> Parse(
      std::shared_ptr<const Buffer> buffer, std::string origin = "<memory>");

  // The packed graph; its columns borrow from (and keep alive) the snapshot
  // buffer.  Copying the returned reference into a Dataset is cheap — the
  // copy aliases the same mapping.
  [[nodiscard]] const gdp::graph::BipartiteGraph& graph() const noexcept {
    return *graph_;
  }

  [[nodiscard]] bool has_hierarchy() const noexcept {
    return !hier_levels_.empty();
  }
  [[nodiscard]] bool has_plan() const noexcept { return plan_.has_value(); }

  // Materialise the packed hierarchy.  Copies the label/group columns into
  // owned Partitions (NOT zero-copy: Partition validation wants vectors, and
  // the hierarchy is small next to graph + plan); the Partition and
  // GroupHierarchy constructors re-validate refinement on the untrusted
  // bytes, wrapped into SnapshotFormatError.  Throws StateError when
  // has_hierarchy() is false.
  [[nodiscard]] gdp::hier::GroupHierarchy BuildHierarchy() const;

  // The embedded plan, adopted zero-copy (views into the snapshot buffer,
  // kept alive by the returned plan).  Throws StateError when has_plan() is
  // false.
  [[nodiscard]] const gdp::core::ReleasePlan& plan() const;

  // Compile identity of the embedded plan (empty without one).  Matches
  // SessionRegistry::Fingerprint(spec, seed) iff the plan was compiled under
  // exactly that publication spec + seed.
  [[nodiscard]] const std::string& fingerprint() const noexcept {
    return fingerprint_;
  }
  // Phase-1 ε the embedded plan's EM build actually consumed (what tenant
  // ledgers must be charged at Attach); 0 without a plan.
  [[nodiscard]] double phase1_epsilon_spent() const noexcept {
    return phase1_epsilon_spent_;
  }

  [[nodiscard]] std::size_t file_size() const noexcept {
    return buffer_->size();
  }
  [[nodiscard]] bool mapped() const noexcept { return buffer_->mapped(); }

 private:
  Snapshot() = default;

  struct HierLevel {
    ColumnView<std::uint32_t> left_labels;
    ColumnView<std::uint32_t> right_labels;
    ColumnView<std::uint8_t> sides;
    ColumnView<std::uint32_t> sizes;
    ColumnView<std::uint32_t> parents;
  };

  std::shared_ptr<const Buffer> buffer_;
  std::optional<gdp::graph::BipartiteGraph> graph_;
  std::vector<HierLevel> hier_levels_;
  std::optional<gdp::core::ReleasePlan> plan_;
  std::string fingerprint_;
  double phase1_epsilon_spent_{0.0};
};

// Serialize `contents` to `path` (atomically: written to a temp sibling,
// fsync'd, renamed).  Streams sections straight from the source columns to
// the file descriptor — peak extra memory is the header, table, and O(group)
// metadata columns, never a whole-file staging buffer (at 100M-edge scale
// that buffer would double the packer's RSS).  Throws std::invalid_argument
// on inconsistent contents (no graph, plan without hierarchy/fingerprint,
// dimension mismatches) and gdp::common::IoError on write failure.
void WriteSnapshotFile(const std::string& path,
                       const SnapshotContents& contents);

// In-memory serialization (tests).  Byte-identical to what
// WriteSnapshotFile streams to disk — both render the same SnapshotImage.
[[nodiscard]] std::vector<std::byte> SerializeSnapshot(
    const SnapshotContents& contents);

}  // namespace gdp::storage
