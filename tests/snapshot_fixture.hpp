// The one compiled snapshot whose GDPSNAP01 bytes tests/data/golden_snapshot.hex
// pins, shared by snapshot_test and the program that wrote the file: a fixed
// 200-node graph from an explicit edge list, compiled at depth 4 (graph,
// hierarchy, plan, fingerprint and Phase-1 spend).  The hierarchy columns
// come from Phase 1, so the file pins the specializer's output as well as
// the format.  The columns and the byte-order sentinel are host order (the
// header, table and meta fields are little-endian), so the bytes are those
// of a little-endian host.  The file was written by the member-vector
// Phase 1 that preceded the node-range build, and no test rewrites it:
// changing the graph or the spec here means regenerating it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/compiled_disclosure.hpp"
#include "serve/session_registry.hpp"
#include "storage/snapshot.hpp"

namespace gdp::storage::snapshot_fixture {

inline constexpr std::uint64_t kCompileSeed = 2024;

// 96 left + 104 right nodes, 480 edges; left nodes 0..3 are hubs that take
// every sixth edge.
inline gdp::graph::BipartiteGraph GoldenGraph() {
  std::vector<gdp::graph::Edge> edges;
  for (std::uint32_t i = 0; i < 480; ++i) {
    const std::uint32_t left = i % 6 == 0 ? (i / 6) % 4 : (i * 37 + i / 7) % 96;
    const std::uint32_t right = (i * 11 + i / 3) % 104;
    edges.push_back({left, right});
  }
  return gdp::graph::BipartiteGraph(96, 104, std::move(edges));
}

inline gdp::core::SessionSpec GoldenSpec() {
  gdp::core::SessionSpec spec;
  spec.hierarchy.depth = 4;
  spec.hierarchy.arity = 4;
  spec.exec.num_threads = 1;
  return spec;
}

// SerializeSnapshot of GoldenGraph compiled under GoldenSpec and kCompileSeed.
inline std::vector<std::byte> GoldenBytes() {
  const gdp::graph::BipartiteGraph graph = GoldenGraph();
  const gdp::core::SessionSpec spec = GoldenSpec();
  gdp::common::Rng rng(kCompileSeed);
  const auto compiled = gdp::core::CompiledDisclosure::Compile(graph, spec, rng);
  SnapshotContents contents;
  contents.graph = &graph;
  contents.hierarchy = &compiled->hierarchy();
  contents.plan = &compiled->plan();
  contents.phase1_epsilon_spent = compiled->phase1_epsilon_spent();
  contents.fingerprint =
      gdp::serve::SessionRegistry::Fingerprint(spec, kCompileSeed);
  return SerializeSnapshot(contents);
}

// Lower-case hex, 32 bytes a line.
inline std::string HexLines(const std::vector<std::byte>& bytes) {
  std::string out;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    char hex[3];
    std::snprintf(hex, sizeof hex, "%02x",
                  static_cast<unsigned>(std::to_integer<unsigned char>(bytes[i])));
    out += hex;
    if (i % 32 == 31 || i + 1 == bytes.size()) {
      out += '\n';
    }
  }
  return out;
}

}  // namespace gdp::storage::snapshot_fixture
