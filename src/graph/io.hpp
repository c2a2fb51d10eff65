// Edge-list text IO.
//
// Format (TSV):
//   # optional comment lines
//   <num_left> <num_right>           -- header line
//   <left_index> <right_index>       -- one association per line
//
// This is the interchange format for all examples: a real DBLP extraction
// pipeline would emit the same file.  The grammar is common/text_reader.hpp's;
// fields after a line's first two are ignored, and the header may declare at
// most 2^20 + B/2 nodes for B input bytes (docs/FORMATS.md, "Text formats").
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "graph/bipartite_graph.hpp"

namespace gdp::graph {

// Parse a graph from a stream.  Throws gdp::common::IoError on malformed
// input (bad header, non-numeric fields, out-of-range endpoints, any index
// that does not fit the 32-bit NodeIndex — rejected with a clear error,
// never silently truncated — or more nodes than the input's bytes back).  `edge_reserve_hint` pre-sizes the edge
// buffer; pass an upper bound when one is known to avoid reallocation.
[[nodiscard]] BipartiteGraph ReadEdgeList(std::istream& in,
                                          std::size_t edge_reserve_hint = 0);

// Read from a file path, deriving the reserve hint from the file size.
// Throws gdp::common::IoError if the file cannot be opened.
[[nodiscard]] BipartiteGraph ReadEdgeListFile(const std::string& path);

// Checked narrowing of a 64-bit node count to NodeIndex.  Throws
// gdp::common::CapacityError naming `what` when the value exceeds the
// 32-bit range — the check callers owe BEFORE any allocation sized from an
// externally supplied count (the text parser rejects oversized per-line
// indices itself; this guards counts that arrive as integers, e.g. CLI
// flags).
[[nodiscard]] NodeIndex CheckedNodeCount(std::uint64_t value,
                                         const char* what);

// Bounded-RSS two-pass CSR build from an edge-list file: pass 1 counts
// per-node degrees straight into the offset columns, pass 2 re-reads the
// file and scatters adjacency through per-node cursors (a stable counting
// sort in file order — exactly how the edge-list constructor lays out its
// CSR, so the graph is bit-identical to ReadEdgeListFile's; pinned by
// streaming_io_test).  Peak memory beyond the output CSR columns is one
// 8-byte cursor per node plus the line buffer — the one-pass reader's
// transient edge vector (reserved at file_size/4 entries) never exists.
// Throws gdp::common::IoError on malformed input or when the file visibly
// changes between the passes.
[[nodiscard]] BipartiteGraph ReadEdgeListFileStreaming(
    const std::string& path);

// Serialise a graph (header + one edge per line, left-sorted).
void WriteEdgeList(const BipartiteGraph& graph, std::ostream& out);

void WriteEdgeListFile(const BipartiteGraph& graph, const std::string& path);

}  // namespace gdp::graph
