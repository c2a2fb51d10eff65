#include "graph/io.hpp"

#include <cstdint>
#include <fstream>
#include <limits>
#include <string>

#include "common/error.hpp"
#include "common/text_reader.hpp"

namespace gdp::graph {

using gdp::common::IoError;

namespace {

// An edge line names at most two nodes in at least four bytes ("0\t0\n"),
// so B bytes name at most B/2 nodes; a header may declare about a million
// isolated nodes beyond that, and the CSR a parse allocates stays O(B).
constexpr std::uint64_t kIsolatedNodeAllowance = std::uint64_t{1} << 20;

// Refuses a header whose node counts the input's `bytes` cannot back.
void CheckDeclaredNodes(NodeIndex num_left, NodeIndex num_right,
                        std::uint64_t bytes, std::uint64_t header_line) {
  const std::uint64_t declared = std::uint64_t{num_left} + num_right;
  const std::uint64_t allowed = kIsolatedNodeAllowance + bytes / 2;
  if (declared > allowed) {
    throw IoError("edge list line " + std::to_string(header_line) + ": " +
                  std::to_string(declared) + " nodes declared, past the " +
                  std::to_string(allowed) + " (2^20 + B/2) that B = " +
                  std::to_string(bytes) + " bytes back");
  }
}

// Opens an edge-list file at its start and sets `bytes` to its size.
std::ifstream OpenEdgeListFile(const std::string& path, std::uint64_t& bytes) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    throw IoError("cannot open edge list file: " + path);
  }
  const std::streamoff end = in.tellg();
  bytes = end > 0 ? static_cast<std::uint64_t>(end) : 0;
  in.seekg(0, std::ios::beg);
  return in;
}

// One parsing pass over an edge list stream: on_header(num_left, num_right,
// header_line) once, then on_edge(l, r) per data line (endpoints already
// range-checked); returns the bytes read.  Both readers parse through this.
// A line's fields after its first two (weights, timestamps) are ignored.
template <typename HeaderFn, typename EdgeFn>
std::uint64_t ScanEdgeList(std::istream& in, HeaderFn&& on_header,
                           EdgeFn&& on_edge) {
  gdp::common::TextReader reader(in, "edge list");
  if (!reader.Next()) {
    reader.Fail("unexpected end of input, expected the header line");
  }
  const auto num_left = reader.Number<NodeIndex>("num_left");
  const auto num_right = reader.Number<NodeIndex>("num_right");
  on_header(num_left, num_right, reader.line_no());
  while (reader.Next()) {
    const auto l = reader.Number<NodeIndex>("left index");
    const auto r = reader.Number<NodeIndex>("right index");
    if (l >= num_left || r >= num_right) {
      reader.Fail("endpoint out of range");
    }
    on_edge(l, r);
  }
  return reader.bytes_read();
}

}  // namespace

NodeIndex CheckedNodeCount(std::uint64_t value, const char* what) {
  if (value > std::numeric_limits<NodeIndex>::max()) {
    throw gdp::common::CapacityError(
        std::string(what) + " " + std::to_string(value) +
        " exceeds the 32-bit node index range");
  }
  return static_cast<NodeIndex>(value);
}

BipartiteGraph ReadEdgeListFileStreaming(const std::string& path) {
  std::uint64_t file_bytes = 0;
  // Pass 1: degrees, counted straight into the (future) offset columns.
  NodeIndex num_left = 0;
  NodeIndex num_right = 0;
  EdgeCount num_edges = 0;
  std::vector<EdgeCount> left_offsets;
  std::vector<EdgeCount> right_offsets;
  {
    std::ifstream in = OpenEdgeListFile(path, file_bytes);
    // The header is checked against the file's size before it sizes the
    // offset columns (ReadEdgeList checks the bytes it read: the same).
    ScanEdgeList(
        in,
        [&](NodeIndex nl, NodeIndex nr, std::uint64_t header_line) {
          CheckDeclaredNodes(nl, nr, file_bytes, header_line);
          num_left = nl;
          num_right = nr;
          left_offsets.assign(static_cast<std::size_t>(nl) + 1, 0);
          right_offsets.assign(static_cast<std::size_t>(nr) + 1, 0);
        },
        [&](NodeIndex l, NodeIndex r) {
          ++left_offsets[static_cast<std::size_t>(l) + 1];
          ++right_offsets[static_cast<std::size_t>(r) + 1];
          ++num_edges;
        });
  }
  for (std::size_t i = 1; i < left_offsets.size(); ++i) {
    left_offsets[i] += left_offsets[i - 1];
  }
  for (std::size_t i = 1; i < right_offsets.size(); ++i) {
    right_offsets[i] += right_offsets[i - 1];
  }

  // Pass 2: scatter adjacency through per-node cursors.  The file is not
  // ours to lock, so every cursor step re-proves it still lands inside the
  // node's slot range — a file that changed between the passes is rejected
  // instead of corrupting the CSR.
  std::vector<NodeIndex> left_adjacency(static_cast<std::size_t>(num_edges));
  std::vector<NodeIndex> right_adjacency(static_cast<std::size_t>(num_edges));
  {
    std::vector<EdgeCount> left_cursor(left_offsets.begin(),
                                       left_offsets.end() - 1);
    std::vector<EdgeCount> right_cursor(right_offsets.begin(),
                                        right_offsets.end() - 1);
    const auto changed = [&]() -> IoError {
      return IoError("edge list file '" + path +
                     "' changed between streaming passes");
    };
    std::ifstream in = OpenEdgeListFile(path, file_bytes);
    EdgeCount seen = 0;
    ScanEdgeList(
        in,
        [&](NodeIndex nl, NodeIndex nr, std::uint64_t) {
          if (nl != num_left || nr != num_right) {
            throw changed();
          }
        },
        [&](NodeIndex l, NodeIndex r) {
          EdgeCount& lc = left_cursor[l];
          EdgeCount& rc = right_cursor[r];
          if (lc >= left_offsets[static_cast<std::size_t>(l) + 1] ||
              rc >= right_offsets[static_cast<std::size_t>(r) + 1]) {
            throw changed();
          }
          left_adjacency[static_cast<std::size_t>(lc++)] = r;
          right_adjacency[static_cast<std::size_t>(rc++)] = l;
          ++seen;
        });
    if (seen != num_edges) {
      throw changed();
    }
  }

  // FromSnapshot re-proves the CSR invariants; for columns we just built
  // that is a cheap O(V+E) belt-and-braces pass, and it keeps one public
  // construction path for adopted columns.
  return BipartiteGraph::FromSnapshot(
      num_left, num_right, num_edges,
      gdp::storage::ColumnView<EdgeCount>(std::move(left_offsets)),
      gdp::storage::ColumnView<NodeIndex>(std::move(left_adjacency)),
      gdp::storage::ColumnView<EdgeCount>(std::move(right_offsets)),
      gdp::storage::ColumnView<NodeIndex>(std::move(right_adjacency)));
}

BipartiteGraph ReadEdgeList(std::istream& in, std::size_t edge_reserve_hint) {
  NodeIndex num_left = 0;
  NodeIndex num_right = 0;
  std::uint64_t header_line = 0;
  std::vector<Edge> edges;
  edges.reserve(edge_reserve_hint);
  const std::uint64_t bytes = ScanEdgeList(
      in,
      [&](NodeIndex nl, NodeIndex nr, std::uint64_t line) {
        num_left = nl;
        num_right = nr;
        header_line = line;
      },
      [&](NodeIndex l, NodeIndex r) { edges.push_back(Edge{l, r}); });
  // Nothing was sized from the header yet, so all the bytes read count.
  CheckDeclaredNodes(num_left, num_right, bytes, header_line);
  return BipartiteGraph(num_left, num_right, std::move(edges));
}

BipartiteGraph ReadEdgeListFile(const std::string& path) {
  std::uint64_t bytes = 0;
  std::ifstream in = OpenEdgeListFile(path, bytes);
  // File size / shortest-possible edge line ("0\t0\n" = 4 bytes) bounds the
  // edge count from above; one reserve up front instead of log2(E)
  // reallocation-and-copy cycles during the read.
  return ReadEdgeList(in, static_cast<std::size_t>(bytes / 4));
}

void WriteEdgeList(const BipartiteGraph& graph, std::ostream& out) {
  out << "# gdp bipartite edge list\n";
  out << graph.num_left() << '\t' << graph.num_right() << '\n';
  for (NodeIndex l = 0; l < graph.num_left(); ++l) {
    for (const NodeIndex r : graph.Neighbors(Side::kLeft, l)) {
      out << l << '\t' << r << '\n';
    }
  }
}

void WriteEdgeListFile(const BipartiteGraph& graph, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    throw IoError("cannot open edge list file for writing: " + path);
  }
  WriteEdgeList(graph, out);
  if (!out) {
    throw IoError("write failure on edge list file: " + path);
  }
}

}  // namespace gdp::graph
