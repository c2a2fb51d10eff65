// The edge lists the text mutation driver starts from, shared by
// graph_io_test (ReadEdgeList's contract) and streaming_io_test (the
// streaming reader agrees with ReadEdgeList on the same mutants).
#pragma once

#include <algorithm>
#include <sstream>
#include <string>

#include "graph/bipartite_graph.hpp"
#include "graph/io.hpp"
#include "hierarchy_fixture.hpp"
#include "mutation_driver.hpp"

namespace gdp::graph::edge_list_fixture {

inline std::string Text(const BipartiteGraph& g) {
  std::ostringstream out;
  WriteEdgeList(g, out);
  return out.str();
}

// WriteEdgeList of the tiny Phase-1 fixture graph and of a graph with an
// isolated node and a parallel edge, then a hand-written list with every
// kind of skipped line, CRLF ends and extra columns.
inline gdp::mutation_driver::TextCorpus Corpus() {
  gdp::mutation_driver::TextCorpus corpus;
  corpus.Add(Text(gdp::hier::hierarchy_fixture::GoldenGraph("tiny")));
  corpus.Add(Text(BipartiteGraph(4, 3, {{0, 0}, {0, 0}, {2, 1}, {3, 2}, {0, 2}})));
  corpus.Add(
      "# weights and timestamps\r\n"
      "3\t2\r\n"
      "0\t1\t0.5\t1700000000\r\n"
      "\r\n"
      "  # indented\n"
      " \t\n"
      "2 0 7\n"
      "1 1");
  return corpus;
}

// The same nodes and the same edges in the same order per left node: what
// WriteEdgeList preserves (the right side's order follows the file's).
inline bool SameLeftSide(const BipartiteGraph& a, const BipartiteGraph& b) {
  const auto ao = a.offsets(Side::kLeft);
  const auto bo = b.offsets(Side::kLeft);
  const auto aa = a.adjacency(Side::kLeft);
  const auto ba = b.adjacency(Side::kLeft);
  return a.num_left() == b.num_left() && a.num_right() == b.num_right() &&
         std::equal(ao.begin(), ao.end(), bo.begin(), bo.end()) &&
         std::equal(aa.begin(), aa.end(), ba.begin(), ba.end());
}

}  // namespace gdp::graph::edge_list_fixture
