#include "graph/io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "edge_list_fixture.hpp"
#include "graph/generators.hpp"
#include "mutation_driver.hpp"

namespace gdp::graph {
namespace {

TEST(GraphIoTest, RoundTripsThroughStream) {
  const BipartiteGraph g(3, 4, {{0, 0}, {1, 2}, {2, 3}, {0, 3}});
  std::stringstream ss;
  WriteEdgeList(g, ss);
  const BipartiteGraph back = ReadEdgeList(ss);
  EXPECT_EQ(back.num_left(), 3u);
  EXPECT_EQ(back.num_right(), 4u);
  EXPECT_EQ(back.EdgeList(), g.EdgeList());
}

TEST(GraphIoTest, RoundTripsRandomGraph) {
  gdp::common::Rng rng(3);
  const BipartiteGraph g = GenerateUniformRandom(50, 60, 500, rng);
  std::stringstream ss;
  WriteEdgeList(g, ss);
  const BipartiteGraph back = ReadEdgeList(ss);
  EXPECT_EQ(back.EdgeList(), g.EdgeList());
}

TEST(GraphIoTest, SkipsCommentsAndBlankLines) {
  std::istringstream in(
      "# a comment\n"
      "\n"
      "2 2\n"
      "# another comment\n"
      "0 1\n"
      "\n"
      "1 0\n");
  const BipartiteGraph g = ReadEdgeList(in);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(GraphIoTest, AcceptsTabsAndSpaces) {
  std::istringstream in("2\t3\n0\t2\n1 1\n");
  const BipartiteGraph g = ReadEdgeList(in);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.Degree(Side::kRight, 2), 1u);
}

TEST(GraphIoTest, EmptyEdgeSectionIsValid) {
  std::istringstream in("4 5\n");
  const BipartiteGraph g = ReadEdgeList(in);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.num_left(), 4u);
}

TEST(GraphIoTest, MissingHeaderThrows) {
  std::istringstream in("# only comments\n");
  EXPECT_THROW((void)ReadEdgeList(in), gdp::common::IoError);
}

TEST(GraphIoTest, MalformedHeaderThrows) {
  std::istringstream in("abc def\n");
  EXPECT_THROW((void)ReadEdgeList(in), gdp::common::IoError);
}

TEST(GraphIoTest, MalformedEdgeThrows) {
  std::istringstream in("2 2\n0 x\n");
  EXPECT_THROW((void)ReadEdgeList(in), gdp::common::IoError);
}

TEST(GraphIoTest, TruncatedEdgeLineThrows) {
  std::istringstream in("2 2\n1\n");
  EXPECT_THROW((void)ReadEdgeList(in), gdp::common::IoError);
}

TEST(GraphIoTest, OutOfRangeEndpointThrows) {
  std::istringstream in("2 2\n0 5\n");
  EXPECT_THROW((void)ReadEdgeList(in), gdp::common::IoError);
}

TEST(GraphIoTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/gdp_io_test_graph.tsv";
  const BipartiteGraph g(2, 2, {{0, 0}, {1, 1}});
  WriteEdgeListFile(g, path);
  const BipartiteGraph back = ReadEdgeListFile(path);
  EXPECT_EQ(back.EdgeList(), g.EdgeList());
  std::remove(path.c_str());
}

TEST(GraphIoTest, MissingFileThrows) {
  EXPECT_THROW((void)ReadEdgeListFile("/nonexistent/path/graph.tsv"),
               gdp::common::IoError);
}

TEST(GraphIoTest, UnwritablePathThrows) {
  const BipartiteGraph g(1, 1, {});
  EXPECT_THROW(WriteEdgeListFile(g, "/nonexistent/dir/out.tsv"),
               gdp::common::IoError);
}

// ---------- the node allowance and the shared text grammar ----------

TEST(GraphIoTest, HeaderBeyondTheNodeAllowanceIsRefused) {
  // Four billion left nodes behind 13 bytes: refused before a CSR is sized
  // from the header.
  std::istringstream in("4000000000\t1\n0\t0\n");
  EXPECT_THROW((void)ReadEdgeList(in), gdp::common::IoError);
}

TEST(GraphIoTest, NodeAllowanceIsTwoToTheTwentyPlusHalfTheBytes) {
  // "1048580\t1\n" is 10 bytes: it may declare 2^20 + 5 nodes in all.
  std::istringstream at("1048580\t1\n");
  EXPECT_EQ(ReadEdgeList(at).num_left(), 1048580u);
  std::istringstream past("1048581\t1\n");
  EXPECT_THROW((void)ReadEdgeList(past), gdp::common::IoError);
}

TEST(GraphIoTest, ReadsCrlfIndentedCommentsAndExtraColumns) {
  std::istringstream in(
      "# c\r\n2\t2\r\n0\t1\t0.5\t1700000000\r\n\r\n  # note\r\n \t\r\n1 0\r\n");
  const BipartiteGraph g = ReadEdgeList(in);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.Degree(Side::kRight, 1), 1u);
}

TEST(GraphIoTest, EveryNumberIsAWholeField) {
  for (const char* text : {"2 2\n0 1junk\n", "2 2\n0 1#c\n", "2 2\n0 +1\n",
                           "2 2x\n0 1\n", "2 2\n0 4294967296\n"}) {
    std::istringstream in(text);
    EXPECT_THROW((void)ReadEdgeList(in), gdp::common::IoError) << text;
  }
}

// Seeded mutants of the fixture edge lists: every integer token rewritten to
// 0, 1, its value - 1 and + 1, 2^32 - 1, 2^32, 2^64 - 1, 2^64 and -1, then
// bit flips, splices and truncations.  Each is refused with IoError or read
// to a graph that WriteEdgeList writes back to the same graph.
TEST(EdgeListMutationTest, ReadEdgeListSurvivesSeededMutants) {
  const auto parse = [](const std::string& text) {
    std::istringstream in(text);
    return ReadEdgeList(in);
  };
  constexpr std::size_t kRandomMutants = 20'000;
  const std::size_t mutants = mutation_driver::Run(
      edge_list_fixture::Corpus(), 0xed6e, kRandomMutants,
      [&](const mutation_driver::Mutant& m) {
        const std::string failure = mutation_driver::TextContract(
            m.bytes, parse, edge_list_fixture::Text,
            edge_list_fixture::SameLeftSide);
        if (!failure.empty()) {
          ADD_FAILURE() << m.what << ": " << failure;
        }
        return failure.empty();
      });
  EXPECT_GE(mutants, kRandomMutants);
}

}  // namespace
}  // namespace gdp::graph
