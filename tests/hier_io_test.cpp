#include "hier/io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "hier/specialization.hpp"
#include "hierarchy_fixture.hpp"
#include "mutation_driver.hpp"

namespace gdp::hier {
namespace {

using gdp::common::Rng;
using gdp::graph::BipartiteGraph;

GroupHierarchy BuildTestHierarchy(int depth = 4) {
  Rng grng(3);
  const BipartiteGraph g = gdp::graph::GenerateUniformRandom(48, 64, 400, grng);
  SpecializationConfig cfg;
  cfg.depth = depth;
  const Specializer spec(cfg);
  Rng rng(5);
  return spec.BuildHierarchy(g, rng).hierarchy;
}

TEST(HierIoTest, RoundTripsThroughStream) {
  const GroupHierarchy h = BuildTestHierarchy();
  std::stringstream ss;
  WriteHierarchy(h, ss);
  const GroupHierarchy back = ReadHierarchy(ss);
  ASSERT_EQ(back.num_levels(), h.num_levels());
  for (int lvl = 0; lvl < h.num_levels(); ++lvl) {
    const Partition& a = h.level(lvl);
    const Partition& b = back.level(lvl);
    ASSERT_EQ(a.num_groups(), b.num_groups()) << "level " << lvl;
    for (gdp::graph::NodeIndex v = 0; v < a.num_left_nodes(); ++v) {
      ASSERT_EQ(a.GroupOf(Side::kLeft, v), b.GroupOf(Side::kLeft, v));
    }
    for (gdp::graph::NodeIndex v = 0; v < a.num_right_nodes(); ++v) {
      ASSERT_EQ(a.GroupOf(Side::kRight, v), b.GroupOf(Side::kRight, v));
    }
    for (GroupId g = 0; g < a.num_groups(); ++g) {
      EXPECT_EQ(a.group(g).parent, b.group(g).parent);
      EXPECT_EQ(a.group(g).side, b.group(g).side);
      EXPECT_EQ(a.group(g).size, b.group(g).size);
    }
  }
}

TEST(HierIoTest, ReaderRevalidatesRefinement) {
  // Corrupt a parent pointer: the reader must reject the file.
  const GroupHierarchy h = BuildTestHierarchy(3);
  std::stringstream ss;
  WriteHierarchy(h, ss);
  std::string text = ss.str();
  // The level-3 (top) parents line is "parents -1 -1"; rewrite a mid-level
  // parents line instead: find the second "parents" line and break its first
  // entry.
  const auto first = text.find("parents");
  ASSERT_NE(first, std::string::npos);
  const auto second = text.find("parents", first + 1);
  ASSERT_NE(second, std::string::npos);
  text.replace(second, std::string("parents 0").size(), "parents 9");
  std::istringstream in(text);
  EXPECT_ANY_THROW((void)ReadHierarchy(in));
}

TEST(HierIoTest, BadMagicThrows) {
  std::istringstream in("wrong-magic\n");
  EXPECT_THROW((void)ReadHierarchy(in), gdp::common::IoError);
}

TEST(HierIoTest, TruncatedFileThrows) {
  const GroupHierarchy h = BuildTestHierarchy(3);
  std::stringstream ss;
  WriteHierarchy(h, ss);
  const std::string text = ss.str();
  std::istringstream in(text.substr(0, text.size() / 2));
  EXPECT_THROW((void)ReadHierarchy(in), gdp::common::IoError);
}

TEST(HierIoTest, LabelOutOfRangeThrows) {
  std::istringstream in(
      "gdp-hierarchy v1\n"
      "dims 1 1\n"
      "levels 2\n"
      "level 0 2\n"
      "parents 0 1\n"
      "left_labels 5\n"  // out of range
      "right_labels 1\n"
      "level 1 2\n"
      "parents -1 -1\n"
      "left_labels 0\n"
      "right_labels 1\n");
  EXPECT_THROW((void)ReadHierarchy(in), gdp::common::IoError);
}

TEST(HierIoTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/gdp_hier_test.tsv";
  const GroupHierarchy h = BuildTestHierarchy(3);
  WriteHierarchyFile(h, path);
  const GroupHierarchy back = ReadHierarchyFile(path);
  EXPECT_EQ(back.num_levels(), h.num_levels());
  std::remove(path.c_str());
}

TEST(HierIoTest, MissingFileThrows) {
  EXPECT_THROW((void)ReadHierarchyFile("/nonexistent/hier.tsv"),
               gdp::common::IoError);
}

std::string HierarchyText(const GroupHierarchy& h) {
  std::ostringstream out;
  WriteHierarchy(h, out);
  return out.str();
}

GroupHierarchy ParseHierarchy(const std::string& text) {
  std::istringstream in(text);
  return ReadHierarchy(in);
}

// Each declared count here is refused by its bound before anything is sized
// from it.
TEST(HierIoTest, HostileCountsAreRefusedBeforeAllocation) {
  for (const char* text : {
           "gdp-hierarchy v1\ndims 1 1\nlevels 2000000000\n",
           "gdp-hierarchy v1\ndims 1 1\nlevels 2\nlevel 0 4000000000\n"
           "parents 0 1\n",
           "gdp-hierarchy v1\ndims 4000000000 1\nlevels 2\nlevel 0 2\n"
           "parents 0 1\nleft_labels 0\n",
           "gdp-hierarchy v1\ndims -1 1\nlevels 2\nlevel 0 2\n"
           "parents 0 1\nleft_labels 0\n",
       }) {
    EXPECT_THROW((void)ParseHierarchy(text), gdp::common::IoError) << text;
  }
}

TEST(HierIoTest, SharesTheTextGrammarOfTheOtherFormats) {
  const std::string text = HierarchyText(BuildTestHierarchy(3));
  // Indented comments, blank-only lines and CRLF ends read like LF input.
  std::string crlf = "  # note\n \t\n";
  for (const char c : text) {
    crlf += c == '\n' ? std::string("\r\n") : std::string(1, c);
  }
  EXPECT_EQ(HierarchyText(ParseHierarchy(crlf)), text);
  // A trailing field, a '+' and a negative parent other than -1 are refused.
  const auto with = [&](const std::string& from, const std::string& to) {
    std::string edited = text;
    const std::size_t at = edited.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return edited.replace(at, from.size(), to);
  };
  for (const std::string& bad :
       {with("dims 48 64\n", "dims 48 64 junk\n"),
        with("levels 4\n", "levels +4\n"),
        with("parents -1 -1\n", "parents -7 -1\n"),
        with("parents -1 -1\n", "parents -1 -1 -1\n"),
        with("parents -1 -1\n", "parents 4294967296 -1\n")}) {
    EXPECT_THROW((void)ParseHierarchy(bad), gdp::common::IoError) << bad;
  }
}

bool SameHierarchy(const GroupHierarchy& a, const GroupHierarchy& b) {
  if (a.num_levels() != b.num_levels()) {
    return false;
  }
  for (int lvl = 0; lvl < a.num_levels(); ++lvl) {
    const Partition& pa = a.level(lvl);
    const Partition& pb = b.level(lvl);
    if (!std::ranges::equal(pa.labels(Side::kLeft), pb.labels(Side::kLeft)) ||
        !std::ranges::equal(pa.labels(Side::kRight),
                            pb.labels(Side::kRight)) ||
        pa.num_groups() != pb.num_groups()) {
      return false;
    }
    for (GroupId g = 0; g < pa.num_groups(); ++g) {
      const GroupInfo& ga = pa.group(g);
      const GroupInfo& gb = pb.group(g);
      if (ga.side != gb.side || ga.size != gb.size || ga.parent != gb.parent) {
        return false;
      }
    }
  }
  return true;
}

// Seeded mutants of WriteHierarchy's output for the Phase-1 fixture's
// builds over its tiny graph (depths 1 to 9): every integer token rewritten
// to 0, 1, its value - 1 and + 1, 2^32 - 1, 2^32, 2^64 - 1, 2^64 and -1,
// then bit flips, splices and truncations.  Each is refused (IoError, or
// std::invalid_argument from the refinement check) or read to a hierarchy
// that WriteHierarchy writes back to the same hierarchy.
TEST(HierarchyMutationTest, ReadHierarchySurvivesSeededMutants) {
  mutation_driver::TextCorpus corpus;
  for (const hierarchy_fixture::GoldenConfig& config :
       hierarchy_fixture::GoldenConfigs()) {
    if (std::string(config.graph) == "tiny") {
      Rng rng(config.seed);
      corpus.Add(HierarchyText(
          hierarchy_fixture::BuildGolden(
              config, hierarchy_fixture::GoldenGraph("tiny"), rng)
              .hierarchy));
    }
  }
  ASSERT_EQ(corpus.entries.size(), 7u);
  constexpr std::size_t kRandomMutants = 20'000;
  const std::size_t mutants = mutation_driver::Run(
      corpus, 0x41e7, kRandomMutants, [](const mutation_driver::Mutant& m) {
        const std::string failure =
            mutation_driver::TextContract<std::invalid_argument>(
                m.bytes, ParseHierarchy, HierarchyText, SameHierarchy);
        if (!failure.empty()) {
          ADD_FAILURE() << m.what << ": " << failure;
        }
        return failure.empty();
      });
  EXPECT_GE(mutants, kRandomMutants);
}

}  // namespace
}  // namespace gdp::hier
