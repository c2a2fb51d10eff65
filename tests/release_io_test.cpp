#include "core/release_io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "graph/generators.hpp"
#include "mutation_driver.hpp"

namespace gdp::core {
namespace {

MultiLevelRelease SampleRelease(bool with_groups = true) {
  std::vector<LevelRelease> levels;
  for (int i = 0; i < 3; ++i) {
    LevelRelease lr;
    lr.level = i;
    lr.sensitivity = 10.0 * (i + 1);
    lr.noise_stddev = 2.5 * (i + 1);
    lr.group_noise_stddev = 3.5 * (i + 1);
    lr.true_total = 1000.0;
    lr.noisy_total = 1000.0 + 7.25 * i;
    if (with_groups && i == 1) {
      lr.true_group_counts = {400.0, 600.0};
      lr.noisy_group_counts = {401.5, 596.25};
    }
    levels.push_back(std::move(lr));
  }
  return MultiLevelRelease(std::move(levels));
}

TEST(ReleaseIoTest, RoundTripsThroughStream) {
  const MultiLevelRelease r = SampleRelease();
  std::stringstream ss;
  WriteRelease(r, ss);
  const MultiLevelRelease back = ReadRelease(ss);
  ASSERT_EQ(back.num_levels(), 3);
  for (int i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(back.level(i).sensitivity, r.level(i).sensitivity);
    EXPECT_DOUBLE_EQ(back.level(i).noise_stddev, r.level(i).noise_stddev);
    EXPECT_DOUBLE_EQ(back.level(i).group_noise_stddev,
                     r.level(i).group_noise_stddev);
    EXPECT_DOUBLE_EQ(back.level(i).noisy_total, r.level(i).noisy_total);
    EXPECT_EQ(back.level(i).noisy_group_counts, r.level(i).noisy_group_counts);
    EXPECT_EQ(back.level(i).true_group_counts, r.level(i).true_group_counts);
  }
}

TEST(ReleaseIoTest, RoundTripsRealPipelineOutput) {
  gdp::common::Rng rng(3);
  const auto g = gdp::graph::GenerateUniformRandom(200, 200, 2000, rng);
  SessionSpec cfg;
  cfg.hierarchy.depth = 4;
  const DisclosureResult result = RunDisclosure(g, cfg, rng);
  std::stringstream ss;
  WriteRelease(result.release, ss);
  const MultiLevelRelease back = ReadRelease(ss);
  ASSERT_EQ(back.num_levels(), result.release.num_levels());
  for (int i = 0; i < back.num_levels(); ++i) {
    EXPECT_DOUBLE_EQ(back.level(i).noisy_total,
                     result.release.level(i).noisy_total);
    EXPECT_EQ(back.level(i).noisy_group_counts.size(),
              result.release.level(i).noisy_group_counts.size());
  }
}

TEST(ReleaseIoTest, StrippedReleaseRoundTrips) {
  const MultiLevelRelease pub = SampleRelease().StripTruth();
  std::stringstream ss;
  WriteRelease(pub, ss);
  const MultiLevelRelease back = ReadRelease(ss);
  EXPECT_EQ(back.level(1).true_group_counts, (std::vector<double>{0.0, 0.0}));
  EXPECT_DOUBLE_EQ(back.level(1).noisy_group_counts[0], 401.5);
}

TEST(ReleaseIoTest, CommentsAreSkipped) {
  const MultiLevelRelease r = SampleRelease(false);
  std::stringstream ss;
  ss << "# produced by unit test\n";
  WriteRelease(r, ss);
  const MultiLevelRelease back = ReadRelease(ss);
  EXPECT_EQ(back.num_levels(), 3);
}

TEST(ReleaseIoTest, BadMagicThrows) {
  std::istringstream in("not-a-release\n");
  EXPECT_THROW((void)ReadRelease(in), gdp::common::IoError);
}

TEST(ReleaseIoTest, TruncatedInputThrows) {
  std::istringstream in("gdp-release v1\nlevels 2\nlevel 0 1 1 1 1 1 0\n");
  EXPECT_THROW((void)ReadRelease(in), gdp::common::IoError);
}

TEST(ReleaseIoTest, ShortLevelLineThrows) {
  // Old 6-field format (missing group_noise_stddev) must be rejected.
  std::istringstream in("gdp-release v1\nlevels 1\nlevel 0 1 1 1 1 0\n");
  EXPECT_THROW((void)ReadRelease(in), gdp::common::IoError);
}

TEST(ReleaseIoTest, BadLevelCountThrows) {
  std::istringstream in("gdp-release v1\nlevels 0\n");
  EXPECT_THROW((void)ReadRelease(in), gdp::common::IoError);
}

TEST(ReleaseIoTest, ImplausibleLevelCountRejectedBeforeAllocation) {
  // A corrupt header must not drive a gigabyte-scale reserve: the count is
  // bounds-checked before any container is sized.
  std::istringstream in("gdp-release v1\nlevels 2000000000\nlevel 0 1 1 1 1 1 0\n");
  EXPECT_THROW((void)ReadRelease(in), gdp::common::IoError);
}

TEST(ReleaseIoTest, GroupCountBeyondLineCapacityRejectedBeforeResize) {
  // Declared 4e9 groups backed by a 20-character line: each (true, noisy)
  // pair needs at least 4 characters, so this is malformed by construction
  // and must be rejected before the giant resize, not after.
  std::istringstream in(
      "gdp-release v1\nlevels 1\nlevel 0 1 1 1 1 1 4000000000\n"
      "group_counts 0 1 1\n");
  EXPECT_THROW((void)ReadRelease(in), gdp::common::IoError);
}

TEST(ReleaseIoTest, MaximalGroupCountForLineStillParses) {
  // Boundary sanity: a legitimate line is never rejected by the capacity
  // bound (every pair costs more than the 4 characters the bound assumes).
  const MultiLevelRelease r = SampleRelease();
  std::stringstream ss;
  WriteRelease(r, ss);
  EXPECT_NO_THROW((void)ReadRelease(ss));
}

TEST(ReleaseIoTest, TruncatedGroupCountsThrow) {
  std::istringstream in(
      "gdp-release v1\nlevels 1\nlevel 0 1 1 1 1 1 2\ngroup_counts 0 1 1\n");
  EXPECT_THROW((void)ReadRelease(in), gdp::common::IoError);
}

TEST(ReleaseIoTest, MismatchedGroupLevelEchoThrows) {
  std::istringstream in(
      "gdp-release v1\nlevels 1\nlevel 0 1 1 1 1 1 1\ngroup_counts 5 1 1\n");
  EXPECT_THROW((void)ReadRelease(in), gdp::common::IoError);
}

TEST(ReleaseIoTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/gdp_release_test.tsv";
  const MultiLevelRelease r = SampleRelease();
  WriteReleaseFile(r, path);
  const MultiLevelRelease back = ReadReleaseFile(path);
  EXPECT_EQ(back.num_levels(), 3);
  std::remove(path.c_str());
}

TEST(ReleaseIoTest, MissingFileThrows) {
  EXPECT_THROW((void)ReadReleaseFile("/nonexistent/release.tsv"),
               gdp::common::IoError);
}

std::string ReleaseText(const MultiLevelRelease& release) {
  std::ostringstream out;
  WriteRelease(release, out);
  return out.str();
}

MultiLevelRelease ParseRelease(const std::string& text) {
  std::istringstream in(text);
  return ReadRelease(in);
}

TEST(ReleaseIoTest, LevelCountIsBoundedByTheHierarchyDepth) {
  // One level per hierarchy level: 256 levels read, 257 are refused.
  const auto release_of = [](int levels) {
    std::string text = "gdp-release v1\nlevels " + std::to_string(levels) + "\n";
    for (int i = 0; i < levels; ++i) {
      text += "level " + std::to_string(i) + " 1 1 1 1 1 0\n";
    }
    return text;
  };
  EXPECT_EQ(ParseRelease(release_of(256)).num_levels(), 256);
  EXPECT_THROW((void)ParseRelease(release_of(257)), gdp::common::IoError);
}

TEST(ReleaseIoTest, OutOfOrderLevelIsAFormatError) {
  EXPECT_THROW(
      (void)ParseRelease("gdp-release v1\nlevels 1\nlevel 1 1 1 1 1 1 0\n"),
      gdp::common::IoError);
}

TEST(ReleaseIoTest, SharesTheTextGrammarOfTheOtherFormats) {
  const std::string text = ReleaseText(SampleRelease());
  std::string crlf = "  # note\n \t\n";
  for (const char c : text) {
    crlf += c == '\n' ? std::string("\r\n") : std::string(1, c);
  }
  EXPECT_EQ(ReleaseText(ParseRelease(crlf)), text);
  for (const char* bad :
       {"gdp-release v1\nlevels 1 junk\nlevel 0 1 1 1 1 1 0\n",
        "gdp-release v1\nlevels +1\nlevel 0 1 1 1 1 1 0\n",
        "gdp-release v1\nlevels 1\nlevel 0 1 1 1 1 1 0 junk\n",
        "gdp-release v1\nlevels 1\nlevel 0 1 1 inf 1 1 0\n",
        "gdp-release v1\nlevels 1\nlevel 0 1 1 1 1 1 1\n"
        "group_counts 0 1 1 1\n"}) {
    EXPECT_THROW((void)ParseRelease(bad), gdp::common::IoError) << bad;
  }
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](double x, double y) {
                      return std::bit_cast<std::uint64_t>(x) ==
                             std::bit_cast<std::uint64_t>(y);
                    });
}

bool SameRelease(const MultiLevelRelease& a, const MultiLevelRelease& b) {
  if (a.num_levels() != b.num_levels()) {
    return false;
  }
  for (int i = 0; i < a.num_levels(); ++i) {
    const LevelRelease& x = a.level(i);
    const LevelRelease& y = b.level(i);
    if (x.level != y.level ||
        !SameBits({x.sensitivity, x.noise_stddev, x.group_noise_stddev,
                   x.true_total, x.noisy_total},
                  {y.sensitivity, y.noise_stddev, y.group_noise_stddev,
                   y.true_total, y.noisy_total}) ||
        !SameBits(x.true_group_counts, y.true_group_counts) ||
        !SameBits(x.noisy_group_counts, y.noisy_group_counts)) {
      return false;
    }
  }
  return true;
}

// Seeded mutants of the six golden releases: every integer token rewritten
// to 0, 1, its value - 1 and + 1, 2^32 - 1, 2^32, 2^64 - 1, 2^64 and -1,
// then bit flips, splices and truncations.  Each is refused with IoError or
// read to a release that WriteRelease writes back to the same bits.
TEST(ReleaseMutationTest, ReadReleaseSurvivesSeededMutants) {
  mutation_driver::TextCorpus corpus;
  for (const char* kind :
       {"gaussian", "analytic_gaussian", "discrete_gaussian", "laplace",
        "geometric", "gaussian_totals"}) {
    std::ifstream in(std::string(GDP_TEST_DATA_DIR) + "/golden_release_" +
                     kind + ".tsv");
    ASSERT_TRUE(in) << kind;
    std::ostringstream text;
    text << in.rdbuf();
    corpus.Add(text.str());
  }
  constexpr std::size_t kRandomMutants = 20'000;
  const std::size_t mutants = mutation_driver::Run(
      corpus, 0x7e1e, kRandomMutants, [](const mutation_driver::Mutant& m) {
        const std::string failure = mutation_driver::TextContract(
            m.bytes, ParseRelease, ReleaseText, SameRelease);
        if (!failure.empty()) {
          ADD_FAILURE() << m.what << ": " << failure;
        }
        return failure.empty();
      });
  EXPECT_GE(mutants, kRandomMutants);
}

}  // namespace
}  // namespace gdp::core
