#include "core/release_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "graph/generators.hpp"

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

}  // namespace
}  // namespace gdp::core
