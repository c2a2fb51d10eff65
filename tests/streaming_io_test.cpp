// The streaming large-graph path: chunked generation, two-pass bounded-RSS
// CSR build, chunked CRC verification, streamed snapshot writing, and the
// 32-bit capacity guards.  Every streaming variant here has a materializing
// twin, and the contract under test is always the same: IDENTICAL output,
// bounded memory.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "cli/commands.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "edge_list_fixture.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "mutation_driver.hpp"
#include "storage/snapshot.hpp"

namespace gdp::graph {
namespace {

using gdp::common::CapacityError;
using gdp::common::Crc32;
using gdp::common::Crc32Chunked;
using gdp::common::Rng;

DblpLikeParams StreamParams() {
  DblpLikeParams p;
  p.num_left = 700;
  p.num_right = 900;
  p.num_edges = 12'345;
  return p;
}

std::vector<Edge> CollectStream(std::size_t chunk_edges, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Edge> all;
  GenerateDblpLikeStream(StreamParams(), rng, chunk_edges,
                         [&](std::span<const Edge> chunk) {
                           all.insert(all.end(), chunk.begin(), chunk.end());
                         });
  return all;
}

std::uint32_t EdgeCrc(const std::vector<Edge>& edges) {
  return Crc32(std::string_view(
      reinterpret_cast<const char*>(edges.data()),  // NOLINT
      edges.size() * sizeof(Edge)));
}

TEST(StreamGeneratorTest, ChunkSizeNeverChangesTheEdgeStream) {
  const std::vector<Edge> reference = CollectStream(1 << 20, 99);
  ASSERT_EQ(reference.size(), StreamParams().num_edges);
  const std::uint32_t ref_crc = EdgeCrc(reference);
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                  std::size_t{1000}, std::size_t{12'345}}) {
    EXPECT_EQ(EdgeCrc(CollectStream(chunk, 99)), ref_crc)
        << "chunk_edges=" << chunk;
  }
}

TEST(StreamGeneratorTest, SameSeedSameStreamDifferentSeedDifferent) {
  EXPECT_EQ(EdgeCrc(CollectStream(512, 4)), EdgeCrc(CollectStream(512, 4)));
  EXPECT_NE(EdgeCrc(CollectStream(512, 4)), EdgeCrc(CollectStream(512, 5)));
}

TEST(StreamGeneratorTest, RejectsZeroChunkAndEmptySides) {
  Rng rng(1);
  const auto sink = [](std::span<const Edge>) {};
  EXPECT_THROW(GenerateDblpLikeStream(StreamParams(), rng, 0, sink),
               std::invalid_argument);
  DblpLikeParams bad = StreamParams();
  bad.num_left = 0;
  EXPECT_THROW(GenerateDblpLikeStream(bad, rng, 16, sink),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Two-pass streaming reader vs the one-pass materializing reader.
// ---------------------------------------------------------------------------

void ExpectGraphsIdentical(const BipartiteGraph& a, const BipartiteGraph& b) {
  ASSERT_EQ(a.num_left(), b.num_left());
  ASSERT_EQ(a.num_right(), b.num_right());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (const Side side : {Side::kLeft, Side::kRight}) {
    const auto ao = a.offsets(side);
    const auto bo = b.offsets(side);
    EXPECT_TRUE(std::equal(ao.begin(), ao.end(), bo.begin(), bo.end()));
    const auto aa = a.adjacency(side);
    const auto ba = b.adjacency(side);
    EXPECT_TRUE(std::equal(aa.begin(), aa.end(), ba.begin(), ba.end()));
  }
}

TEST(StreamingReaderTest, BitIdenticalToOnePassReader) {
  const std::string path =
      ::testing::TempDir() + "/gdp_streaming_io_parity.tsv";
  Rng rng(21);
  DblpLikeParams p = StreamParams();
  p.allow_parallel_edges = true;  // parallel edges exercise stable ordering
  const BipartiteGraph g = GenerateDblpLike(p, rng);
  WriteEdgeListFile(g, path);
  ExpectGraphsIdentical(ReadEdgeListFileStreaming(path),
                        ReadEdgeListFile(path));
  std::remove(path.c_str());
}

TEST(StreamingReaderTest, AcceptsCommentsRejectsMalformed) {
  const std::string path = ::testing::TempDir() + "/gdp_streaming_io_fmt.tsv";
  {
    std::ofstream f(path);
    f << "# comment\n\n3 2\n0\t1\n# mid comment\n2\t0\n";
  }
  const BipartiteGraph g = ReadEdgeListFileStreaming(path);
  EXPECT_EQ(g.num_left(), 3u);
  EXPECT_EQ(g.num_right(), 2u);
  EXPECT_EQ(g.num_edges(), 2u);
  {
    std::ofstream f(path);
    f << "3 2\n0\tnope\n";
  }
  EXPECT_THROW((void)ReadEdgeListFileStreaming(path), gdp::common::IoError);
  {
    std::ofstream f(path);
    f << "3 2\n5\t0\n";  // endpoint out of range
  }
  EXPECT_THROW((void)ReadEdgeListFileStreaming(path), gdp::common::IoError);
  std::remove(path.c_str());
}

TEST(StreamingReaderTest, MissingFileThrows) {
  EXPECT_THROW((void)ReadEdgeListFileStreaming("/nonexistent/gdp.tsv"),
               gdp::common::IoError);
}

TEST(StreamingReaderTest, RefusesAHeaderBeyondTheNodeAllowance) {
  // Checked against the file size before the offset columns are sized, and
  // refused the same way by `pack` and `disclose --graph`.
  const std::string path = ::testing::TempDir() + "/gdp_streaming_hostile.tsv";
  const std::string snap = ::testing::TempDir() + "/gdp_streaming_hostile.gdps";
  {
    std::ofstream f(path);
    f << "4000000000\t1\n0\t0\n";
  }
  EXPECT_THROW((void)ReadEdgeListFileStreaming(path), gdp::common::IoError);
  std::ostringstream out;
  EXPECT_THROW((void)gdp::cli::Dispatch(
                   {"pack", "--graph", path, "--out", snap}, out),
               gdp::common::IoError);
  EXPECT_THROW((void)gdp::cli::Dispatch({"disclose", "--graph", path,
                                         "--release", snap},
                                        out),
               gdp::common::IoError);
  std::remove(path.c_str());
  std::remove(snap.c_str());
}

// The edge-list mutants of graph_io_test's driver (the same corpus and
// seed), each written to a file: the streaming reader refuses exactly the
// mutants ReadEdgeList refuses, both with IoError, and builds an identical
// graph from every other one.
TEST(StreamingReaderTest, AgreesWithReadEdgeListOnSeededMutants) {
  const std::string path = ::testing::TempDir() + "/gdp_streaming_mutant.tsv";
  constexpr std::size_t kRandomMutants = 2'000;
  const std::size_t mutants = mutation_driver::Run(
      edge_list_fixture::Corpus(), 0xed6e, kRandomMutants,
      [&](const mutation_driver::Mutant& m) {
        {
          std::ofstream f(path, std::ios::binary | std::ios::trunc);
          f << m.bytes;
        }
        std::optional<BipartiteGraph> one_pass;
        std::optional<BipartiteGraph> streamed;
        try {
          std::istringstream in(m.bytes);
          one_pass.emplace(ReadEdgeList(in));
        } catch (const gdp::common::IoError&) {
        }
        try {
          streamed.emplace(ReadEdgeListFileStreaming(path));
        } catch (const gdp::common::IoError&) {
        }
        if (one_pass.has_value() != streamed.has_value()) {
          ADD_FAILURE() << m.what << ": only "
                        << (one_pass ? "ReadEdgeList" : "the streaming reader")
                        << " accepts it";
          return false;
        }
        if (one_pass.has_value()) {
          ExpectGraphsIdentical(*one_pass, *streamed);
        }
        return !::testing::Test::HasFailure();
      });
  EXPECT_GE(mutants, kRandomMutants);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Chunked CRC: algebraically identical to one-shot at every split point.
// ---------------------------------------------------------------------------

TEST(Crc32ChunkedTest, EveryChunkSizeMatchesOneShot) {
  std::string data(100'003, '\0');
  Rng rng(8);
  for (char& c : data) {
    c = static_cast<char>(rng() & 0xFF);
  }
  const std::uint32_t one_shot = Crc32(data);
  for (const std::size_t chunk :
       {std::size_t{1}, std::size_t{3}, std::size_t{7}, std::size_t{64},
        std::size_t{4096}, std::size_t{100'002}, std::size_t{1} << 22}) {
    EXPECT_EQ(Crc32Chunked(data, chunk), one_shot) << "chunk=" << chunk;
  }
  // Seed chaining survives chunking too.
  const std::uint32_t seeded = Crc32(data, 0xDEADBEEF);
  EXPECT_EQ(Crc32Chunked(data, 977, 0xDEADBEEF), seeded);
}

TEST(Crc32ChunkedTest, EmptyAndZeroChunkDegradeToOneShot) {
  EXPECT_EQ(Crc32Chunked("", 16), Crc32(""));
  EXPECT_EQ(Crc32Chunked("abc", 0), Crc32("abc"));
  EXPECT_EQ(Crc32Chunked("", 16, 123u), Crc32("", 123u));
}

// ---------------------------------------------------------------------------
// 32-bit capacity guards: reject BEFORE allocation, with a typed error.
// ---------------------------------------------------------------------------

TEST(CapacityTest, CheckedNodeCountBoundary) {
  EXPECT_EQ(CheckedNodeCount(0, "n"), 0u);
  EXPECT_EQ(CheckedNodeCount((std::uint64_t{1} << 32) - 1, "n"),
            0xFFFFFFFFu);
  EXPECT_THROW((void)CheckedNodeCount(std::uint64_t{1} << 32, "n"),
               CapacityError);
  EXPECT_THROW((void)CheckedNodeCount(~std::uint64_t{0}, "n"), CapacityError);
  try {
    (void)CheckedNodeCount(std::uint64_t{1} << 32, "num_left");
    FAIL() << "expected CapacityError";
  } catch (const CapacityError& e) {
    EXPECT_NE(std::string(e.what()).find("num_left"), std::string::npos);
  }
}

TEST(CapacityTest, GenerateCliRejectsOversizedCounts) {
  const std::string path = ::testing::TempDir() + "/gdp_streaming_io_cap.tsv";
  std::ostringstream out;
  // 2^32 left nodes: must throw the typed error BEFORE the generator ever
  // sizes a permutation array from it (an accidental allocation of 2^32
  // NodeIndex entries would be a 16 GiB surprise).
  EXPECT_THROW(gdp::cli::Dispatch({"generate", "--out", path, "--left",
                                   "4294967296", "--right", "10", "--edges",
                                   "5"},
                                  out),
               CapacityError);
  EXPECT_THROW(gdp::cli::Dispatch({"generate", "--out", path, "--left", "-3"},
                                  out),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// CLI --stream path and the streamed snapshot writer.
// ---------------------------------------------------------------------------

TEST(StreamingCliTest, StreamedGenerateFeedsStreamedPack) {
  const std::string tsv = ::testing::TempDir() + "/gdp_streaming_cli.tsv";
  const std::string snap = ::testing::TempDir() + "/gdp_streaming_cli.gdps";
  std::ostringstream out;
  ASSERT_EQ(gdp::cli::Dispatch({"generate", "--out", tsv, "--left", "300",
                                "--right", "400", "--edges", "9000", "--seed",
                                "7", "--stream"},
                               out),
            0);
  EXPECT_NE(out.str().find("streamed"), std::string::npos);
  // The streamed file is a valid edge list with exactly the requested shape
  // (no dedup: all 9000 samples land).
  const BipartiteGraph g = ReadEdgeListFileStreaming(tsv);
  EXPECT_EQ(g.num_left(), 300u);
  EXPECT_EQ(g.num_right(), 400u);
  EXPECT_EQ(g.num_edges(), 9000u);
  // pack (now the streaming reader + streaming snapshot writer) round-trips
  // it with --verify's CRC + byte-compare re-load.
  std::ostringstream pack_out;
  ASSERT_EQ(gdp::cli::Dispatch(
                {"pack", "--graph", tsv, "--out", snap, "--verify"}, pack_out),
            0);
  EXPECT_NE(pack_out.str().find("verify OK"), std::string::npos);
  std::remove(tsv.c_str());
  std::remove(snap.c_str());
}

TEST(StreamingSnapshotTest, StreamedFileByteIdenticalToSerializeSnapshot) {
  Rng rng(31);
  const BipartiteGraph g = GenerateUniformRandom(500, 600, 4000, rng);
  gdp::storage::SnapshotContents contents;
  contents.graph = &g;
  const std::vector<std::byte> expected =
      gdp::storage::SerializeSnapshot(contents);
  const std::string path =
      ::testing::TempDir() + "/gdp_streaming_snapshot.gdps";
  gdp::storage::WriteSnapshotFile(path, contents);
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in);
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string on_disk = buf.str();
  ASSERT_EQ(on_disk.size(), expected.size());
  EXPECT_EQ(0, std::memcmp(on_disk.data(), expected.data(), expected.size()));
  // And the streamed file loads through the (chunk-verifying) loader.
  const auto snap = gdp::storage::Snapshot::Load(path);
  EXPECT_EQ(snap->graph().num_edges(), g.num_edges());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gdp::graph
