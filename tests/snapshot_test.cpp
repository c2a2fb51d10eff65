// GDPSNAP01 round-trip and hostile-input tests.
//
// The round-trip property: for random graphs at several sizes, a packed
// snapshot loads back bit-identical — every CSR column, every hierarchy
// label, every plan sum — and releases drawn from an adopted
// (hierarchy, plan) are bit-identical to releases from the fresh compile
// they replace, at 1, 2, and 8 threads.
//
// The hostile-input half treats every header/table/meta field as
// attacker-controlled: truncation, bad CRCs at all three framing layers,
// overlapping sections, out-of-file extents, unknown ids, a wrong
// byte-order sentinel, and a tampered max-sums column (which would
// mis-calibrate noise) must all throw SnapshotFormatError — never load.
// SnapshotMutationTest feeds Parse seeded mutants of the golden snapshot
// through tests/mutation_driver.hpp.
#include "storage/snapshot.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/compiled_disclosure.hpp"
#include "graph/generators.hpp"
#include "mutation_driver.hpp"
#include "serve/session_registry.hpp"
#include "snapshot_fixture.hpp"

namespace gdp::storage {
namespace {

using gdp::common::Rng;
using gdp::common::SnapshotFormatError;
using gdp::core::CompiledDisclosure;
using gdp::core::MultiLevelRelease;
using gdp::core::SessionSpec;
using gdp::graph::BipartiteGraph;
using gdp::graph::Side;

BipartiteGraph TestGraph(gdp::graph::NodeIndex left, gdp::graph::NodeIndex right,
                         gdp::graph::EdgeCount edges, std::uint64_t seed) {
  Rng rng(seed);
  gdp::graph::DblpLikeParams p;
  p.num_left = left;
  p.num_right = right;
  p.num_edges = edges;
  return GenerateDblpLike(p, rng);
}

SessionSpec SmallSpec(int threads = 1) {
  SessionSpec spec;
  spec.hierarchy.depth = 5;
  spec.hierarchy.arity = 4;
  spec.exec.num_threads = threads;
  return spec;
}

template <typename A, typename B>
void ExpectRangesEq(const A& a, const B& b, const char* what) {
  ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << what;
}

void ExpectGraphsBitIdentical(const BipartiteGraph& a, const BipartiteGraph& b) {
  ASSERT_EQ(a.num_left(), b.num_left());
  ASSERT_EQ(a.num_right(), b.num_right());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  ExpectRangesEq(a.offsets(Side::kLeft), b.offsets(Side::kLeft), "left offsets");
  ExpectRangesEq(a.adjacency(Side::kLeft), b.adjacency(Side::kLeft),
                 "left adjacency");
  ExpectRangesEq(a.offsets(Side::kRight), b.offsets(Side::kRight),
                 "right offsets");
  ExpectRangesEq(a.adjacency(Side::kRight), b.adjacency(Side::kRight),
                 "right adjacency");
}

void ExpectReleasesBitIdentical(const MultiLevelRelease& a,
                                const MultiLevelRelease& b) {
  ASSERT_EQ(a.num_levels(), b.num_levels());
  for (int i = 0; i < a.num_levels(); ++i) {
    const auto& la = a.level(i);
    const auto& lb = b.level(i);
    EXPECT_EQ(la.level, lb.level);
    EXPECT_EQ(la.sensitivity, lb.sensitivity);
    EXPECT_EQ(la.noise_stddev, lb.noise_stddev);
    EXPECT_EQ(la.noisy_total, lb.noisy_total);  // bit-exact, not approx
    ExpectRangesEq(la.noisy_group_counts, lb.noisy_group_counts,
                   "noisy group counts");
  }
}

// ---------- round trips ----------

TEST(SnapshotTest, GraphOnlyRoundTripBitIdenticalAtSeveralSizes) {
  struct Size {
    gdp::graph::NodeIndex left, right;
    gdp::graph::EdgeCount edges;
  };
  const Size sizes[] = {{17, 23, 64}, {400, 500, 2500}, {1200, 900, 9000}};
  std::uint64_t seed = 1;
  for (const Size& s : sizes) {
    const auto graph = TestGraph(s.left, s.right, s.edges, seed++);
    SnapshotContents contents;
    contents.graph = &graph;
    auto snap = Snapshot::Parse(Buffer::FromBytes(SerializeSnapshot(contents)));
    EXPECT_FALSE(snap->has_hierarchy());
    EXPECT_FALSE(snap->has_plan());
    ExpectGraphsBitIdentical(snap->graph(), graph);
  }
}

TEST(SnapshotTest, FileRoundTripLoadsViaMmap) {
  const auto graph = TestGraph(300, 400, 2000, 5);
  SnapshotContents contents;
  contents.graph = &graph;
  const std::string path =
      (std::filesystem::temp_directory_path() / "gdp_snapshot_test.gdps")
          .string();
  WriteSnapshotFile(path, contents);
  auto snap = Snapshot::Load(path);
  EXPECT_TRUE(snap->mapped());
  ExpectGraphsBitIdentical(snap->graph(), graph);
  // A graph copied out of the snapshot stays valid after the Snapshot dies:
  // its borrowed columns co-own the mapping.
  BipartiteGraph copy = snap->graph();
  snap.reset();
  ExpectGraphsBitIdentical(copy, graph);
  std::remove(path.c_str());
}

TEST(SnapshotTest, CompiledRoundTripPlanAndHierarchyBitIdentical) {
  const auto graph = TestGraph(400, 500, 2500, 3);
  const SessionSpec spec = SmallSpec();
  const std::uint64_t compile_seed = 7;
  Rng rng(compile_seed);
  const auto compiled = CompiledDisclosure::Compile(graph, spec, rng);

  SnapshotContents contents;
  contents.graph = &graph;
  contents.hierarchy = &compiled->hierarchy();
  contents.plan = &compiled->plan();
  contents.phase1_epsilon_spent = compiled->phase1_epsilon_spent();
  contents.fingerprint =
      gdp::serve::SessionRegistry::Fingerprint(spec, compile_seed);

  auto snap = Snapshot::Parse(Buffer::FromBytes(SerializeSnapshot(contents)));
  ASSERT_TRUE(snap->has_hierarchy());
  ASSERT_TRUE(snap->has_plan());
  EXPECT_EQ(snap->fingerprint(), contents.fingerprint);
  EXPECT_EQ(snap->phase1_epsilon_spent(), compiled->phase1_epsilon_spent());

  ExpectRangesEq(snap->plan().FlatSums(), compiled->plan().FlatSums(),
                 "plan sums");
  ExpectRangesEq(snap->plan().LevelOffsets(), compiled->plan().LevelOffsets(),
                 "plan level offsets");
  ExpectRangesEq(snap->plan().LevelSensitivities(),
                 compiled->plan().LevelSensitivities(), "plan sensitivities");

  const auto hierarchy = snap->BuildHierarchy();
  ASSERT_EQ(hierarchy.num_levels(), compiled->hierarchy().num_levels());
  for (int l = 0; l < hierarchy.num_levels(); ++l) {
    const auto& got = hierarchy.level(l);
    const auto& want = compiled->hierarchy().level(l);
    ASSERT_EQ(got.num_groups(), want.num_groups()) << "level " << l;
    ExpectRangesEq(got.labels(gdp::hier::Side::kLeft),
                   want.labels(gdp::hier::Side::kLeft), "left labels");
    ExpectRangesEq(got.labels(gdp::hier::Side::kRight),
                   want.labels(gdp::hier::Side::kRight), "right labels");
  }
}

// tests/data/golden_snapshot.hex: the GDPSNAP01 bytes of snapshot_fixture's
// compiled snapshot, 32 bytes a hex line.
std::vector<std::byte> GoldenSnapshotBytes() {
  std::ifstream in(std::string(GDP_TEST_DATA_DIR) + "/golden_snapshot.hex");
  EXPECT_TRUE(in.good()) << "missing tests/data/golden_snapshot.hex";
  std::string hex;
  for (std::string line; std::getline(in, line);) {
    hex += line;
  }
  EXPECT_EQ(hex.size() % 2, 0u);
  std::vector<std::byte> golden;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    golden.push_back(
        static_cast<std::byte>(std::stoul(hex.substr(i, 2), nullptr, 16)));
  }
  return golden;
}

// Serializing the fresh compile must reproduce the golden bytes, and so must
// re-serializing what Parse reads back from them (its graph,
// BuildHierarchy(), plan(), fingerprint and Phase-1 spend).
TEST(SnapshotTest, CompiledSnapshotMatchesTheGoldenBytes) {
  if constexpr (std::endian::native != std::endian::little) {
    GTEST_SKIP() << "GDPSNAP01 columns are host-order; the golden bytes are "
                    "a little-endian host's";
  }
  const std::vector<std::byte> golden = GoldenSnapshotBytes();

  const std::vector<std::byte> fresh = snapshot_fixture::GoldenBytes();
  ASSERT_EQ(fresh.size(), golden.size());
  EXPECT_TRUE(fresh == golden) << "serialized snapshot differs from the file";

  const auto snap = Snapshot::Parse(Buffer::FromBytes(golden));
  ASSERT_TRUE(snap->has_plan());
  const gdp::hier::GroupHierarchy hierarchy = snap->BuildHierarchy();
  SnapshotContents contents;
  contents.graph = &snap->graph();
  contents.hierarchy = &hierarchy;
  contents.plan = &snap->plan();
  contents.phase1_epsilon_spent = snap->phase1_epsilon_spent();
  contents.fingerprint = snap->fingerprint();
  EXPECT_TRUE(SerializeSnapshot(contents) == golden)
      << "re-serialized snapshot differs from the file";
}

TEST(SnapshotTest, AdoptedPlanReleasesBitIdenticalAcrossThreadCounts) {
  const auto graph = TestGraph(400, 500, 2500, 11);
  // The releases at 1 thread (no pool): every other thread count must match.
  std::vector<gdp::core::MultiLevelRelease> at_one_thread;
  for (const int threads : {1, 2, 8}) {
    const SessionSpec spec = SmallSpec(threads);
    const std::uint64_t compile_seed = 13;
    Rng compile_rng(compile_seed);
    const auto compiled = CompiledDisclosure::Compile(graph, spec, compile_rng);

    SnapshotContents contents;
    contents.graph = &graph;
    contents.hierarchy = &compiled->hierarchy();
    contents.plan = &compiled->plan();
    contents.phase1_epsilon_spent = compiled->phase1_epsilon_spent();
    contents.fingerprint =
        gdp::serve::SessionRegistry::Fingerprint(spec, compile_seed);
    auto snap = Snapshot::Parse(Buffer::FromBytes(SerializeSnapshot(contents)));

    const auto adopted = CompiledDisclosure::FromPrecompiled(
        snap->graph(), spec, snap->BuildHierarchy(),
        gdp::core::ReleasePlan(snap->plan()), snap->phase1_epsilon_spent());

    // Same budget sweep, same per-release Rng state: the adopted artifact
    // must be indistinguishable bit-for-bit from the fresh compile, and from
    // the artifact compiled at 1 thread.
    const double sweep[] = {0.3, 0.7, 1.5};
    for (std::size_t i = 0; i < std::size(sweep); ++i) {
      gdp::core::BudgetSpec budget = spec.budget;
      budget.epsilon_g = sweep[i];
      Rng rng_a(999);
      Rng rng_b(999);
      gdp::core::MultiLevelRelease release = adopted->Release(budget, rng_a);
      ExpectReleasesBitIdentical(release, compiled->Release(budget, rng_b));
      if (threads == 1) {
        at_one_thread.push_back(std::move(release));
      } else {
        ExpectReleasesBitIdentical(release, at_one_thread.at(i));
      }
    }
  }
}

// ---------- hostile inputs ----------

// Byte-level accessors for tampering with a serialized snapshot.  Layout
// (docs/FORMATS.md): header magic@0(10B) version@10(u16) sentinel@12(u32)
// section_count@16(u32) file_size@24(u64) table_crc@32(u32) header_crc@36
// (u32, over bytes [0,36)); table at 48, 32-byte entries: id@+0 offset@+8
// (u64) length@+16(u64) crc@+24(u32).
constexpr std::size_t kHeaderSize = 48;
constexpr std::size_t kEntrySize = 32;

std::uint32_t ReadU32(const std::vector<std::byte>& b, std::size_t pos) {
  std::uint32_t v = 0;
  std::memcpy(&v, b.data() + pos, sizeof(v));
  return v;
}

std::uint64_t ReadU64(const std::vector<std::byte>& b, std::size_t pos) {
  std::uint64_t v = 0;
  std::memcpy(&v, b.data() + pos, sizeof(v));
  return v;
}

void WriteU32(std::vector<std::byte>& b, std::size_t pos, std::uint32_t v) {
  std::memcpy(b.data() + pos, &v, sizeof(v));
}

void WriteU64(std::vector<std::byte>& b, std::size_t pos, std::uint64_t v) {
  std::memcpy(b.data() + pos, &v, sizeof(v));
}

std::string_view SvOf(const std::vector<std::byte>& b, std::size_t pos,
                      std::size_t len) {
  return {reinterpret_cast<const char*>(b.data()) + pos, len};
}

// Recompute the table CRC and header CRC after tampering with the section
// table (per-section CRCs are the caller's job).
void SealFramingCrcs(std::vector<std::byte>& b) {
  const std::uint32_t count = ReadU32(b, 16);
  WriteU32(b, 32, gdp::common::Crc32(SvOf(b, kHeaderSize, count * kEntrySize)));
  WriteU32(b, 36, gdp::common::Crc32(SvOf(b, 0, 36)));
}

// Position of the table entry whose section id is `id` (asserts it exists).
std::size_t FindEntry(const std::vector<std::byte>& b, std::uint32_t id) {
  const std::uint32_t count = ReadU32(b, 16);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::size_t pos = kHeaderSize + i * kEntrySize;
    if (ReadU32(b, pos) == id) {
      return pos;
    }
  }
  ADD_FAILURE() << "section id " << id << " not found";
  return 0;
}

std::vector<std::byte> PackedGraphBytes() {
  static const auto graph = TestGraph(60, 80, 400, 21);
  SnapshotContents contents;
  contents.graph = &graph;
  return SerializeSnapshot(contents);
}

void ExpectRejected(std::vector<std::byte> bytes) {
  EXPECT_THROW((void)Snapshot::Parse(Buffer::FromBytes(std::move(bytes))),
               SnapshotFormatError);
}

TEST(SnapshotHostileTest, WellFormedBaselineLoads) {
  // The tamper tests below only mean something if the untampered bytes load.
  auto snap = Snapshot::Parse(Buffer::FromBytes(PackedGraphBytes()));
  EXPECT_EQ(snap->graph().num_left(), 60u);
}

TEST(SnapshotHostileTest, TruncatedFileRejected) {
  auto bytes = PackedGraphBytes();
  auto torn = bytes;
  torn.resize(bytes.size() - 1);
  ExpectRejected(std::move(torn));
  auto stub = bytes;
  stub.resize(20);  // shorter than the header
  ExpectRejected(std::move(stub));
  bytes.resize(kHeaderSize);  // header only, every section past EOF
  ExpectRejected(std::move(bytes));
}

TEST(SnapshotHostileTest, BadMagicRejected) {
  auto bytes = PackedGraphBytes();
  bytes[0] = std::byte{'X'};
  ExpectRejected(std::move(bytes));
}

TEST(SnapshotHostileTest, WrongEndiannessSentinelRejected) {
  auto bytes = PackedGraphBytes();
  // A big-endian writer would store the sentinel byte-swapped.
  const std::uint32_t sentinel = ReadU32(bytes, 12);
  WriteU32(bytes, 12, __builtin_bswap32(sentinel));
  ExpectRejected(std::move(bytes));
}

TEST(SnapshotHostileTest, BadHeaderCrcRejected) {
  auto bytes = PackedGraphBytes();
  WriteU32(bytes, 36, ReadU32(bytes, 36) ^ 0xDEADBEEFu);
  ExpectRejected(std::move(bytes));
}

TEST(SnapshotHostileTest, BadTableCrcRejected) {
  auto bytes = PackedGraphBytes();
  // Corrupt a table byte without resealing: the table CRC must catch it.
  bytes[kHeaderSize + 8] ^= std::byte{0x01};
  ExpectRejected(std::move(bytes));
}

TEST(SnapshotHostileTest, BadSectionCrcRejected) {
  auto bytes = PackedGraphBytes();
  const std::size_t entry = FindEntry(bytes, 2);  // left offsets
  const auto offset = static_cast<std::size_t>(ReadU64(bytes, entry + 8));
  bytes[offset] ^= std::byte{0xFF};
  ExpectRejected(std::move(bytes));
}

TEST(SnapshotHostileTest, OverlappingSectionsRejected) {
  auto bytes = PackedGraphBytes();
  // Point section 3 at section 2's extent (same CRC so the per-section
  // check passes); the overlap scan must reject the aliased payload.
  const std::size_t src = FindEntry(bytes, 2);
  const std::size_t dst = FindEntry(bytes, 3);
  WriteU64(bytes, dst + 8, ReadU64(bytes, src + 8));
  WriteU64(bytes, dst + 16, ReadU64(bytes, src + 16));
  WriteU32(bytes, dst + 24, ReadU32(bytes, src + 24));
  SealFramingCrcs(bytes);
  ExpectRejected(std::move(bytes));
}

TEST(SnapshotHostileTest, SectionBeyondEofRejected) {
  auto bytes = PackedGraphBytes();
  const std::size_t entry = FindEntry(bytes, 2);
  WriteU64(bytes, entry + 8, 1u << 20);  // 64-aligned, far past EOF
  SealFramingCrcs(bytes);
  ExpectRejected(std::move(bytes));
}

TEST(SnapshotHostileTest, UnknownSectionIdRejected) {
  auto bytes = PackedGraphBytes();
  WriteU32(bytes, FindEntry(bytes, 1), 99);
  SealFramingCrcs(bytes);
  ExpectRejected(std::move(bytes));
}

TEST(SnapshotHostileTest, HugeDeclaredCountRejectedBeforeAllocation) {
  auto bytes = PackedGraphBytes();
  const std::size_t entry = FindEntry(bytes, 1);  // graph meta
  const auto offset = static_cast<std::size_t>(ReadU64(bytes, entry + 8));
  // Claim 2^32-1 left nodes: the offsets section is nowhere near big enough,
  // and the loader must reject from section LENGTHS, not allocate 32 GiB.
  WriteU32(bytes, offset, 0xFFFFFFFFu);
  WriteU32(bytes, entry + 24, gdp::common::Crc32(SvOf(bytes, offset, 16)));
  SealFramingCrcs(bytes);
  ExpectRejected(std::move(bytes));
}

TEST(SnapshotHostileTest, TamperedMaxSumsRejected) {
  const auto graph = TestGraph(100, 120, 700, 31);
  const SessionSpec spec = SmallSpec();
  Rng rng(5);
  const auto compiled = CompiledDisclosure::Compile(graph, spec, rng);
  SnapshotContents contents;
  contents.graph = &graph;
  contents.hierarchy = &compiled->hierarchy();
  contents.plan = &compiled->plan();
  contents.phase1_epsilon_spent = compiled->phase1_epsilon_spent();
  contents.fingerprint = gdp::serve::SessionRegistry::Fingerprint(spec, 5);
  auto bytes = SerializeSnapshot(contents);

  // Inflate the stored level-0 max sum: a loader trusting it would
  // calibrate MORE noise than the data needs — wrong, but "safe"-looking.
  // The loader recomputes the max from the sums column and must reject.
  const std::size_t entry = FindEntry(bytes, 14);  // plan max sums
  const auto offset = static_cast<std::size_t>(ReadU64(bytes, entry + 8));
  const auto length = static_cast<std::size_t>(ReadU64(bytes, entry + 16));
  WriteU64(bytes, offset, ReadU64(bytes, offset) + 1);
  WriteU32(bytes, entry + 24, gdp::common::Crc32(SvOf(bytes, offset, length)));
  SealFramingCrcs(bytes);
  ExpectRejected(std::move(bytes));
}

// ---------- seeded mutants ----------

// Recompute a mutant's CRC layers in the order they nest: every section
// whose table entry lies inside the file, then the table, then the header.
void ResealSnapshot(std::string& b) {
  if (b.size() < kHeaderSize) {
    return;
  }
  const std::string_view view(b);
  const std::uint32_t count = mutation_driver::U32At(b, 16);
  const std::size_t table_size = std::size_t{count} * kEntrySize;
  if (count <= 64 && kHeaderSize + table_size <= b.size()) {
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::size_t entry = kHeaderSize + i * kEntrySize;
      const std::uint64_t offset = mutation_driver::U64At(b, entry + 8);
      const std::uint64_t length = mutation_driver::U64At(b, entry + 16);
      if (offset <= b.size() && length <= b.size() - offset) {
        mutation_driver::SetU32At(
            b, entry + 24,
            gdp::common::Crc32(view.substr(static_cast<std::size_t>(offset),
                                           static_cast<std::size_t>(length))));
      }
    }
    mutation_driver::SetU32At(
        b, 32, gdp::common::Crc32(view.substr(kHeaderSize, table_size)));
  }
  mutation_driver::SetU32At(b, 36, gdp::common::Crc32(view.substr(0, 36)));
}

// Parse one mutant, then materialise its hierarchy and plan where present.
// Passing means SnapshotFormatError or a snapshot that loads; anything else
// is recorded as a failure naming the mutant.
bool SurvivesSnapshotMutant(const std::string& bytes, const std::string& what) {
  try {
    const auto* data = reinterpret_cast<const std::byte*>(bytes.data());
    const auto snap = Snapshot::Parse(
        Buffer::FromBytes(std::vector<std::byte>(data, data + bytes.size())));
    if (snap->has_hierarchy()) {
      (void)snap->BuildHierarchy();
    }
    if (snap->has_plan()) {
      (void)snap->plan();
    }
  } catch (const SnapshotFormatError&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": threw a non-format exception: " << e.what();
    return false;
  }
  return true;
}

// Seeded mutants of the golden snapshot: the header's section count and
// every count in the graph, hierarchy and plan meta sections set to 0, 1,
// its value, one past it and 0xFFFFFFFF, then bit flips, splices,
// truncations and count rewrites.  Seven in eight are re-sealed at all three
// CRC layers, so they reach the structural checks.  Buffer::FromBytes copies
// onto the heap, so over-reads are the sanitizer job's to catch.
TEST(SnapshotMutationTest, ParseSurvivesSeededMutantsOfTheGoldenSnapshot) {
  if constexpr (std::endian::native != std::endian::little) {
    GTEST_SKIP() << "the golden bytes are a little-endian host's";
  }
  const std::vector<std::byte> golden = GoldenSnapshotBytes();
  const std::string image(reinterpret_cast<const char*>(golden.data()),
                          golden.size());
  mutation_driver::Corpus corpus;
  corpus.entries.push_back(image);
  std::vector<mutation_driver::LengthField>& fields =
      corpus.fields.emplace_back();
  const auto count_at = [&](std::size_t at) {
    fields.push_back({at, mutation_driver::U32At(image, at)});
  };
  count_at(16);  // section count
  for (const std::uint32_t id : {1u, 6u, 11u}) {  // graph, hierarchy, plan meta
    const auto at = static_cast<std::size_t>(
        mutation_driver::U64At(image, FindEntry(golden, id) + 8));
    count_at(at);
    if (id == 1) {
      count_at(at + 4);  // num_right after num_left
    }
    if (id == 6) {  // num_levels, then one group count per level
      for (std::uint32_t l = 0; l < mutation_driver::U32At(image, at); ++l) {
        count_at(at + 4 + 4 * l);
      }
    }
  }
  ASSERT_EQ(fields.size(), 10u);

  constexpr std::size_t kRandomMutants = 20'000;
  const std::size_t mutants = mutation_driver::Run(
      corpus, 0x5a9, kRandomMutants, [](const mutation_driver::Mutant& m) {
        std::string bytes = m.bytes;
        if (!m.stale_crc) {
          ResealSnapshot(bytes);
        }
        return SurvivesSnapshotMutant(bytes, m.what);
      });
  EXPECT_GE(mutants, 20'000u);
}

}  // namespace
}  // namespace gdp::storage
