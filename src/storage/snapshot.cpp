#include "storage/snapshot.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <string_view>
#include <utility>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/le_codec.hpp"

namespace gdp::storage {

using gdp::common::Crc32;
using gdp::common::IoError;
using gdp::common::LeWriter;
using gdp::common::SnapshotFormatError;
using Reader = gdp::common::LeReader<SnapshotFormatError>;
using gdp::graph::EdgeCount;
using gdp::graph::NodeIndex;

namespace {

constexpr char kMagic[10] = {'G', 'D', 'P', 'S', 'N', 'A', 'P', '0', '1', '\0'};
constexpr std::uint16_t kHeaderVersion = 1;
// The one host-order field of the header, which is otherwise little-endian:
// the columns are host-order, so a reader on the other endianness sees the
// sentinel's bytes reversed and rejects the file instead of mis-typing
// every column.
constexpr std::uint32_t kByteOrderSentinel = 0x0A0B0C0Du;
constexpr auto kSentinelBytes =
    std::bit_cast<std::array<char, sizeof(kByteOrderSentinel)>>(
        kByteOrderSentinel);
constexpr std::string_view kSentinel(kSentinelBytes.data(),
                                     kSentinelBytes.size());
constexpr std::size_t kHeaderSize = 48;
constexpr std::size_t kSectionEntrySize = 32;
constexpr std::size_t kPayloadAlignment = 64;
// A snapshot has at most 10 sections today; anything bigger is hostile or
// version skew, and bounding it keeps the table read trivially safe.
constexpr std::uint32_t kMaxSections = 64;
// Every level of the deepest hierarchy Phase 1 builds.

enum SectionId : std::uint32_t {
  kGraphMeta = 1,
  kLeftOffsets = 2,
  kLeftAdjacency = 3,
  kRightOffsets = 4,
  kRightAdjacency = 5,
  kHierMeta = 6,
  kHierLabels = 7,
  kGroupSides = 8,
  kGroupSizes = 9,
  kGroupParents = 10,
  kPlanMeta = 11,
  kPlanLevelOffsets = 12,
  kPlanSums = 13,
  kPlanMaxSums = 14,
  kFingerprint = 15,
};

[[nodiscard]] bool KnownSectionId(std::uint32_t id) {
  return id >= kGraphMeta && id <= kFingerprint;
}

[[nodiscard]] std::string_view AsStringView(std::span<const std::byte> bytes) {
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};  // NOLINT
}

template <typename T>
[[nodiscard]] std::span<const std::byte> AsBytes(std::span<const T> values) {
  return std::as_bytes(values);
}

[[nodiscard]] std::span<const std::byte> AsBytes(std::string_view s) {
  return std::as_bytes(std::span<const char>(s.data(), s.size()));
}

// One section the writer will emit: id + the byte chunks that concatenate
// into its payload (chunks avoid materialising multi-hundred-MB copies of
// columns that already sit contiguous in memory).
struct PendingSection {
  std::uint32_t id{0};
  std::vector<std::span<const std::byte>> chunks;

  [[nodiscard]] std::uint64_t length() const {
    std::uint64_t total = 0;
    for (const auto& c : chunks) {
      total += c.size();
    }
    return total;
  }
  [[nodiscard]] std::uint32_t crc() const {
    std::uint32_t crc = 0;
    for (const auto& c : chunks) {
      crc = Crc32(AsStringView(c), crc);
    }
    return crc;
  }
};

[[nodiscard]] std::size_t AlignUp(std::size_t v, std::size_t alignment) {
  return (v + alignment - 1) / alignment * alignment;
}

void ValidateContents(const SnapshotContents& contents) {
  if (contents.graph == nullptr) {
    throw std::invalid_argument("SerializeSnapshot: contents.graph is null");
  }
  const auto& graph = *contents.graph;
  if (contents.hierarchy != nullptr) {
    const auto& h = *contents.hierarchy;
    if (h.level(0).num_left_nodes() != graph.num_left() ||
        h.level(0).num_right_nodes() != graph.num_right()) {
      throw std::invalid_argument(
          "SerializeSnapshot: hierarchy node counts do not match the graph");
    }
    if (h.num_levels() > static_cast<int>(gdp::hier::kMaxHierarchyLevels)) {
      throw std::invalid_argument(
          "SerializeSnapshot: hierarchy exceeds the format's level bound");
    }
  }
  if (contents.plan != nullptr) {
    if (contents.hierarchy == nullptr) {
      throw std::invalid_argument(
          "SerializeSnapshot: an embedded plan requires its hierarchy");
    }
    if (contents.fingerprint.empty()) {
      throw std::invalid_argument(
          "SerializeSnapshot: an embedded plan requires the compile "
          "fingerprint that makes it adoptable");
    }
    if (!(contents.phase1_epsilon_spent >= 0.0) ||
        !std::isfinite(contents.phase1_epsilon_spent)) {
      throw std::invalid_argument(
          "SerializeSnapshot: phase1_epsilon_spent must be finite and >= 0");
    }
    const auto& plan = *contents.plan;
    const auto& h = *contents.hierarchy;
    if (plan.num_levels() != h.num_levels()) {
      throw std::invalid_argument(
          "SerializeSnapshot: plan and hierarchy level counts disagree");
    }
    if (plan.num_edges() != graph.num_edges()) {
      throw std::invalid_argument(
          "SerializeSnapshot: plan edge count does not match the graph");
    }
    for (int l = 0; l < h.num_levels(); ++l) {
      if (plan.GroupDegreeSums(l).size() != h.level(l).num_groups()) {
        throw std::invalid_argument(
            "SerializeSnapshot: plan level " + std::to_string(l) +
            " group count does not match the hierarchy");
      }
    }
  } else if (!contents.fingerprint.empty()) {
    throw std::invalid_argument(
        "SerializeSnapshot: a fingerprint without a plan is meaningless");
  }
}

// Everything the two writers need: the section list (chunks point into the
// caller's columns and into the backing stores below, so the image is built
// in place and never moved), the laid-out offsets, and the finished
// header + table bytes.
struct SnapshotImage {
  SnapshotImage() = default;
  SnapshotImage(const SnapshotImage&) = delete;
  SnapshotImage& operator=(const SnapshotImage&) = delete;

  // Backing stores for the small metadata payloads referenced as chunks.
  LeWriter graph_meta;
  LeWriter hier_meta;
  LeWriter plan_meta;
  std::vector<std::vector<std::uint8_t>> level_sides;
  std::vector<std::vector<std::uint32_t>> level_sizes;
  std::vector<std::vector<std::uint32_t>> level_parents;

  std::vector<PendingSection> sections;
  std::vector<std::uint64_t> offsets;  // payload offset per section
  std::size_t file_size{0};
  LeWriter header;
  LeWriter table;
};

// Validate + lay out a snapshot into `image` without materialising the
// payload bytes.  Both writers share this; only the final "move the bytes"
// step differs (memcpy into one buffer vs streaming write(2) calls).
void BuildSnapshotImage(const SnapshotContents& contents,
                        SnapshotImage& image) {
  ValidateContents(contents);
  const auto& graph = *contents.graph;
  using gdp::graph::Side;

  image.graph_meta.U32(graph.num_left());
  image.graph_meta.U32(graph.num_right());
  image.graph_meta.U64(graph.num_edges());

  std::vector<PendingSection>& sections = image.sections;
  sections.push_back({kGraphMeta, {AsBytes(image.graph_meta.view())}});
  sections.push_back({kLeftOffsets, {AsBytes(graph.offsets(Side::kLeft))}});
  sections.push_back({kLeftAdjacency, {AsBytes(graph.adjacency(Side::kLeft))}});
  sections.push_back({kRightOffsets, {AsBytes(graph.offsets(Side::kRight))}});
  sections.push_back(
      {kRightAdjacency, {AsBytes(graph.adjacency(Side::kRight))}});

  if (contents.hierarchy != nullptr) {
    const auto& h = *contents.hierarchy;
    const int num_levels = h.num_levels();
    image.hier_meta.U32(static_cast<std::uint32_t>(num_levels));
    for (int l = 0; l < num_levels; ++l) {
      image.hier_meta.U32(h.level(l).num_groups());
    }
    PendingSection labels{kHierLabels, {}};
    PendingSection sides{kGroupSides, {}};
    PendingSection sizes{kGroupSizes, {}};
    PendingSection parents{kGroupParents, {}};
    image.level_sides.resize(static_cast<std::size_t>(num_levels));
    image.level_sizes.resize(static_cast<std::size_t>(num_levels));
    image.level_parents.resize(static_cast<std::size_t>(num_levels));
    for (int l = 0; l < num_levels; ++l) {
      const gdp::hier::Partition& p = h.level(l);
      labels.chunks.push_back(AsBytes(p.labels(Side::kLeft)));
      labels.chunks.push_back(AsBytes(p.labels(Side::kRight)));
      // GroupInfo is AoS in memory; the format stores it as three columns.
      auto& sd = image.level_sides[static_cast<std::size_t>(l)];
      auto& sz = image.level_sizes[static_cast<std::size_t>(l)];
      auto& pr = image.level_parents[static_cast<std::size_t>(l)];
      sd.reserve(p.num_groups());
      sz.reserve(p.num_groups());
      pr.reserve(p.num_groups());
      for (const gdp::hier::GroupInfo& g : p.groups()) {
        sd.push_back(static_cast<std::uint8_t>(g.side));
        sz.push_back(g.size);
        pr.push_back(g.parent);
      }
      sides.chunks.push_back(AsBytes(std::span<const std::uint8_t>(sd)));
      sizes.chunks.push_back(AsBytes(std::span<const std::uint32_t>(sz)));
      parents.chunks.push_back(AsBytes(std::span<const std::uint32_t>(pr)));
    }
    sections.push_back({kHierMeta, {AsBytes(image.hier_meta.view())}});
    sections.push_back(std::move(labels));
    sections.push_back(std::move(sides));
    sections.push_back(std::move(sizes));
    sections.push_back(std::move(parents));
  }

  if (contents.plan != nullptr) {
    const auto& plan = *contents.plan;
    image.plan_meta.U32(static_cast<std::uint32_t>(plan.num_levels()));
    image.plan_meta.U32(0);  // reserved
    image.plan_meta.U64(plan.num_edges());
    image.plan_meta.F64(contents.phase1_epsilon_spent);
    sections.push_back({kPlanMeta, {AsBytes(image.plan_meta.view())}});
    sections.push_back({kPlanLevelOffsets, {AsBytes(plan.LevelOffsets())}});
    sections.push_back({kPlanSums, {AsBytes(plan.FlatSums())}});
    sections.push_back({kPlanMaxSums, {AsBytes(plan.LevelSensitivities())}});
    sections.push_back({kFingerprint, {AsBytes(contents.fingerprint)}});
  }

  // Layout: header, table, then 64-byte-aligned payloads in table order.
  const std::size_t table_size = sections.size() * kSectionEntrySize;
  image.offsets.resize(sections.size());
  std::size_t cursor = kHeaderSize + table_size;
  for (std::size_t i = 0; i < sections.size(); ++i) {
    cursor = AlignUp(cursor, kPayloadAlignment);
    image.offsets[i] = cursor;
    cursor += static_cast<std::size_t>(sections[i].length());
  }
  image.file_size = cursor;

  // Section table.
  LeWriter& table = image.table;
  table.Reserve(table_size);
  for (std::size_t i = 0; i < sections.size(); ++i) {
    table.U32(sections[i].id);
    table.U32(0);  // reserved
    table.U64(image.offsets[i]);
    table.U64(sections[i].length());
    table.U32(sections[i].crc());
    table.U32(0);  // reserved
  }

  // Header.
  LeWriter& header = image.header;
  header.Reserve(kHeaderSize);
  header.Bytes({kMagic, sizeof(kMagic)});
  header.U16(kHeaderVersion);
  header.Bytes(kSentinel);
  header.U32(static_cast<std::uint32_t>(sections.size()));
  header.U32(0);  // reserved
  header.U64(image.file_size);
  header.U32(Crc32(table.view()));
  header.U32(Crc32(header.view()));
  header.U64(0);  // padding to kHeaderSize
}

}  // namespace

std::vector<std::byte> SerializeSnapshot(const SnapshotContents& contents) {
  SnapshotImage image;
  BuildSnapshotImage(contents, image);
  std::vector<std::byte> out(image.file_size, std::byte{0});
  const std::string_view header = image.header.view();
  const std::string_view table = image.table.view();
  std::memcpy(out.data(), header.data(), header.size());
  std::memcpy(out.data() + kHeaderSize, table.data(), table.size());
  for (std::size_t i = 0; i < image.sections.size(); ++i) {
    std::size_t pos = static_cast<std::size_t>(image.offsets[i]);
    for (const auto& chunk : image.sections[i].chunks) {
      if (!chunk.empty()) {
        std::memcpy(out.data() + pos, chunk.data(), chunk.size());
      }
      pos += chunk.size();
    }
  }
  return out;
}

void WriteSnapshotFile(const std::string& path,
                       const SnapshotContents& contents) {
  SnapshotImage image;
  BuildSnapshotImage(contents, image);
  // Write-to-temp + fsync + rename: a crashed pack leaves either the old
  // snapshot or none, never a torn one (the CRCs would catch a torn file,
  // but an operator script should not have to handle that case at all).
  //
  // Sections stream straight from the source columns to write(2) — the
  // whole-file staging buffer SerializeSnapshot builds (which doubles peak
  // RSS at 100M-edge scale) never exists on this path.
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) {
    throw IoError("WriteSnapshotFile: cannot create '" + tmp +
                  "': " + std::strerror(errno));
  }
  const auto fail = [&](const std::string& stage,
                        const std::string& err) -> IoError {
    ::unlink(tmp.c_str());
    return IoError("WriteSnapshotFile: " + stage + " '" + tmp +
                   "' failed: " + err);
  };
  const auto write_all = [&](std::span<const std::byte> bytes) {
    std::size_t written = 0;
    while (written < bytes.size()) {
      const ssize_t n =
          ::write(fd, bytes.data() + written, bytes.size() - written);
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        const std::string err = std::strerror(errno);
        ::close(fd);
        throw fail("write to", err);
      }
      written += static_cast<std::size_t>(n);
    }
  };
  static constexpr std::byte kPadding[kPayloadAlignment] = {};
  write_all(AsBytes(image.header.view()));
  write_all(AsBytes(image.table.view()));
  std::size_t cursor = kHeaderSize + image.table.view().size();
  for (std::size_t i = 0; i < image.sections.size(); ++i) {
    const auto offset = static_cast<std::size_t>(image.offsets[i]);
    write_all({kPadding, offset - cursor});
    cursor = offset;
    for (const auto& chunk : image.sections[i].chunks) {
      write_all(chunk);
      cursor += chunk.size();
    }
  }
  if (::fsync(fd) != 0 || ::close(fd) != 0) {
    throw fail("fsync/close of", std::strerror(errno));
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    throw fail("rename to", std::strerror(errno));
  }
}

// --------------------------------------------------------------------------
// Loader
// --------------------------------------------------------------------------

namespace {

struct SectionRef {
  std::uint64_t offset{0};
  std::uint64_t length{0};
};

[[noreturn]] void Bad(const std::string& origin, const std::string& what) {
  throw SnapshotFormatError("Snapshot '" + origin + "': " + what);
}

// Payload verification is the load path's only full read of the big
// sections, and on a cold mmap every 4 KiB of it is a page fault.  Checksum
// in bounded chunks and, when the bytes are file-backed, hint the kernel to
// fault the NEXT chunk in while the CRC of the current one is computing —
// the sequential read overlaps the checksum instead of serialising behind
// it.  Chunking changes nothing about the result: Crc32 chains through its
// seed, so the chunked CRC equals the one-shot CRC for every chunk size
// (pinned by streaming_io_test).
constexpr std::size_t kVerifyChunkBytes = std::size_t{4} << 20;  // 4 MiB

[[nodiscard]] std::uint32_t SectionCrcStreaming(std::span<const std::byte> data,
                                                bool file_backed) {
  std::uint32_t crc = 0;
  for (std::size_t pos = 0; pos < data.size(); pos += kVerifyChunkBytes) {
    const std::size_t len = std::min(kVerifyChunkBytes, data.size() - pos);
    const std::size_t next_end =
        std::min(pos + len + kVerifyChunkBytes, data.size());
    if (file_backed && next_end > pos + len) {
      // Page-align the hint range downwards; madvise is advisory, so a
      // failure (e.g. an unaligned tail page) is deliberately ignored.
      const auto addr = reinterpret_cast<std::uintptr_t>(data.data() + pos +
                                                         len);  // NOLINT
      const long page = ::sysconf(_SC_PAGESIZE);
      const std::uintptr_t aligned =
          page > 0 ? addr & ~(static_cast<std::uintptr_t>(page) - 1) : addr;
      ::madvise(reinterpret_cast<void*>(aligned),  // NOLINT
                (next_end - (pos + len)) + (addr - aligned), MADV_WILLNEED);
    }
    crc = Crc32(AsStringView(data.subspan(pos, len)), crc);
  }
  return crc;
}

}  // namespace

std::shared_ptr<const Snapshot> Snapshot::Load(const std::string& path) {
  return Parse(Buffer::MapFile(path), path);
}

std::shared_ptr<const Snapshot> Snapshot::Parse(
    std::shared_ptr<const Buffer> buffer, std::string origin) {
  if (buffer == nullptr) {
    throw SnapshotFormatError("Snapshot::Parse: null buffer");
  }
  const std::span<const std::byte> bytes = buffer->bytes();
  if (bytes.size() < kHeaderSize) {
    Bad(origin, "file of " + std::to_string(bytes.size()) +
                    " bytes is smaller than the header");
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    Bad(origin, "bad magic (not a GDPSNAP01 snapshot, or an unsupported "
                "major version)");
  }
  const std::string where = "Snapshot '" + origin + "'";
  Reader header(AsStringView(bytes.first(kHeaderSize)), where);
  (void)header.Bytes(sizeof(kMagic), "magic");
  const std::uint16_t version = header.U16();
  const std::string_view byte_order =
      header.Bytes(kSentinel.size(), "byte-order sentinel");
  const std::uint32_t section_count = header.U32();
  (void)header.U32();  // reserved
  const std::uint64_t declared_size = header.U64();
  const std::uint32_t table_crc = header.U32();
  const std::size_t header_crc_pos = header.pos();
  const std::uint32_t header_crc = header.U32();
  if (byte_order != kSentinel) {
    Bad(origin,
        "endianness sentinel mismatch — snapshot was written on a host with "
        "different byte order");
  }
  if (version != kHeaderVersion) {
    Bad(origin, "unsupported header version " + std::to_string(version));
  }
  if (Crc32(AsStringView(bytes.first(header_crc_pos))) != header_crc) {
    Bad(origin, "header CRC mismatch");
  }
  if (declared_size != bytes.size()) {
    Bad(origin, "declared file size " + std::to_string(declared_size) +
                    " != actual " + std::to_string(bytes.size()) +
                    " (truncated or padded file)");
  }
  if (section_count == 0 || section_count > kMaxSections) {
    Bad(origin, "implausible section count " + std::to_string(section_count));
  }
  const std::size_t table_size =
      static_cast<std::size_t>(section_count) * kSectionEntrySize;
  if (kHeaderSize + table_size > bytes.size()) {
    Bad(origin, "section table extends past end of file");
  }
  const std::span<const std::byte> table =
      bytes.subspan(kHeaderSize, table_size);
  if (Crc32(AsStringView(table)) != table_crc) {
    Bad(origin, "section table CRC mismatch");
  }

  // Decode + structurally validate the table before touching any payload.
  std::map<std::uint32_t, SectionRef> refs;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> extents;  // offset,end
  Reader entries(AsStringView(table), where);
  for (std::uint32_t i = 0; i < section_count; ++i) {
    const std::uint32_t id = entries.U32();
    (void)entries.U32();  // reserved
    const std::uint64_t offset = entries.U64();
    const std::uint64_t length = entries.U64();
    const std::uint32_t crc = entries.U32();
    (void)entries.U32();  // reserved
    if (!KnownSectionId(id)) {
      Bad(origin, "unknown section id " + std::to_string(id));
    }
    if (refs.contains(id)) {
      Bad(origin, "duplicate section id " + std::to_string(id));
    }
    if (offset % kPayloadAlignment != 0) {
      Bad(origin, "section " + std::to_string(id) + " offset " +
                      std::to_string(offset) + " is not 64-byte aligned");
    }
    if (offset < kHeaderSize + table_size || offset > bytes.size() ||
        length > bytes.size() - offset) {
      Bad(origin, "section " + std::to_string(id) +
                      " extends outside the file (offset " +
                      std::to_string(offset) + ", length " +
                      std::to_string(length) + ")");
    }
    if (SectionCrcStreaming(bytes.subspan(static_cast<std::size_t>(offset),
                                          static_cast<std::size_t>(length)),
                            buffer->mapped()) != crc) {
      Bad(origin, "section " + std::to_string(id) + " payload CRC mismatch");
    }
    refs[id] = SectionRef{offset, length};
    extents.emplace_back(offset, offset + length);
  }
  std::sort(extents.begin(), extents.end());
  for (std::size_t i = 1; i < extents.size(); ++i) {
    if (extents[i].first < extents[i - 1].second) {
      Bad(origin, "section payloads overlap");
    }
  }

  const auto require = [&](std::uint32_t id, const char* name) -> SectionRef {
    const auto it = refs.find(id);
    if (it == refs.end()) {
      Bad(origin, std::string("missing required section: ") + name);
    }
    return it->second;
  };
  const auto payload = [&](const SectionRef& ref) {
    return bytes.subspan(static_cast<std::size_t>(ref.offset),
                         static_cast<std::size_t>(ref.length));
  };
  // Borrow `count` elements of T at `ref.offset + byte_shift`; the section
  // bounds were validated above, this only re-checks the carve fits.
  const auto column = [&]<typename T>(const SectionRef& ref,
                                      std::uint64_t byte_shift,
                                      std::uint64_t count,
                                      const char* what) -> ColumnView<T> {
    if (byte_shift > ref.length ||
        count > (ref.length - byte_shift) / sizeof(T)) {
      Bad(origin, std::string(what) + " does not fit its section");
    }
    return ViewColumn<T>(buffer,
                         static_cast<std::size_t>(ref.offset + byte_shift),
                         static_cast<std::size_t>(count));
  };

  std::shared_ptr<Snapshot> snap(new Snapshot());
  snap->buffer_ = buffer;

  // --- graph ---------------------------------------------------------------
  {
    const SectionRef meta_ref = require(kGraphMeta, "graph meta");
    Reader meta(AsStringView(payload(meta_ref)), where);
    const std::uint32_t num_left = meta.U32();
    const std::uint32_t num_right = meta.U32();
    const std::uint64_t num_edges = meta.U64();
    if (num_edges > std::numeric_limits<std::size_t>::max() / sizeof(NodeIndex)) {
      Bad(origin, "edge count overflows addressable memory");
    }
    auto left_off = column.template operator()<EdgeCount>(
        require(kLeftOffsets, "left offsets"), 0,
        static_cast<std::uint64_t>(num_left) + 1, "left offsets");
    auto left_adj = column.template operator()<NodeIndex>(
        require(kLeftAdjacency, "left adjacency"), 0, num_edges,
        "left adjacency");
    auto right_off = column.template operator()<EdgeCount>(
        require(kRightOffsets, "right offsets"), 0,
        static_cast<std::uint64_t>(num_right) + 1, "right offsets");
    auto right_adj = column.template operator()<NodeIndex>(
        require(kRightAdjacency, "right adjacency"), 0, num_edges,
        "right adjacency");
    // Lengths must match exactly — trailing slack would be unverifiable
    // dead bytes inside a CRC'd section.
    if (require(kLeftOffsets, "left offsets").length !=
            (static_cast<std::uint64_t>(num_left) + 1) * sizeof(EdgeCount) ||
        require(kRightOffsets, "right offsets").length !=
            (static_cast<std::uint64_t>(num_right) + 1) * sizeof(EdgeCount) ||
        require(kLeftAdjacency, "left adjacency").length !=
            num_edges * sizeof(NodeIndex) ||
        require(kRightAdjacency, "right adjacency").length !=
            num_edges * sizeof(NodeIndex)) {
      Bad(origin, "graph section lengths disagree with the declared shape");
    }
    snap->graph_ = gdp::graph::BipartiteGraph::FromSnapshot(
        num_left, num_right, num_edges, std::move(left_off),
        std::move(left_adj), std::move(right_off), std::move(right_adj));
  }

  // --- hierarchy (optional, all-or-none) -----------------------------------
  const bool any_hier = refs.contains(kHierMeta) || refs.contains(kHierLabels) ||
                        refs.contains(kGroupSides) ||
                        refs.contains(kGroupSizes) ||
                        refs.contains(kGroupParents);
  if (any_hier) {
    const SectionRef meta_ref = require(kHierMeta, "hierarchy meta");
    Reader meta(AsStringView(payload(meta_ref)), where);
    const std::uint32_t num_levels = meta.U32();
    if (num_levels < 2 || num_levels > gdp::hier::kMaxHierarchyLevels) {
      Bad(origin, "implausible hierarchy level count " +
                      std::to_string(num_levels));
    }
    std::vector<std::uint32_t> group_counts(num_levels);
    std::uint64_t total_groups = 0;
    for (std::uint32_t l = 0; l < num_levels; ++l) {
      group_counts[l] = meta.U32();
      if (group_counts[l] == 0) {
        Bad(origin, "hierarchy level " + std::to_string(l) + " has no groups");
      }
      total_groups += group_counts[l];
    }
    const std::uint64_t num_left = snap->graph_->num_left();
    const std::uint64_t num_right = snap->graph_->num_right();
    const std::uint64_t nodes = num_left + num_right;
    const SectionRef labels_ref = require(kHierLabels, "hierarchy labels");
    const SectionRef sides_ref = require(kGroupSides, "group sides");
    const SectionRef sizes_ref = require(kGroupSizes, "group sizes");
    const SectionRef parents_ref = require(kGroupParents, "group parents");
    if (labels_ref.length != num_levels * nodes * sizeof(std::uint32_t) ||
        sides_ref.length != total_groups ||
        sizes_ref.length != total_groups * sizeof(std::uint32_t) ||
        parents_ref.length != total_groups * sizeof(std::uint32_t)) {
      Bad(origin,
          "hierarchy section lengths disagree with the declared shape");
    }
    std::uint64_t label_cursor = 0;
    std::uint64_t group_cursor = 0;
    for (std::uint32_t l = 0; l < num_levels; ++l) {
      HierLevel level;
      level.left_labels = column.template operator()<std::uint32_t>(
          labels_ref, label_cursor * sizeof(std::uint32_t), num_left,
          "left labels");
      level.right_labels = column.template operator()<std::uint32_t>(
          labels_ref, (label_cursor + num_left) * sizeof(std::uint32_t),
          num_right, "right labels");
      label_cursor += nodes;
      level.sides = column.template operator()<std::uint8_t>(
          sides_ref, group_cursor, group_counts[l], "group sides");
      level.sizes = column.template operator()<std::uint32_t>(
          sizes_ref, group_cursor * sizeof(std::uint32_t), group_counts[l],
          "group sizes");
      level.parents = column.template operator()<std::uint32_t>(
          parents_ref, group_cursor * sizeof(std::uint32_t), group_counts[l],
          "group parents");
      group_cursor += group_counts[l];
      snap->hier_levels_.push_back(std::move(level));
    }
  }

  // --- plan (optional, all-or-none, requires the hierarchy) ----------------
  const bool any_plan = refs.contains(kPlanMeta) ||
                        refs.contains(kPlanLevelOffsets) ||
                        refs.contains(kPlanSums) ||
                        refs.contains(kPlanMaxSums) ||
                        refs.contains(kFingerprint);
  if (any_plan) {
    if (!any_hier) {
      Bad(origin, "an embedded plan requires its hierarchy sections");
    }
    const SectionRef meta_ref = require(kPlanMeta, "plan meta");
    Reader meta(AsStringView(payload(meta_ref)), where);
    const std::uint32_t num_levels = meta.U32();
    (void)meta.U32();  // reserved
    const std::uint64_t num_edges = meta.U64();
    const double phase1_spent = meta.F64();
    if (num_levels != snap->hier_levels_.size()) {
      Bad(origin, "plan level count disagrees with the hierarchy");
    }
    if (num_edges != snap->graph_->num_edges()) {
      Bad(origin, "plan edge count disagrees with the graph");
    }
    if (!(phase1_spent >= 0.0) || !std::isfinite(phase1_spent)) {
      Bad(origin, "plan phase-1 spend is not a finite non-negative value");
    }
    auto level_offsets = column.template operator()<std::uint64_t>(
        require(kPlanLevelOffsets, "plan level offsets"), 0,
        static_cast<std::uint64_t>(num_levels) + 1, "plan level offsets");
    const SectionRef sums_ref = require(kPlanSums, "plan sums");
    auto sums = column.template operator()<EdgeCount>(
        sums_ref, 0, sums_ref.length / sizeof(EdgeCount), "plan sums");
    auto max_sums = column.template operator()<EdgeCount>(
        require(kPlanMaxSums, "plan max sums"), 0, num_levels,
        "plan max sums");
    // Per-level widths must match the hierarchy's group counts, or the
    // engine would index groups that do not exist.
    for (std::uint32_t l = 0; l < num_levels; ++l) {
      if (level_offsets[l + 1] < level_offsets[l] ||
          level_offsets[l + 1] - level_offsets[l] !=
              snap->hier_levels_[l].sizes.size()) {
        Bad(origin, "plan level " + std::to_string(l) +
                        " width disagrees with the hierarchy");
      }
    }
    snap->plan_ = gdp::core::ReleasePlan::FromColumns(
        num_edges, std::move(level_offsets), std::move(sums),
        std::move(max_sums));
    snap->phase1_epsilon_spent_ = phase1_spent;
    const SectionRef fp_ref = require(kFingerprint, "fingerprint");
    if (fp_ref.length == 0) {
      Bad(origin, "empty fingerprint section");
    }
    snap->fingerprint_ = std::string(AsStringView(payload(fp_ref)));
  }

  return snap;
}

gdp::hier::GroupHierarchy Snapshot::BuildHierarchy() const {
  if (!has_hierarchy()) {
    throw gdp::common::StateError(
        "Snapshot::BuildHierarchy: snapshot carries no hierarchy sections");
  }
  std::vector<gdp::hier::Partition> levels;
  levels.reserve(hier_levels_.size());
  for (std::size_t l = 0; l < hier_levels_.size(); ++l) {
    const HierLevel& packed = hier_levels_[l];
    std::vector<gdp::hier::GroupInfo> groups;
    groups.reserve(packed.sides.size());
    for (std::size_t g = 0; g < packed.sides.size(); ++g) {
      const std::uint8_t side = packed.sides[g];
      if (side > 1) {
        throw SnapshotFormatError(
            "Snapshot::BuildHierarchy: group side byte " +
            std::to_string(side) + " at level " + std::to_string(l) +
            " is neither left nor right");
      }
      groups.push_back(gdp::hier::GroupInfo{
          side == 0 ? gdp::hier::Side::kLeft : gdp::hier::Side::kRight,
          packed.sizes[g], packed.parents[g]});
    }
    const auto left = packed.left_labels.view();
    const auto right = packed.right_labels.view();
    try {
      // The Partition constructor re-proves label ranges, side purity and
      // size consistency on these untrusted columns.
      levels.emplace_back(
          std::vector<std::uint32_t>(left.begin(), left.end()),
          std::vector<std::uint32_t>(right.begin(), right.end()),
          std::move(groups));
    } catch (const std::exception& e) {
      throw SnapshotFormatError(
          "Snapshot::BuildHierarchy: level " + std::to_string(l) +
          " fails partition validation: " + e.what());
    }
  }
  try {
    // validate=true re-proves refinement level by level: the snapshot's
    // parent links feed the plan rollup and drilldown, so a tampered
    // hierarchy must not survive loading.
    return gdp::hier::GroupHierarchy(std::move(levels), /*validate=*/true);
  } catch (const std::exception& e) {
    throw SnapshotFormatError(
        std::string("Snapshot::BuildHierarchy: hierarchy fails refinement "
                    "validation: ") +
        e.what());
  }
}

const gdp::core::ReleasePlan& Snapshot::plan() const {
  if (!has_plan()) {
    throw gdp::common::StateError(
        "Snapshot::plan: snapshot carries no plan sections");
  }
  return *plan_;
}

}  // namespace gdp::storage
