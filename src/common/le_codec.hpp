// The one little-endian byte codec behind every format that leaves the
// process: GDPNET02 messages, GDPSNAP01 headers, tables and meta sections,
// and GDPWAL01 records.  Each format keeps its own layout and error type;
// the byte order, the cursor discipline and the frame GDPNET02 and GDPWAL01
// share live here, next to the one CRC (common/crc32.hpp).  Strings and
// vectors carry a u32 count prefix; doubles travel by IEEE-754 bit pattern.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/crc32.hpp"

namespace gdp::common {

namespace le_detail {

template <typename U, std::size_t... I>
void Store(void* out, U v, std::index_sequence<I...>) noexcept {
  unsigned char bytes[sizeof(U)];
  ((bytes[I] = static_cast<unsigned char>(v >> (8 * I))), ...);
  std::memcpy(out, bytes, sizeof(U));
}

template <typename U, std::size_t... I>
U Load(const unsigned char* in, std::index_sequence<I...>) noexcept {
  return static_cast<U>(((static_cast<U>(in[I]) << (8 * I)) | ...));
}

}  // namespace le_detail

// Little-endian word store and load, shift-assembled: the bytes are in
// format order on any host, and compilers fold each into one store or load
// per word on little-endian targets.  StoreLe assembles the word in a local
// and copies it out: direct byte stores let GCC vectorize a loop of them
// into byte shuffles.
template <typename U>
void StoreLe(void* out, U v) noexcept {
  le_detail::Store(out, v, std::make_index_sequence<sizeof(U)>{});
}

template <typename U>
[[nodiscard]] U LoadLe(const void* in) noexcept {
  return le_detail::Load<U>(static_cast<const unsigned char*>(in),
                            std::make_index_sequence<sizeof(U)>{});
}

// On a little-endian host a double's bytes are already its little-endian
// bit pattern, so an f64 column moves as one memcpy: the bytes of the word
// loop a big-endian host runs, at a speed that does not depend on where the
// linker places the code, as that loop's did (docs/PERF.md).
inline constexpr bool kDoublesAreLe =
    std::endian::native == std::endian::little;

// Append-only little-endian serializer.
class LeWriter {
 public:
  void Reserve(std::size_t bytes) { out_.reserve(bytes); }

  void U8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U16(std::uint16_t v) { StoreLe(Grow(sizeof(v)), v); }
  void U32(std::uint32_t v) { StoreLe(Grow(sizeof(v)), v); }
  void U64(std::uint64_t v) { StoreLe(Grow(sizeof(v)), v); }
  void I32(std::int32_t v) { U32(std::bit_cast<std::uint32_t>(v)); }
  void F64(double v) { U64(std::bit_cast<std::uint64_t>(v)); }
  // Raw bytes, no count prefix.
  void Bytes(std::string_view s) { out_.append(s); }
  // A u32 length, then the bytes.  Formats with a tighter cap check it
  // first; this only refuses a length the prefix cannot carry.
  void Str(std::string_view s) {
    if (s.size() > std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error("LeWriter: string longer than a u32 length");
    }
    U32(static_cast<std::uint32_t>(s.size()));
    out_.append(s);
  }
  // A u32 count, then the values; grows the output once per column.
  void F64Vec(const std::vector<double>& v) {
    U32(static_cast<std::uint32_t>(v.size()));
    char* p = Grow(8 * v.size());
    if constexpr (kDoublesAreLe) {
      if (!v.empty()) {
        std::memcpy(p, v.data(), 8 * v.size());
      }
    } else {
      for (const double d : v) {
        StoreLe(p, std::bit_cast<std::uint64_t>(d));
        p += 8;
      }
    }
  }

  [[nodiscard]] std::string_view view() const noexcept { return out_; }
  [[nodiscard]] std::string Take() && { return std::move(out_); }

 private:
  // Extend the output by `n` bytes and return where they start.
  char* Grow(std::size_t n) {
    const std::size_t at = out_.size();
    out_.resize(at + n);
    return out_.data() + at;
  }

  std::string out_;
};

// Bounds-checked little-endian reader over untrusted bytes.  Every accessor
// verifies the remaining byte count BEFORE reading, and every count-prefixed
// aggregate verifies the declared count against a per-element lower bound on
// the remaining bytes BEFORE anything is allocated — a hostile u32 must never
// size an allocation.  Each violation throws `Error` with a message that
// starts with `context`, which names the format and must outlive the reader.
template <typename Error>
class LeReader {
 public:
  LeReader(std::string_view data, std::string_view context) noexcept
      : data_(data), context_(context) {}

  [[nodiscard]] std::uint8_t U8() {
    Need(1, "u8");
    return static_cast<std::uint8_t>(data_[pos_++]);
  }
  [[nodiscard]] std::uint16_t U16() { return Word<std::uint16_t>("u16"); }
  [[nodiscard]] std::uint32_t U32() { return Word<std::uint32_t>("u32"); }
  [[nodiscard]] std::uint64_t U64() { return Word<std::uint64_t>("u64"); }
  [[nodiscard]] std::int32_t I32() { return std::bit_cast<std::int32_t>(U32()); }
  [[nodiscard]] double F64() { return std::bit_cast<double>(U64()); }
  // `n` raw bytes, viewed in place.
  [[nodiscard]] std::string_view Bytes(std::size_t n, const char* what) {
    Need(n, what);
    const std::string_view s = data_.substr(pos_, n);
    pos_ += n;
    return s;
  }
  [[nodiscard]] std::string Str() {
    const std::uint32_t len = U32();
    return std::string(Bytes(len, "string body"));
  }
  // Count has proved all `count` values are present, so they load with no
  // per-element check.
  [[nodiscard]] std::vector<double> F64Vec() {
    const std::uint32_t count = Count(8, "f64 vector");
    std::vector<double> v(count);
    const char* p = data_.data() + pos_;
    if constexpr (kDoublesAreLe) {
      if (count != 0) {
        std::memcpy(v.data(), p, std::size_t{8} * count);
      }
    } else {
      for (double& d : v) {
        d = std::bit_cast<double>(LoadLe<std::uint64_t>(p));
        p += 8;
      }
    }
    pos_ += std::size_t{8} * count;
    return v;
  }
  // A declared element count, already proved to fit the remaining bytes at
  // `min_elem_size` bytes per element.
  [[nodiscard]] std::uint32_t Count(std::size_t min_elem_size,
                                    const char* what) {
    const std::uint32_t count = U32();
    if (static_cast<std::uint64_t>(count) * min_elem_size > Remaining()) {
      Fail(": declared ", what, " count does not fit the remaining payload");
    }
    return count;
  }
  // Bytes consumed so far.
  [[nodiscard]] std::size_t pos() const noexcept { return pos_; }
  void ExpectEnd(const char* what) const {
    if (pos_ != data_.size()) {
      Fail(": trailing bytes after ", what, "");
    }
  }

 private:
  [[nodiscard]] std::size_t Remaining() const noexcept {
    return data_.size() - pos_;
  }
  void Need(std::size_t n, const char* what) const {
    if (Remaining() < n) {
      Fail(": truncated ", what, "");
    }
  }
  template <typename U>
  [[nodiscard]] U Word(const char* what) {
    Need(sizeof(U), what);
    const U v = LoadLe<U>(data_.data() + pos_);
    pos_ += sizeof(U);
    return v;
  }
  [[noreturn, gnu::cold, gnu::noinline]] void Fail(const char* before,
                                                   const char* what,
                                                   const char* after) const {
    throw Error(std::string(context_) + before + what + after);
  }

  std::string_view data_;
  std::string_view context_;
  std::size_t pos_{0};
};

// The frame GDPNET02 and GDPWAL01 share: [u32 payload length][u32 CRC-32 of
// the payload][payload].  Each format checks its own length bounds first;
// SealFrame only refuses a length the u32 cannot carry.
inline constexpr std::size_t kFrameHeaderSize = 8;

[[nodiscard]] inline std::string SealFrame(std::string_view payload) {
  if (payload.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("SealFrame: payload longer than a u32 length");
  }
  char header[kFrameHeaderSize];
  StoreLe(header, static_cast<std::uint32_t>(payload.size()));
  StoreLe(header + 4, Crc32(payload));
  std::string frame;
  frame.reserve(kFrameHeaderSize + payload.size());
  frame.append(header, kFrameHeaderSize);
  frame.append(payload);
  return frame;
}

}  // namespace gdp::common
