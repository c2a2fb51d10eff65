#include "common/crc32.hpp"

#include <array>

#include "common/le_codec.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define GDP_CRC32_HAVE_CLMUL 1
#endif

namespace gdp::common {

namespace {

// Slice-by-8 tables for polynomial 0xEDB88320 (the bit-reversed 0x04C11DB7).
// kTables[0] is the classic byte-at-a-time reflected table; kTables[k][i]
// advances the CRC by k additional zero bytes, letting the portable loop
// fold 8 input bytes with 8 independent table lookups per iteration instead
// of 8 serial ones.
constexpr std::array<std::array<std::uint32_t, 256>, 8> MakeTables() {
  std::array<std::array<std::uint32_t, 256>, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (std::uint32_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return tables;
}

constexpr std::array<std::array<std::uint32_t, 256>, 8> kTables = MakeTables();

// Advance the raw (pre/post-inversion) CRC state over `len` bytes,
// slice-by-8.  All paths below share this for tails and as the fallback.
std::uint32_t UpdateSlice8(std::uint32_t crc, const unsigned char* p,
                           std::size_t len) noexcept {
  while (len >= 8) {
    const std::uint32_t lo = crc ^ LoadLe<std::uint32_t>(p);
    const std::uint32_t hi = LoadLe<std::uint32_t>(p + 4);
    crc = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
          kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
          kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
    p += 8;
    len -= 8;
  }
  for (; len > 0; ++p, --len) {
    crc = kTables[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

#ifdef GDP_CRC32_HAVE_CLMUL

// PCLMULQDQ folding for the same reflected IEEE polynomial, after Gopal et
// al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ"
// (Intel, 2009) — the layout zlib's crc32_simd uses.  Four 128-bit lanes
// fold 64 input bytes per iteration; the folding constants are x^k mod P
// for the lane distances, and the final Barrett reduction maps the folded
// 64-bit remainder back to a 32-bit CRC.  Bit-identical to the table loops.
// Requires len >= 64 and len % 16 == 0; the dispatcher below guarantees it.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t UpdateClmul(
    std::uint32_t crc, const unsigned char* buf, std::size_t len) noexcept {
  alignas(16) static const std::uint64_t k1k2[2] = {0x0154442bd4,
                                                    0x01c6e41596};
  alignas(16) static const std::uint64_t k3k4[2] = {0x01751997d0,
                                                    0x00ccaa009e};
  alignas(16) static const std::uint64_t k5k0[2] = {0x0163cd6124, 0};
  alignas(16) static const std::uint64_t poly[2] = {0x01db710641,
                                                    0x01f7011641};
  __m128i x0, x1, x2, x3, x4, x5, x6, x7, x8, y5, y6, y7, y8;

  x1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 0x00));
  x2 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 0x10));
  x3 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 0x20));
  x4 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 0x30));
  x1 = _mm_xor_si128(x1, _mm_cvtsi32_si128(static_cast<int>(crc)));
  x0 = _mm_load_si128(reinterpret_cast<const __m128i*>(k1k2));
  buf += 64;
  len -= 64;

  while (len >= 64) {
    x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
    x6 = _mm_clmulepi64_si128(x2, x0, 0x00);
    x7 = _mm_clmulepi64_si128(x3, x0, 0x00);
    x8 = _mm_clmulepi64_si128(x4, x0, 0x00);
    x1 = _mm_clmulepi64_si128(x1, x0, 0x11);
    x2 = _mm_clmulepi64_si128(x2, x0, 0x11);
    x3 = _mm_clmulepi64_si128(x3, x0, 0x11);
    x4 = _mm_clmulepi64_si128(x4, x0, 0x11);
    y5 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 0x00));
    y6 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 0x10));
    y7 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 0x20));
    y8 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 0x30));
    x1 = _mm_xor_si128(_mm_xor_si128(x1, x5), y5);
    x2 = _mm_xor_si128(_mm_xor_si128(x2, x6), y6);
    x3 = _mm_xor_si128(_mm_xor_si128(x3, x7), y7);
    x4 = _mm_xor_si128(_mm_xor_si128(x4, x8), y8);
    buf += 64;
    len -= 64;
  }

  // Fold the four lanes into one.
  x0 = _mm_load_si128(reinterpret_cast<const __m128i*>(k3k4));
  x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
  x1 = _mm_clmulepi64_si128(x1, x0, 0x11);
  x1 = _mm_xor_si128(_mm_xor_si128(x1, x2), x5);
  x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
  x1 = _mm_clmulepi64_si128(x1, x0, 0x11);
  x1 = _mm_xor_si128(_mm_xor_si128(x1, x3), x5);
  x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
  x1 = _mm_clmulepi64_si128(x1, x0, 0x11);
  x1 = _mm_xor_si128(_mm_xor_si128(x1, x4), x5);

  // Remaining full 16-byte blocks.
  while (len >= 16) {
    y5 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf));
    x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
    x1 = _mm_clmulepi64_si128(x1, x0, 0x11);
    x1 = _mm_xor_si128(_mm_xor_si128(x1, y5), x5);
    buf += 16;
    len -= 16;
  }

  // Fold 128 bits to 64.
  x2 = _mm_clmulepi64_si128(x1, x0, 0x10);
  x3 = _mm_setr_epi32(~0, 0, ~0, 0);
  x1 = _mm_srli_si128(x1, 8);
  x1 = _mm_xor_si128(x1, x2);
  x0 = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(k5k0));
  x2 = _mm_srli_si128(x1, 4);
  x1 = _mm_and_si128(x1, x3);
  x1 = _mm_clmulepi64_si128(x1, x0, 0x00);
  x1 = _mm_xor_si128(x1, x2);

  // Barrett reduction to 32 bits.
  x0 = _mm_load_si128(reinterpret_cast<const __m128i*>(poly));
  x2 = _mm_and_si128(x1, x3);
  x2 = _mm_clmulepi64_si128(x2, x0, 0x10);
  x2 = _mm_and_si128(x2, x3);
  x2 = _mm_clmulepi64_si128(x2, x0, 0x00);
  x1 = _mm_xor_si128(x1, x2);
  return static_cast<std::uint32_t>(_mm_extract_epi32(x1, 1));
}

bool HaveClmul() noexcept {
  static const bool have =
      __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  return have;
}

#endif  // GDP_CRC32_HAVE_CLMUL

}  // namespace

std::uint32_t Crc32(std::string_view data, std::uint32_t seed) noexcept {
  std::uint32_t crc = seed ^ 0xFFFFFFFFu;
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t len = data.size();
#ifdef GDP_CRC32_HAVE_CLMUL
  if (len >= 64 && HaveClmul()) {
    const std::size_t folded = len & ~static_cast<std::size_t>(15);
    crc = UpdateClmul(crc, p, folded);
    p += folded;
    len -= folded;
  }
#endif
  crc = UpdateSlice8(crc, p, len);
  return crc ^ 0xFFFFFFFFu;
}

std::uint32_t Crc32Chunked(std::string_view data, std::size_t chunk_size,
                           std::uint32_t seed) noexcept {
  if (chunk_size == 0) {
    return Crc32(data, seed);
  }
  std::uint32_t crc = seed;  // Crc32 of an empty span is the seed itself.
  for (std::size_t pos = 0; pos < data.size(); pos += chunk_size) {
    crc = Crc32(data.substr(pos, chunk_size), crc);
  }
  return crc;
}

}  // namespace gdp::common
