// One seeded mutation driver for every hostile-input parser.  Its binary
// mode drives the three byte decoders: the GDPNET02 frame decoders
// (net_wire_test), AuditWal::Replay over GDPWAL01 images (audit_wal_test)
// and Snapshot::Parse over GDPSNAP01 files (snapshot_test).  Its text mode
// drives the five text parsers: the edge list (graph_io_test, and the
// streaming reader in streaming_io_test), gdp-hierarchy v1 (hier_io_test),
// gdp-release v1 (release_io_test), tenants.tsv and reqs.tsv (cli_test).
// The driver owns what every format shares: the guard page, the u32 field
// load and store (the codec's own, common/le_codec.hpp), the layout walker
// that finds a payload's length and count fields, a text's integer tokens,
// the text contract, and the mutants themselves.  Each test owns its
// format's corpus, how a binary mutant is re-sealed (its CRCs recomputed so
// the structural checks run, not only the CRC check), and what the parser
// must do with a mutant.
#pragma once

#include <sys/mman.h>
#include <unistd.h>

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/le_codec.hpp"
#include "common/rng.hpp"

namespace gdp::mutation_driver {

inline std::uint32_t U32At(std::string_view bytes, std::size_t at) {
  return gdp::common::LoadLe<std::uint32_t>(bytes.data() + at);
}

inline std::uint64_t U64At(std::string_view bytes, std::size_t at) {
  return gdp::common::LoadLe<std::uint64_t>(bytes.data() + at);
}

inline void SetU32At(std::string& bytes, std::size_t at, std::uint32_t v) {
  gdp::common::StoreLe(bytes.data() + at, v);
}

// What every length or count field is rewritten to.
inline std::vector<std::uint32_t> RewriteValues(std::uint32_t exact) {
  return {0, 1, exact, exact + 1, 0xFFFFFFFFu};
}

// A u32 length or count field: where it sits, and the value that exactly
// fits what follows it.
struct LengthField {
  static constexpr std::size_t kRewrites = 5;

  std::size_t offset{0};
  std::uint32_t exact{0};

  // Writes RewriteValues(exact)[k] over the field; returns what it wrote.
  std::string Rewrite(std::string& bytes, std::size_t k) const {
    const std::uint32_t v = RewriteValues(exact)[k];
    SetU32At(bytes, offset, v);
    return std::to_string(v);
  }
};

// An integer token of a text: a field of digits, with an optional leading
// '-', that fits an int64.
struct TokenField {
  static constexpr std::size_t kRewrites = 9;

  std::size_t offset{0};
  std::size_t length{0};
  std::int64_t value{0};

  // Replaces the token with its k-th rewrite: 0, 1, value - 1, value + 1,
  // 2^32 - 1, 2^32, 2^64 - 1, 2^64 and -1.  Returns what it wrote.
  std::string Rewrite(std::string& text, std::size_t k) const {
    static constexpr const char* kFixed[] = {
        "0", "1", "", "", "4294967295", "4294967296",
        "18446744073709551615", "18446744073709551616", "-1"};
    const std::string v = k == 2   ? std::to_string(value - 1)
                          : k == 3 ? std::to_string(value + 1)
                                   : kFixed[k];
    text.replace(offset, length, v);
    return v;
  }
};

// Every integer token of `text`.  Fields end at a blank or a line break,
// as in common/text_reader.hpp.
inline std::vector<TokenField> IntegerTokens(std::string_view text) {
  const auto is_break = [](char c) {
    return c == ' ' || c == '\t' || c == '\r' || c == '\n';
  };
  std::vector<TokenField> tokens;
  std::size_t i = 0;
  while (i < text.size()) {
    if (is_break(text[i])) {
      ++i;
      continue;
    }
    std::size_t end = i;
    while (end < text.size() && !is_break(text[end])) {
      ++end;
    }
    std::int64_t value = 0;
    const auto [ptr, ec] =
        std::from_chars(text.data() + i, text.data() + end, value);
    if (ec == std::errc{} && ptr == text.data() + end) {
      tokens.push_back({i, end - i, value});
    }
    i = end;
  }
  return tokens;
}

// A layout, one character per field: '1', '4' and '8' are fixed widths,
// 's' a u32-prefixed string, 'v' a u32-counted f64 column, and "(...)" a
// u32-counted group (groups do not nest).
inline std::size_t MinBytes(std::string_view layout) {
  std::size_t bytes = 0;
  for (const char c : layout) {
    bytes += c == '1' ? 1 : c == '8' ? 8 : c == ')' ? 0 : 4;
  }
  return bytes;
}

// Walk a well-formed payload along `layout` from `pos`, collecting its
// length and count fields; the exact fit of each is the element count the
// bytes from it to `end` hold.  Returns the position after the layout.
inline std::size_t Walk(std::string_view payload, std::string_view layout,
                        std::size_t pos, std::size_t end,
                        std::vector<LengthField>& fields) {
  const auto field = [&](std::size_t elem_size) {
    fields.push_back(
        {pos, static_cast<std::uint32_t>((end - pos - 4) / elem_size)});
  };
  for (std::size_t i = 0; i < layout.size(); ++i) {
    const char c = layout[i];
    if (c == '1' || c == '4' || c == '8') {
      pos += static_cast<std::size_t>(c - '0');
      continue;
    }
    const std::uint32_t n = U32At(payload, pos);
    if (c == 's' || c == 'v') {
      const std::size_t elem = c == 's' ? 1 : 8;
      field(elem);
      pos += 4 + elem * n;
      continue;
    }
    const std::size_t close = layout.find(')', i);
    const std::string_view group = layout.substr(i + 1, close - i - 1);
    field(MinBytes(group));
    pos += 4;
    for (std::uint32_t k = 0; k < n; ++k) {
      pos = Walk(payload, group, pos, end, fields);
    }
    i = close;
  }
  return pos;
}

// Holds each input under test flush against a PROT_NONE page, so a decoder
// that reads even one byte past it faults in every build, not only under
// ASan.
class GuardedBuffer {
 public:
  static constexpr std::size_t kCapacity = 64 * 1024;

  GuardedBuffer() {
    const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    data_bytes_ = (kCapacity + page - 1) / page * page;
    map_bytes_ = data_bytes_ + page;
    void* map = ::mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (map == MAP_FAILED || ::mprotect(static_cast<char*>(map) + data_bytes_,
                                        page, PROT_NONE) != 0) {
      throw std::runtime_error("GuardedBuffer: mmap/mprotect failed");
    }
    base_ = static_cast<char*>(map);
  }
  ~GuardedBuffer() { ::munmap(base_, map_bytes_); }
  GuardedBuffer(const GuardedBuffer&) = delete;
  GuardedBuffer& operator=(const GuardedBuffer&) = delete;

  [[nodiscard]] std::string_view Place(std::string_view bytes) {
    if (bytes.size() > kCapacity) {
      throw std::length_error("GuardedBuffer: input past capacity");
    }
    char* at = base_ + data_bytes_ - bytes.size();
    std::memcpy(at, bytes.data(), bytes.size());
    return {at, bytes.size()};
  }

 private:
  char* base_{nullptr};
  std::size_t data_bytes_{0};
  std::size_t map_bytes_{0};
};

// Well-formed inputs, each with the fields its rewrites target.
template <typename Field>
struct BasicCorpus {
  std::vector<std::string> entries;
  std::vector<std::vector<Field>> fields;
};

// Binary mode: the length and count fields of each entry.
using Corpus = BasicCorpus<LengthField>;

// Text mode: the integer tokens of each entry.
struct TextCorpus : BasicCorpus<TokenField> {
  void Add(std::string text) {
    fields.push_back(IntegerTokens(text));
    entries.push_back(std::move(text));
  }
};

struct Mutant {
  std::string bytes;
  std::size_t base{0};  // the corpus entry it was made from
  // Binary mode: true for the one mutant in eight that keeps its base's
  // CRCs; the rest are re-sealed by the format's check.
  bool stale_crc{false};
  std::string what;  // names the mutant in a failure message
};

// Feeds `check` every field rewrite of every corpus entry (Field::Rewrite),
// then `random` seeded mutants: 1-8 bit flips, a splice of two entries, a
// truncation, or a field rewrite (a random byte for an entry without
// fields).  `check(mutant)` returns false to stop at a failure.  Returns the
// number of mutants run.
template <typename Field, typename Check>
std::size_t Run(const BasicCorpus<Field>& corpus, std::uint64_t seed,
                std::size_t random, Check&& check) {
  std::size_t mutants = 0;
  for (std::size_t c = 0; c < corpus.entries.size(); ++c) {
    for (const Field& f : corpus.fields[c]) {
      for (std::size_t k = 0; k < Field::kRewrites; ++k) {
        Mutant m{corpus.entries[c], c, false, ""};
        m.what = "field at " + std::to_string(f.offset) + " = " +
                 f.Rewrite(m.bytes, k) + " on corpus " + std::to_string(c);
        ++mutants;
        if (!check(m)) {
          return mutants;
        }
      }
    }
  }

  gdp::common::Rng rng(seed);
  for (std::size_t r = 0; r < random; ++r) {
    const std::size_t c = rng.UniformInt(corpus.entries.size());
    const std::string& base = corpus.entries[c];
    const std::vector<Field>& fields = corpus.fields[c];
    std::string mutant = base;
    const std::uint64_t op = rng.UniformInt(4);
    if (op == 0) {
      const std::uint64_t flips = 1 + rng.UniformInt(8);
      for (std::uint64_t f = 0; f < flips; ++f) {
        mutant[rng.UniformInt(mutant.size())] ^=
            static_cast<char>(1u << rng.UniformInt(8));
      }
    } else if (op == 1) {
      const std::string& other =
          corpus.entries[rng.UniformInt(corpus.entries.size())];
      const std::size_t cut = rng.UniformInt(base.size() + 1);
      const std::size_t from = rng.UniformInt(other.size() + 1);
      mutant = base.substr(0, cut) + other.substr(from);
    } else if (op == 2) {
      mutant.resize(rng.UniformInt(base.size()));
    } else if (!fields.empty()) {
      const Field& f = fields[rng.UniformInt(fields.size())];
      (void)f.Rewrite(mutant, rng.UniformInt(Field::kRewrites));
    } else {
      mutant[rng.UniformInt(mutant.size())] =
          static_cast<char>(rng.UniformInt(256));
    }
    const bool stale_crc = rng.UniformInt(8) == 0;
    ++mutants;
    if (!check(Mutant{std::move(mutant), c, stale_crc,
                      "random mutant " + std::to_string(r) + " (op " +
                          std::to_string(op) + ") of corpus " +
                          std::to_string(c)})) {
      return mutants;
    }
  }
  return mutants;
}

// The text mode's contract for one mutant, as a failure message that is
// empty when it holds: `parse(text)` refuses it with gdp::common::IoError
// (or with `Also`, a refusal the format's validation may throw), or it
// returns a value whose `write` output `parse` reads back to an `equal`
// value.
struct NoOtherRefusal {};

template <typename Also = NoOtherRefusal, typename Parse, typename Write,
          typename Equal>
std::string TextContract(const std::string& text, Parse&& parse,
                         Write&& write, Equal&& equal) {
  try {
    const auto value = parse(text);
    const std::string written = write(value);
    try {
      if (!equal(parse(written), value)) {
        return "accepted, but its writer's output reads back differently";
      }
    } catch (const std::exception& e) {
      return std::string("accepted, but its writer's output is refused: ") +
             e.what();
    }
  } catch (const gdp::common::IoError&) {
  } catch (const Also&) {
  } catch (const std::exception& e) {
    return std::string("threw a non-format exception: ") + e.what();
  }
  return "";
}

}  // namespace gdp::mutation_driver
