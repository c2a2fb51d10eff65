// The one reader of every text input: the edge list, gdp-hierarchy v1,
// gdp-release v1, tenants.tsv, reqs.tsv and the CLI's numeric flags; the
// text twin of common/le_codec.hpp's LeReader (docs/FORMATS.md, "Text
// formats").  Blanks are space, tab and CR; a line that is empty, all
// blanks or has '#' as its first non-blank is skipped; a number is a whole
// field in decimal ('-' only for a signed type, no '+' or hex, doubles
// finite); a declared count is proved against the bytes that must carry
// it (Count) before anything is sized from it.  Every refusal is an
// IoError naming the format and the line.
#pragma once

#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <istream>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

#include "common/error.hpp"

namespace gdp::common {

// from_chars in decimal, except that a non-finite double is refused as
// invalid_argument.
template <typename T>
std::from_chars_result FromDecimal(const char* first, const char* last,
                                   T& value) noexcept {
  if constexpr (std::is_floating_point_v<T>) {
    const auto r =
        std::from_chars(first, last, value, std::chars_format::general);
    return {r.ptr, r.ec == std::errc{} && !std::isfinite(value)
                       ? std::errc::invalid_argument
                       : r.ec};
  } else {
    return std::from_chars(first, last, value, 10);
  }
}

// Parses all of `token` as a decimal T: std::errc{} with `value` set,
// result_out_of_range for a number T cannot hold, else invalid_argument.
template <typename T>
[[nodiscard]] std::errc ParseNumber(std::string_view token, T& value) noexcept {
  const char* const last = token.data() + token.size();
  const auto [ptr, ec] = FromDecimal(token.data(), last, value);
  return ptr == last ? ec : std::errc::invalid_argument;
}

// Reads records (the lines that are not skipped) from a stream and fields
// from the current record, counting the lines and bytes read.
class TextReader {
 public:
  // `format` names the input in every error and must outlive the reader.
  TextReader(std::istream& in, std::string_view format) noexcept
      : in_(in), format_(format) {}

  // Moves to the next record; false at the end of the input.
  [[nodiscard]] bool Next() {
    while (std::getline(in_, line_)) {
      ++line_no_;
      bytes_read_ += line_.size() + (in_.eof() ? 0 : 1);
      pos_ = SkipBlanks(0);
      if (pos_ != line_.size() && line_[pos_] != '#') {
        return true;
      }
    }
    return false;
  }

  // Moves to the next record, which must start with `keyword`.
  void Record(std::string_view keyword) {
    if (!Next()) {
      Fail("unexpected end of input, expected a '" + std::string(keyword) +
           "' line");
    }
    Expect(keyword);
  }

  // The next field, which must be `keyword`.
  void Expect(std::string_view keyword) {
    if (const std::string_view word = Word(keyword); word != keyword) {
      Fail("expected '" + std::string(keyword) + "', found '" +
           std::string(word) + "'");
    }
  }

  // The next field, viewed in the current line.
  [[nodiscard]] std::string_view Word(std::string_view what) {
    const std::size_t start = SkipBlanks(pos_);
    if (start == line_.size()) {
      Fail("expected " + std::string(what) + ", found the end of the line");
    }
    for (pos_ = start; pos_ < line_.size() && !IsBlank(line_[pos_]); ++pos_) {
    }
    return std::string_view(line_).substr(start, pos_ - start);
  }

  // The next field, parsed whole as a decimal T.  The number is read in
  // place and must end at a blank or the end of the line: the edge list's
  // hot loop scans each field once.
  template <typename T>
  [[nodiscard]] T Number(std::string_view what) {
    const char* const last = line_.data() + line_.size();
    T value{};
    const auto [ptr, ec] =
        FromDecimal(line_.data() + SkipBlanks(pos_), last, value);
    const bool whole = ptr == last || IsBlank(*ptr);
    if (ec != std::errc{} || !whole) [[unlikely]] {
      BadNumber(what, whole && ec == std::errc::result_out_of_range);
    }
    pos_ = static_cast<std::size_t>(ptr - line_.data());
    return value;
  }

  // True when no field is left on the line.
  [[nodiscard]] bool AtEnd() const noexcept {
    return SkipBlanks(pos_) == line_.size();
  }

  // Refuses a field left on the line.
  void End() {
    if (!AtEnd()) {
      Fail("unexpected trailing field '" + std::string(Word("")) + "'");
    }
  }

  // `declared` (unsigned), once proved to fit the rest of the line at
  // `min_bytes_each` bytes per element, separator included.
  template <typename T>
  [[nodiscard]] T Count(T declared, std::size_t min_bytes_each,
                        std::string_view what) const {
    if (declared > (line_.size() - pos_) / min_bytes_each) {
      Fail("declared " + std::string(what) + " count " +
           std::to_string(declared) + " does not fit the rest of its line");
    }
    return declared;
  }

  // "<format> line <n>", the prefix of every error.
  [[nodiscard]] std::string Where() const {
    return std::string(format_) + " line " + std::to_string(line_no_);
  }

  [[noreturn, gnu::cold, gnu::noinline]] void Fail(
      const std::string& detail) const {
    throw IoError(Where() + ": " + detail);
  }

  [[nodiscard]] std::uint64_t line_no() const noexcept { return line_no_; }
  [[nodiscard]] std::uint64_t bytes_read() const noexcept {
    return bytes_read_;
  }

 private:
  [[nodiscard]] static constexpr bool IsBlank(char c) noexcept {
    return c == ' ' || c == '\t' || c == '\r';
  }
  [[nodiscard]] std::size_t SkipBlanks(std::size_t i) const noexcept {
    while (i < line_.size() && IsBlank(line_[i])) {
      ++i;
    }
    return i;
  }

  [[noreturn, gnu::cold, gnu::noinline]] void BadNumber(std::string_view what,
                                                        bool out_of_range) {
    const std::string token(Word(what));
    Fail(out_of_range ? std::string(what) + " '" + token + "' is out of range"
                      : "bad " + std::string(what) + " '" + token + "'");
  }

  std::istream& in_;
  std::string_view format_;
  std::string line_;
  std::size_t pos_{0};  // just past the last field read
  std::uint64_t line_no_{0};
  std::uint64_t bytes_read_{0};
};

}  // namespace gdp::common
