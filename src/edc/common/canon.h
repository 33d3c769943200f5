// Canonical line-oriented text encoding shared by the spec and result
// serializers (edc/spec/serialize, edc/sim/result_io).
//
// The format is deliberately minimal: one field per line, two spaces of
// indentation per nesting level, `key value` for scalar fields, `key tag`
// for section headers / variant selectors, and bare numbers for array
// elements. Doubles are printed with std::to_chars (shortest form that
// round-trips exactly, locale-independent) so text -> double -> text is
// the identity for any double the writer produced; strings are quoted with
// C-style escapes. The Reader is strict: it consumes exactly the canonical
// lines in canonical order and throws FormatError on anything else, which
// is what makes the encoded bytes safe to hash and compare.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace edc::canon {

/// Thrown on any deviation from the canonical format (unknown field,
/// wrong order, malformed value, truncation, trailing bytes).
class FormatError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

// ---- scalar <-> text ------------------------------------------------------

/// Shortest exactly-round-tripping decimal form of `v` (std::to_chars).
[[nodiscard]] std::string double_text(double v);

/// Strict inverses; the whole token must be consumed.
[[nodiscard]] double parse_double(std::string_view text);
[[nodiscard]] std::uint64_t parse_u64(std::string_view text);
[[nodiscard]] std::int64_t parse_i64(std::string_view text);

/// Validates an element count read from untrusted text against the
/// `lines_left` still unread: every element takes at least one line, so a
/// larger count is malformed (and must not size an allocation). Returns
/// the count; throws FormatError naming `key` otherwise.
[[nodiscard]] std::size_t checked_count(std::uint64_t count,
                                        std::size_t lines_left, std::string_view key);

/// C-style quoting for arbitrary byte strings (\" \\ \n \r \t, \xHH for
/// other control bytes) and its inverse.
[[nodiscard]] std::string quote(std::string_view raw);
[[nodiscard]] std::string unquote(std::string_view text);

// ---- canonical writer -----------------------------------------------------

class Writer {
 public:
  /// Opens a section (`key` or `key tag`) and indents subsequent lines.
  void begin(std::string_view key, std::string_view tag = {});
  void end();

  void field(std::string_view key, double v);
  void field(std::string_view key, std::uint64_t v);
  void field(std::string_view key, int v);
  void field(std::string_view key, bool v);
  void field_size(std::string_view key, std::size_t v);
  void field_string(std::string_view key, std::string_view v);
  /// A bare array-element line (number only).
  void bare(double v);

  [[nodiscard]] std::string take();

 private:
  void open(std::string_view key, std::string_view value);

  std::string out_;
  int depth_ = 0;
};

// ---- strict canonical reader ----------------------------------------------

class Reader {
 public:
  /// Splits `text` into lines; every line must end in '\n'.
  explicit Reader(const std::string& text);

  /// Consumes a section header `key` (no tag) and indents.
  void begin(std::string_view key);
  /// Consumes `key tag` and indents; returns the tag.
  std::string_view begin_tagged(std::string_view key);
  /// Consumes a counted section header `key <n>` and indents; returns n,
  /// which checked_count() has bounded by the lines left.
  std::size_t begin_counted(std::string_view key);
  void end();

  [[nodiscard]] double number(std::string_view key);
  [[nodiscard]] std::uint64_t u64(std::string_view key);
  /// An int field; values outside int's range are malformed.
  [[nodiscard]] int integer(std::string_view key);
  [[nodiscard]] bool boolean(std::string_view key);
  [[nodiscard]] std::size_t size_value(std::string_view key);
  /// A single-token value (variant tag).
  [[nodiscard]] std::string_view tag(std::string_view key);
  /// A quoted string value (may contain spaces).
  [[nodiscard]] std::string text(std::string_view key);
  /// A bare array-element line.
  [[nodiscard]] double bare_number();

  /// Throws unless every line has been consumed.
  void finish() const;

 private:
  std::string_view take(std::string_view key);
  std::string_view require_value(std::string_view key);
  std::string_view next_line();

  std::vector<std::string_view> lines_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace edc::canon
