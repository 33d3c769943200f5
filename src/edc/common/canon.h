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
//
// Each record's field list is written once, as a template that both
// walkers run:
//
//   void walk(auto& io, canon::Record<StorageSpec> auto& s) {
//     io("capacitance", s.capacitance);
//     io("initial_voltage", s.initial_voltage);
//   }
//   ... io.section("storage", [&] { walk(io, spec.storage); }); ...
//
// canon::Writer walks a const record and appends its lines; canon::Reader
// walks a default-constructed record and fills it, so serializing and
// parsing are the same code read in two directions. Both walkers offer:
//
//   io(key, field)                       one field (double, bool, string,
//                                        vector<double>, any integer; the
//                                        reader range-checks integers)
//   io.section(key, fn)                  `key`, fn's lines one level deeper
//   io.section(key, head, fn)            `key <head>`, likewise
//   io.tag(key, e, names)                an enum as `key names[e]`
//   io.variant(key, v, names, visit)     `key names[v.index()]`, then visit
//                                        the alternative; nullptr names an
//                                        alternative that cannot be written
//   io.optional(key, o, absent, present, fn)
//                                        `key absent`, or `key present` + fn(*o)
//   io.list(key, each, items, more...)   `key <n>`, then each(i, items[i],
//                                        more[i]...) for parallel vectors
//   io.wave(w)                           a trace::Waveform: t0, dt, then the
//                                        samples or their count and SHA-256
//                                        (the writer's TraceForm)
//   io.document(key, version, fn)        the `key v<version>` root; the
//                                        reader checks the version and that
//                                        nothing follows
//
// FrameReader is the strict cursor over the length-prefixed container the
// sweep cache builds around canonical texts (its entries).
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "edc/trace/waveform.h"

namespace edc::canon {

/// Thrown on any deviation from the canonical format (unknown field,
/// wrong order, malformed value, truncation, trailing bytes).
class FormatError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// A record as a walk sees it: one of `Ts`, const when writing.
template <class R, class... Ts>
concept Record = (std::same_as<std::remove_const_t<R>, Ts> || ...);

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

// ---- canonical writer -----------------------------------------------------

/// How a Writer spells a trace::Waveform.
enum class TraceForm {
  /// `t0`, `dt`, `samples <n>` and one line per sample: a self-contained
  /// document, which the Reader reads back.
  samples,
  /// `t0`, `dt`, `count <n>`, `sha256 <64 hex>` (Waveform::digest): a key
  /// that names the samples by content, at a size independent of n. The
  /// Reader rejects it.
  digest,
};

class Writer {
 public:
  explicit Writer(TraceForm traces = TraceForm::samples) : traces_(traces) {}

  void operator()(std::string_view key, double v);
  void operator()(std::string_view key, bool v);
  void operator()(std::string_view key, const std::string& v);
  void operator()(std::string_view key, const std::vector<double>& v);
  template <std::integral T>
  void operator()(std::string_view key, const T& v) {
    line(key, std::to_string(v));
  }
  template <class T>
  void operator()(std::string_view key, const T& v) = delete;

  void section(std::string_view key, auto&& fn) {
    line(key, {});
    nested(fn);
  }
  template <class T>
  void section(std::string_view key, const T& head, auto&& fn) {
    (*this)(key, head);
    nested(fn);
  }

  template <class E, std::size_t N>
  void tag(std::string_view key, const E& v, const char* const (&names)[N]) {
    line(key, name_at(key, static_cast<std::size_t>(v), names, N));
  }

  template <class... Ts>
  void variant(std::string_view key, const std::variant<Ts...>& v,
               const char* const (&names)[sizeof...(Ts)], auto&& visit) {
    line(key, name_at(key, v.index(), names, sizeof...(Ts)));
    nested([&] { std::visit(visit, v); });
  }

  template <class T>
  void optional(std::string_view key, const std::optional<T>& v, std::string_view absent,
                std::string_view present, auto&& fn) {
    line(key, v ? present : absent);
    if (v) nested([&] { fn(*v); });
  }

  template <class V, class... More>
  void list(std::string_view key, auto&& each, const V& items, const More&... more) {
    (*this)(key, items.size());
    nested([&] {
      for (std::size_t i = 0; i < items.size(); ++i) each(i, items[i], more[i]...);
    });
  }

  void wave(const trace::Waveform& w);

  void document(std::string_view key, int version, auto&& fn) {
    line(key, "v" + std::to_string(version));
    nested(fn);
  }

  [[nodiscard]] std::string take() { return std::move(out_); }

 private:
  /// names[index]; throws FormatError when it is out of range or nullptr.
  static std::string_view name_at(std::string_view key, std::size_t index,
                                  const char* const* names, std::size_t count);
  void line(std::string_view key, std::string_view value);
  void nested(auto&& fn) {
    ++depth_;
    fn();
    --depth_;
  }

  TraceForm traces_;
  std::string out_;
  int depth_ = 0;
};

// ---- strict canonical reader ----------------------------------------------

class Reader {
 public:
  /// Splits `text` into lines; every line must end in '\n'. The text must
  /// outlive the reader.
  explicit Reader(std::string_view text);

  void operator()(std::string_view key, double& v);
  void operator()(std::string_view key, bool& v);
  void operator()(std::string_view key, std::string& v);
  void operator()(std::string_view key, std::vector<double>& v);
  template <std::integral T>
  void operator()(std::string_view key, T& v) {
    if constexpr (std::is_signed_v<T>) {
      v = narrow<T>(key, parse_i64(value(key)));
    } else {
      v = narrow<T>(key, parse_u64(value(key)));
    }
  }
  template <class T>
  void operator()(std::string_view key, T& v) = delete;

  void section(std::string_view key, auto&& fn) {
    if (!take(key).empty()) {
      throw FormatError("unexpected value on section '" + std::string(key) + "'");
    }
    nested(fn);
  }
  template <class T>
  void section(std::string_view key, T& head, auto&& fn) {
    (*this)(key, head);
    nested(fn);
  }

  template <class E, std::size_t N>
  void tag(std::string_view key, E& v, const char* const (&names)[N]) {
    v = static_cast<E>(index_of(key, names, N));
  }

  template <class... Ts>
  void variant(std::string_view key, std::variant<Ts...>& v,
               const char* const (&names)[sizeof...(Ts)], auto&& visit) {
    const std::size_t index = index_of(key, names, sizeof...(Ts));
    [&]<std::size_t... I>(std::index_sequence<I...>) {
      ((index == I ? (void)v.template emplace<I>() : void()), ...);
    }(std::index_sequence_for<Ts...>{});
    nested([&] { std::visit(visit, v); });
  }

  template <class T>
  void optional(std::string_view key, std::optional<T>& v, std::string_view absent,
                std::string_view present, auto&& fn) {
    const std::string_view tag = value(key);
    if (tag == present) {
      nested([&] { fn(v.emplace()); });
    } else if (tag == absent) {
      v.reset();
    } else {
      throw FormatError("unknown tag on '" + std::string(key) + "': '" +
                        std::string(tag) + "'");
    }
  }

  template <class V, class... More>
  void list(std::string_view key, auto&& each, V& items, More&... more) {
    const std::size_t count = checked_count(parse_u64(value(key)), lines_left(), key);
    items.clear();
    items.reserve(count);
    (more.clear(), ...);
    (more.reserve(count), ...);
    nested([&] {
      for (std::size_t i = 0; i < count; ++i) {
        each(i, items.emplace_back(), more.emplace_back()...);
      }
    });
  }

  /// Reads the samples form only; a trace in the digest form throws.
  void wave(trace::Waveform& w);

  void document(std::string_view key, int version, auto&& fn) {
    const std::string_view tag = value(key);
    if (tag != "v" + std::to_string(version)) {
      throw FormatError("unsupported " + std::string(key) + " format version: '" +
                        std::string(tag) + "'");
    }
    nested(fn);
    finish();
  }

 private:
  template <class T, class W>
  static T narrow(std::string_view key, W v) {
    if (!std::in_range<T>(v)) out_of_range(key);
    return static_cast<T>(v);
  }
  [[noreturn]] static void out_of_range(std::string_view key);
  std::size_t index_of(std::string_view key, const char* const* names, std::size_t count);
  [[nodiscard]] std::size_t lines_left() const noexcept { return lines_.size() - pos_; }
  void nested(auto&& fn) {
    ++depth_;
    fn();
    --depth_;
  }
  void finish() const;
  std::string_view take(std::string_view key);
  std::string_view value(std::string_view key);
  std::string_view next_line();

  std::vector<std::string_view> lines_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

// ---- length-prefixed framing ---------------------------------------------

/// Appends `key <size>\n` and the raw `bytes` (the block FrameReader reads).
void append_block(std::string& out, std::string_view key, std::string_view bytes);

/// Strict cursor over a container of '\n'-terminated header lines and
/// length-prefixed raw blocks. Every view points into the bytes passed to
/// the constructor, which must outlive the reader.
class FrameReader {
 public:
  explicit FrameReader(std::string_view bytes) : bytes_(bytes) {}

  /// The next line, without its '\n'.
  std::string_view line();
  /// The value of the next line, which must read `key <value>`.
  std::string_view value(std::string_view key);
  /// A `key <n>` line and the n raw bytes after it.
  std::string_view block(std::string_view key);
  /// Lines ('\n' bytes) not yet consumed.
  [[nodiscard]] std::size_t lines_left() const noexcept;
  /// Throws unless every byte has been consumed.
  void finish() const;

 private:
  std::string_view bytes_;
  std::size_t pos_ = 0;
};

}  // namespace edc::canon
