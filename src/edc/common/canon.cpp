#include "edc/common/canon.h"

#include <charconv>
#include <limits>

namespace edc::canon {

// ---- scalar <-> text ------------------------------------------------------

std::string double_text(double v) {
  char buffer[64];
  const auto [ptr, ec] = std::to_chars(buffer, buffer + sizeof(buffer), v);
  if (ec != std::errc{}) throw FormatError("double_text: to_chars failed");
  return std::string(buffer, ptr);
}

double parse_double(std::string_view text) {
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    throw FormatError("malformed number: '" + std::string(text) + "'");
  }
  return v;
}

std::uint64_t parse_u64(std::string_view text) {
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    throw FormatError("malformed unsigned integer: '" + std::string(text) + "'");
  }
  return v;
}

std::int64_t parse_i64(std::string_view text) {
  std::int64_t v = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    throw FormatError("malformed integer: '" + std::string(text) + "'");
  }
  return v;
}

std::size_t checked_count(std::uint64_t count, std::size_t lines_left,
                          std::string_view key) {
  if (count > lines_left) {
    throw FormatError("count " + std::to_string(count) + " on '" + std::string(key) +
                      "' exceeds the " + std::to_string(lines_left) + " lines left");
  }
  return static_cast<std::size_t>(count);
}

// ---- string escaping ------------------------------------------------------

std::string quote(std::string_view raw) {
  std::string out = "\"";
  for (unsigned char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20 || c == 0x7f) {
          const char hex[] = "0123456789abcdef";
          out += "\\x";
          out += hex[c >> 4];
          out += hex[c & 0xf];
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  out += '"';
  return out;
}

namespace {

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  throw FormatError("malformed \\x escape in string");
}

}  // namespace

std::string unquote(std::string_view text) {
  if (text.size() < 2 || text.front() != '"' || text.back() != '"') {
    throw FormatError("malformed string: '" + std::string(text) + "'");
  }
  std::string out;
  for (std::size_t i = 1; i + 1 < text.size(); ++i) {
    char c = text[i];
    if (c != '\\') {
      out += c;
      continue;
    }
    if (i + 2 >= text.size()) throw FormatError("truncated escape in string");
    c = text[++i];
    switch (c) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'x': {
        if (i + 2 >= text.size()) throw FormatError("truncated \\x escape");
        const int hi = hex_digit(text[i + 1]);
        const int lo = hex_digit(text[i + 2]);
        i += 2;
        out += static_cast<char>((hi << 4) | lo);
        break;
      }
      default:
        throw FormatError("unknown escape in string");
    }
  }
  return out;
}

// ---- Writer ---------------------------------------------------------------

void Writer::begin(std::string_view key, std::string_view tag) {
  open(key, tag);
  ++depth_;
}

void Writer::end() { --depth_; }

void Writer::field(std::string_view key, double v) { open(key, double_text(v)); }
void Writer::field(std::string_view key, std::uint64_t v) {
  open(key, std::to_string(v));
}
void Writer::field(std::string_view key, int v) { open(key, std::to_string(v)); }
void Writer::field(std::string_view key, bool v) { open(key, v ? "1" : "0"); }
void Writer::field_size(std::string_view key, std::size_t v) {
  open(key, std::to_string(v));
}
void Writer::field_string(std::string_view key, std::string_view v) {
  open(key, quote(v));
}
void Writer::bare(double v) { open(double_text(v), {}); }

std::string Writer::take() { return std::move(out_); }

void Writer::open(std::string_view key, std::string_view value) {
  out_.append(static_cast<std::size_t>(2 * depth_), ' ');
  out_.append(key);
  if (!value.empty()) {
    out_ += ' ';
    out_.append(value);
  }
  out_ += '\n';
}

// ---- Reader ---------------------------------------------------------------

Reader::Reader(const std::string& text) {
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) {
      throw FormatError("missing trailing newline on last line");
    }
    lines_.push_back(std::string_view(text).substr(start, end - start));
    start = end + 1;
  }
}

std::string_view Reader::take(std::string_view key) {
  const std::string_view rest = next_line();
  if (rest.substr(0, key.size()) != key) {
    throw FormatError("expected field '" + std::string(key) + "', found '" +
                      std::string(rest) + "'");
  }
  std::string_view value = rest.substr(key.size());
  if (!value.empty()) {
    if (value.front() != ' ') {
      throw FormatError("expected field '" + std::string(key) + "', found '" +
                        std::string(rest) + "'");
    }
    value.remove_prefix(1);
    if (value.empty() || value.find(' ') != std::string_view::npos) {
      throw FormatError("malformed value on field '" + std::string(key) + "'");
    }
  }
  return value;
}

void Reader::begin(std::string_view key) {
  const std::string_view value = take(key);
  if (!value.empty()) {
    throw FormatError("unexpected value on section '" + std::string(key) + "'");
  }
  ++depth_;
}

std::string_view Reader::begin_tagged(std::string_view key) {
  const std::string_view tag = take(key);
  if (tag.empty()) {
    throw FormatError("missing variant tag on '" + std::string(key) + "'");
  }
  ++depth_;
  return tag;
}

std::size_t Reader::begin_counted(std::string_view key) {
  const std::uint64_t count = parse_u64(begin_tagged(key));
  return checked_count(count, lines_.size() - pos_, key);
}

void Reader::end() { --depth_; }

double Reader::number(std::string_view key) { return parse_double(require_value(key)); }
std::uint64_t Reader::u64(std::string_view key) { return parse_u64(require_value(key)); }
int Reader::integer(std::string_view key) {
  const std::int64_t v = parse_i64(require_value(key));
  if (v < std::numeric_limits<int>::min() || v > std::numeric_limits<int>::max()) {
    throw FormatError("integer out of range on field '" + std::string(key) + "'");
  }
  return static_cast<int>(v);
}

bool Reader::boolean(std::string_view key) {
  const std::string_view v = require_value(key);
  if (v == "1") return true;
  if (v == "0") return false;
  throw FormatError("malformed boolean on field '" + std::string(key) + "'");
}

std::size_t Reader::size_value(std::string_view key) {
  return static_cast<std::size_t>(parse_u64(require_value(key)));
}

std::string_view Reader::tag(std::string_view key) { return require_value(key); }

std::string Reader::text(std::string_view key) {
  // Strings may contain spaces, so bypass the single-token check in take().
  const std::string_view rest = next_line();
  if (rest.substr(0, key.size()) != key || rest.size() <= key.size() ||
      rest[key.size()] != ' ') {
    throw FormatError("expected string field '" + std::string(key) + "'");
  }
  return unquote(rest.substr(key.size() + 1));
}

double Reader::bare_number() { return parse_double(next_line()); }

void Reader::finish() const {
  if (pos_ != lines_.size()) {
    throw FormatError("trailing content: '" + std::string(lines_[pos_]) + "'");
  }
}

std::string_view Reader::require_value(std::string_view key) {
  const std::string_view value = take(key);
  if (value.empty()) {
    throw FormatError("missing value on field '" + std::string(key) + "'");
  }
  return value;
}

std::string_view Reader::next_line() {
  if (pos_ >= lines_.size()) throw FormatError("unexpected end of text");
  std::string_view line = lines_[pos_++];
  const std::size_t indent = static_cast<std::size_t>(2 * depth_);
  if (line.size() <= indent ||
      line.substr(0, indent).find_first_not_of(' ') != std::string_view::npos ||
      line[indent] == ' ') {
    throw FormatError("bad indentation at line: '" + std::string(line) + "'");
  }
  return line.substr(indent);
}

}  // namespace edc::canon
