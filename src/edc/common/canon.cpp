#include "edc/common/canon.h"

#include <algorithm>
#include <charconv>

namespace edc::canon {

namespace {

/// Shortest round-trip form of `v` in `buffer` (no allocation).
std::string_view double_chars(char (&buffer)[32], double v) {
  const auto [ptr, ec] = std::to_chars(buffer, buffer + sizeof(buffer), v);
  if (ec != std::errc{}) throw FormatError("double_text: to_chars failed");
  return {buffer, static_cast<std::size_t>(ptr - buffer)};
}

/// C-style quoting for arbitrary byte strings (\" \\ \n \r \t, \xHH for
/// other control bytes).
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

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  throw FormatError("malformed \\x escape in string");
}

/// Inverse of quote().
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

template <class T>
T parse_number(std::string_view text, const char* what) {
  T v{};
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    throw FormatError("malformed " + std::string(what) + ": '" + std::string(text) + "'");
  }
  return v;
}

}  // namespace

// ---- scalar <-> text ------------------------------------------------------

std::string double_text(double v) {
  char buffer[32];
  return std::string(double_chars(buffer, v));
}

double parse_double(std::string_view text) {
  return parse_number<double>(text, "number");
}

std::uint64_t parse_u64(std::string_view text) {
  return parse_number<std::uint64_t>(text, "unsigned integer");
}

std::int64_t parse_i64(std::string_view text) {
  return parse_number<std::int64_t>(text, "integer");
}

std::size_t checked_count(std::uint64_t count, std::size_t lines_left,
                          std::string_view key) {
  if (count > lines_left) {
    throw FormatError("count " + std::to_string(count) + " on '" + std::string(key) +
                      "' exceeds the " + std::to_string(lines_left) + " lines left");
  }
  return static_cast<std::size_t>(count);
}

// ---- Writer ---------------------------------------------------------------

void Writer::operator()(std::string_view key, double v) {
  char buffer[32];
  line(key, double_chars(buffer, v));
}

void Writer::operator()(std::string_view key, bool v) { line(key, v ? "1" : "0"); }

void Writer::operator()(std::string_view key, const std::string& v) {
  line(key, quote(v));
}

void Writer::operator()(std::string_view key, const std::vector<double>& v) {
  (*this)(key, v.size());
  const std::size_t indent = static_cast<std::size_t>(2 * (depth_ + 1));
  char buffer[32];
  for (double sample : v) {
    out_.append(indent, ' ');
    out_.append(double_chars(buffer, sample));
    out_ += '\n';
  }
}

void Writer::wave(const trace::Waveform& w) {
  (*this)("t0", w.t0());
  (*this)("dt", w.dt());
  if (traces_ == TraceForm::digest) {
    (*this)("count", w.size());
    line("sha256", w.digest());
  } else {
    (*this)("samples", w.samples());
  }
}

std::string_view Writer::name_at(std::string_view key, std::size_t index,
                                 const char* const* names, std::size_t count) {
  if (index >= count || names[index] == nullptr) {
    throw FormatError("value of '" + std::string(key) + "' is not serializable");
  }
  return names[index];
}

void Writer::line(std::string_view key, std::string_view value) {
  out_.append(static_cast<std::size_t>(2 * depth_), ' ');
  out_.append(key);
  if (!value.empty()) {
    out_ += ' ';
    out_.append(value);
  }
  out_ += '\n';
}

// ---- Reader ---------------------------------------------------------------

Reader::Reader(std::string_view text) {
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) {
      throw FormatError("missing trailing newline on last line");
    }
    lines_.push_back(text.substr(start, end - start));
    start = end + 1;
  }
}

void Reader::operator()(std::string_view key, double& v) { v = parse_double(value(key)); }

void Reader::operator()(std::string_view key, bool& v) {
  const std::string_view text = value(key);
  if (text != "1" && text != "0") {
    throw FormatError("malformed boolean on field '" + std::string(key) + "'");
  }
  v = text == "1";
}

void Reader::operator()(std::string_view key, std::string& v) {
  // Strings may contain spaces, so bypass the single-token check in take().
  const std::string_view rest = next_line();
  if (rest.substr(0, key.size()) != key || rest.size() <= key.size() ||
      rest[key.size()] != ' ') {
    throw FormatError("expected string field '" + std::string(key) + "'");
  }
  v = unquote(rest.substr(key.size() + 1));
}

void Reader::operator()(std::string_view key, std::vector<double>& v) {
  const std::size_t count = checked_count(parse_u64(value(key)), lines_left(), key);
  v.clear();
  v.reserve(count);
  nested([&] {
    for (std::size_t i = 0; i < count; ++i) v.push_back(parse_double(next_line()));
  });
}

void Reader::wave(trace::Waveform& w) {
  double t0 = 0.0;
  double dt = 0.0;
  std::vector<double> samples;
  (*this)("t0", t0);
  (*this)("dt", dt);
  const std::string_view next = pos_ < lines_.size() ? lines_[pos_] : "";
  const std::string_view field =
      next.substr(std::min(next.size(), static_cast<std::size_t>(2 * depth_)));
  if (field.starts_with("count ") || field.starts_with("sha256 ")) {
    throw FormatError(
        "trace named by count and sha256, not by its samples: a cache key is not "
        "a spec document (spec::document writes one)");
  }
  (*this)("samples", samples);
  if (samples.size() >= 2 && !(dt > 0.0)) {
    throw FormatError("waveform sample spacing must be positive");
  }
  w = trace::Waveform(t0, dt, std::move(samples));
}

void Reader::out_of_range(std::string_view key) {
  throw FormatError("integer out of range on field '" + std::string(key) + "'");
}

std::size_t Reader::index_of(std::string_view key, const char* const* names,
                             std::size_t count) {
  const std::string_view tag = value(key);
  for (std::size_t i = 0; i < count; ++i) {
    if (names[i] != nullptr && tag == names[i]) return i;
  }
  throw FormatError("unknown tag on '" + std::string(key) + "': '" + std::string(tag) +
                    "'");
}

void Reader::finish() const {
  if (pos_ != lines_.size()) {
    throw FormatError("trailing content: '" + std::string(lines_[pos_]) + "'");
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

std::string_view Reader::value(std::string_view key) {
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

// ---- length-prefixed framing ---------------------------------------------

void append_block(std::string& out, std::string_view key, std::string_view bytes) {
  out.append(key);
  out += ' ';
  out += std::to_string(bytes.size());
  out += '\n';
  out.append(bytes);
}

std::string_view FrameReader::line() {
  const std::size_t end = bytes_.find('\n', pos_);
  if (end == std::string_view::npos) throw FormatError("truncated: missing newline");
  const std::string_view line = bytes_.substr(pos_, end - pos_);
  pos_ = end + 1;
  return line;
}

std::string_view FrameReader::value(std::string_view key) {
  const std::string_view text = line();
  if (text.size() <= key.size() || text.substr(0, key.size()) != key ||
      text[key.size()] != ' ') {
    throw FormatError("expected '" + std::string(key) + " <value>', found '" +
                      std::string(text) + "'");
  }
  return text.substr(key.size() + 1);
}

std::string_view FrameReader::block(std::string_view key) {
  const std::uint64_t length = parse_u64(value(key));
  if (length > bytes_.size() - pos_) {
    throw FormatError("truncated block '" + std::string(key) + "': " +
                      std::to_string(length) + " bytes declared, " +
                      std::to_string(bytes_.size() - pos_) + " left");
  }
  const std::string_view block = bytes_.substr(pos_, static_cast<std::size_t>(length));
  pos_ += block.size();
  return block;
}

std::size_t FrameReader::lines_left() const noexcept {
  const std::string_view rest = bytes_.substr(pos_);
  return static_cast<std::size_t>(std::count(rest.begin(), rest.end(), '\n'));
}

void FrameReader::finish() const {
  if (pos_ != bytes_.size()) {
    throw FormatError("trailing bytes after the last block");
  }
}

}  // namespace edc::canon
