#include "util/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace evm::util {

namespace {

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_number(std::string& out, double n) {
  if (!std::isfinite(n)) {
    out += "null";
    return;
  }
  // Integers print without a fraction so counts stay readable.
  if (n == std::floor(n) && std::fabs(n) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", n);
    out += buf;
    return;
  }
  // Shortest decimal that parses back to the same double. Exact round-trip
  // matters: shard merges recompute campaign aggregates from re-parsed
  // per-run values, and those must be bit-identical to the doubles the full
  // campaign aggregated in memory or merged reports drift in the last ulp.
  char buf[40];
  const auto res = std::to_chars(buf, buf + sizeof(buf), n);
  out.append(buf, res.ptr);
}

/// Recursive-descent JSON parser over a byte string. Not a streaming
/// parser; specs and reports are small.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Result<Json> parse_document() {
    skip_ws();
    Json value;
    Status status = parse_value(value, 0);
    if (!status) return status;
    skip_ws();
    if (pos_ != text_.size()) return error("trailing characters after document");
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status parse_value(Json& out, int depth) {
    if (depth > kMaxDepth) return error("nesting too deep");
    skip_ws();
    if (pos_ >= text_.size()) return error("unexpected end of input");
    switch (text_[pos_]) {
      case '{': return parse_object(out, depth);
      case '[': return parse_array(out, depth);
      case '"': return parse_string_value(out);
      case 't': return parse_literal("true", Json(true), out);
      case 'f': return parse_literal("false", Json(false), out);
      case 'n': return parse_literal("null", Json(), out);
      default: return parse_number(out);
    }
  }

  Status parse_object(Json& out, int depth) {
    ++pos_;  // '{'
    out = Json::object();
    skip_ws();
    if (peek() == '}') { ++pos_; return Status::ok(); }
    while (true) {
      skip_ws();
      if (peek() != '"') return error("expected object key string");
      std::string key;
      Status status = parse_string(key);
      if (!status) return status;
      skip_ws();
      if (peek() != ':') return error("expected ':' after object key");
      ++pos_;
      Json value;
      status = parse_value(value, depth + 1);
      if (!status) return status;
      out.set(key, std::move(value));
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return Status::ok(); }
      return error("expected ',' or '}' in object");
    }
  }

  Status parse_array(Json& out, int depth) {
    ++pos_;  // '['
    out = Json::array();
    skip_ws();
    if (peek() == ']') { ++pos_; return Status::ok(); }
    while (true) {
      Json value;
      Status status = parse_value(value, depth + 1);
      if (!status) return status;
      out.push(std::move(value));
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return Status::ok(); }
      return error("expected ',' or ']' in array");
    }
  }

  Status parse_string_value(Json& out) {
    std::string s;
    Status status = parse_string(s);
    if (!status) return status;
    out = Json(std::move(s));
    return Status::ok();
  }

  Status parse_string(std::string& out) {
    ++pos_;  // opening quote
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') { ++pos_; return Status::ok(); }
      if (static_cast<unsigned char>(c) < 0x20) return error("raw control character in string");
      if (static_cast<unsigned char>(c) >= 0x80) {
        // Raw multi-byte sequences must be valid UTF-8 (JSON documents are
        // UTF-8 by definition); the error points at the offending lead byte.
        if (!consume_utf8(out)) return error("invalid UTF-8 byte in string");
        continue;
      }
      if (c != '\\') { out += c; ++pos_; continue; }
      ++pos_;
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned cp = 0;
          if (!parse_hex4(cp)) return error("bad \\u escape");
          // Surrogate pair: combine when a low surrogate follows.
          if (cp >= 0xD800 && cp <= 0xDBFF && pos_ + 1 < text_.size() &&
              text_[pos_] == '\\' && text_[pos_ + 1] == 'u') {
            const std::size_t save = pos_;
            pos_ += 2;
            unsigned low = 0;
            if (parse_hex4(low) && low >= 0xDC00 && low <= 0xDFFF) {
              cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
            } else {
              pos_ = save;  // lone high surrogate; emit replacement below
            }
          }
          append_utf8(out, cp);
          break;
        }
        default: return error("unknown escape character");
      }
    }
    return error("unterminated string");
  }

  /// Validate and copy one raw UTF-8 sequence starting at pos_. On failure
  /// pos_ is left on the offending lead byte so the reported offset is
  /// exact. Enforces the well-formed table of Unicode 15 §3.9: lead range
  /// 0xC2..0xF4 (0xC0/0xC1 overlongs excluded), tightened second-byte
  /// ranges for 0xE0/0xED/0xF0/0xF4 (no overlongs, no surrogates, nothing
  /// above U+10FFFF), plain 0x80..0xBF continuations elsewhere.
  bool consume_utf8(std::string& out) {
    const unsigned char lead = static_cast<unsigned char>(text_[pos_]);
    std::size_t continuation = 0;
    unsigned char second_lo = 0x80, second_hi = 0xBF;
    if (lead >= 0xC2 && lead <= 0xDF) {
      continuation = 1;
    } else if (lead == 0xE0) {
      continuation = 2; second_lo = 0xA0;  // exclude overlong < U+0800
    } else if (lead == 0xED) {
      continuation = 2; second_hi = 0x9F;  // exclude surrogates U+D800..DFFF
    } else if (lead >= 0xE1 && lead <= 0xEF) {
      continuation = 2;
    } else if (lead == 0xF0) {
      continuation = 3; second_lo = 0x90;  // exclude overlong < U+10000
    } else if (lead == 0xF4) {
      continuation = 3; second_hi = 0x8F;  // exclude > U+10FFFF
    } else if (lead >= 0xF1 && lead <= 0xF3) {
      continuation = 3;
    } else {
      return false;  // stray continuation byte or invalid lead
    }
    if (pos_ + continuation >= text_.size()) return false;
    const unsigned char second = static_cast<unsigned char>(text_[pos_ + 1]);
    if (second < second_lo || second > second_hi) return false;
    for (std::size_t i = 2; i <= continuation; ++i) {
      const unsigned char byte = static_cast<unsigned char>(text_[pos_ + i]);
      if (byte < 0x80 || byte > 0xBF) return false;
    }
    out.append(text_, pos_, continuation + 1);
    pos_ += continuation + 1;
    return true;
  }

  bool parse_hex4(unsigned& out) {
    if (pos_ + 4 > text_.size()) return false;
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      out <<= 4;
      if (c >= '0' && c <= '9') out |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') out |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') out |= static_cast<unsigned>(c - 'A' + 10);
      else return false;
    }
    return true;
  }

  static void append_utf8(std::string& out, unsigned cp) {
    if (cp >= 0xD800 && cp <= 0xDFFF) cp = 0xFFFD;  // lone surrogate
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  Status parse_number(Json& out) {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return error("expected a value");
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == token.c_str() || *end != '\0') {
      pos_ = start;
      return error("malformed number");
    }
    out = Json(value);
    return Status::ok();
  }

  Status parse_literal(const char* literal, Json value, Json& out) {
    const std::size_t len = std::string(literal).size();
    if (text_.compare(pos_, len, literal) != 0) return error("unknown literal");
    pos_ += len;
    out = std::move(value);
    return Status::ok();
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') ++pos_;
      else break;
    }
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  Status error(const std::string& what) const {
    return Status::invalid_argument("JSON parse error at byte " +
                                    std::to_string(pos_) + ": " + what);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

Json& Json::set(const std::string& key, Json value) {
  kind_ = Kind::kObject;
  for (auto& [k, v] : members_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  members_.emplace_back(key, std::move(value));
  return *this;
}

Json& Json::push(Json value) {
  kind_ = Kind::kArray;
  elements_.push_back(std::move(value));
  return *this;
}

std::size_t Json::size() const {
  if (kind_ == Kind::kObject) return members_.size();
  if (kind_ == Kind::kArray) return elements_.size();
  return 0;
}

bool Json::as_bool(bool fallback) const {
  return kind_ == Kind::kBool ? bool_ : fallback;
}

double Json::as_double(double fallback) const {
  return kind_ == Kind::kNumber ? number_ : fallback;
}

std::int64_t Json::as_int(std::int64_t fallback) const {
  if (kind_ != Kind::kNumber) return fallback;
  return static_cast<std::int64_t>(number_);
}

std::string Json::as_string(const std::string& fallback) const {
  return kind_ == Kind::kString ? string_ : fallback;
}

const Json* Json::find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Json& Json::at(std::size_t i) const {
  static const Json kNullValue;
  if (kind_ != Kind::kArray || i >= elements_.size()) return kNullValue;
  return elements_[i];
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent);
  return out;
}

std::string Json::dump_compact() const {
  std::string out;
  dump_compact_to(out);
  return out;
}

std::string Json::escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  append_escaped(out, s);
  return out;
}

void Json::dump_compact_to(std::string& out) const {
  switch (kind_) {
    case Kind::kNull: out += "null"; break;
    case Kind::kBool: out += bool_ ? "true" : "false"; break;
    case Kind::kNumber: append_number(out, number_); break;
    case Kind::kString: append_escaped(out, string_); break;
    case Kind::kObject: {
      out += '{';
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i > 0) out += ',';
        append_escaped(out, members_[i].first);
        out += ':';
        members_[i].second.dump_compact_to(out);
      }
      out += '}';
      break;
    }
    case Kind::kArray: {
      out += '[';
      for (std::size_t i = 0; i < elements_.size(); ++i) {
        if (i > 0) out += ',';
        elements_[i].dump_compact_to(out);
      }
      out += ']';
      break;
    }
  }
}

void Json::dump_to(std::string& out, int indent) const {
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  const std::string inner_pad(static_cast<std::size_t>(indent + 1) * 2, ' ');
  switch (kind_) {
    case Kind::kNull: out += "null"; break;
    case Kind::kBool: out += bool_ ? "true" : "false"; break;
    case Kind::kNumber: append_number(out, number_); break;
    case Kind::kString: append_escaped(out, string_); break;
    case Kind::kObject: {
      if (members_.empty()) {
        out += "{}";
        break;
      }
      out += "{\n";
      for (std::size_t i = 0; i < members_.size(); ++i) {
        out += inner_pad;
        append_escaped(out, members_[i].first);
        out += ": ";
        members_[i].second.dump_to(out, indent + 1);
        if (i + 1 < members_.size()) out += ',';
        out += '\n';
      }
      out += pad + "}";
      break;
    }
    case Kind::kArray: {
      if (elements_.empty()) {
        out += "[]";
        break;
      }
      out += "[\n";
      for (std::size_t i = 0; i < elements_.size(); ++i) {
        out += inner_pad;
        elements_[i].dump_to(out, indent + 1);
        if (i + 1 < elements_.size()) out += ',';
        out += '\n';
      }
      out += pad + "]";
      break;
    }
  }
}

Result<Json> Json::parse(const std::string& text) {
  Parser parser(text);
  return parser.parse_document();
}

Result<Json> load_json_file(const std::string& path) {
  // An ifstream opens a directory and then reads nothing, which would
  // surface as a parse error at byte 0.
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec)) {
    return Status::invalid_argument(path + " is a directory, not a JSON file");
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::not_found("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  auto parsed = Json::parse(buffer.str());
  if (!parsed) {
    return Status::invalid_argument(path + ": " + parsed.status().message());
  }
  return parsed;
}

Status check_keys(const Json& obj, std::string_view known,
                  const std::string& section) {
  std::string padded = " ";
  padded += known;
  padded += ' ';
  for (const auto& [key, value] : obj.members()) {
    (void)value;
    if (padded.find(' ' + key + ' ') == std::string::npos) {
      return Status::invalid_argument("unknown key '" + key + "' in " + section);
    }
  }
  return Status::ok();
}

std::optional<std::int64_t> as_integer(const Json& v, std::int64_t min,
                                       std::int64_t max) {
  if (!v.is_number()) return std::nullopt;
  const double d = v.as_double();
  if (!(d >= static_cast<double>(min) && d <= static_cast<double>(max)) ||
      d != std::floor(d)) {
    return std::nullopt;
  }
  return static_cast<std::int64_t>(d);
}

}  // namespace evm::util
