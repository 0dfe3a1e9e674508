#include "obs/json_reader.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "util/error.h"

namespace raidrel::obs {

bool JsonValue::as_bool() const {
  RAIDREL_REQUIRE(kind_ == Kind::kBool, "JSON value is not a boolean");
  return bool_;
}

double JsonValue::as_double() const {
  RAIDREL_REQUIRE(kind_ == Kind::kNumber, "JSON value is not a number");
  char* end = nullptr;
  const double v = std::strtod(text_.c_str(), &end);
  RAIDREL_REQUIRE(end != text_.c_str() && *end == '\0',
                  "malformed JSON number token");
  // A token like 1e999 parses but overflows to infinity; a manifest field
  // that silently becomes non-finite would poison every downstream digest
  // comparison, so reject it here. (Subnormals are finite and pass.)
  RAIDREL_REQUIRE(std::isfinite(v),
                  "JSON number overflows double: " + text_);
  return v;
}

std::int64_t JsonValue::as_int64() const {
  RAIDREL_REQUIRE(kind_ == Kind::kNumber, "JSON value is not a number");
  char* end = nullptr;
  errno = 0;
  const std::int64_t v = std::strtoll(text_.c_str(), &end, 10);
  RAIDREL_REQUIRE(end != text_.c_str() && *end == '\0' && errno != ERANGE,
                  "JSON number is not a 64-bit integer");
  return v;
}

std::uint64_t JsonValue::as_uint64() const {
  RAIDREL_REQUIRE(kind_ == Kind::kNumber, "JSON value is not a number");
  RAIDREL_REQUIRE(!text_.empty() && text_[0] != '-',
                  "JSON number is negative, expected unsigned");
  char* end = nullptr;
  errno = 0;
  const std::uint64_t v = std::strtoull(text_.c_str(), &end, 10);
  RAIDREL_REQUIRE(end != text_.c_str() && *end == '\0' && errno != ERANGE,
                  "JSON number is not an unsigned 64-bit integer");
  return v;
}

const std::string& JsonValue::as_string() const {
  RAIDREL_REQUIRE(kind_ == Kind::kString, "JSON value is not a string");
  return text_;
}

std::size_t JsonValue::size() const {
  RAIDREL_REQUIRE(kind_ == Kind::kArray, "JSON value is not an array");
  return array_.size();
}

const JsonValue& JsonValue::at(std::size_t i) const {
  RAIDREL_REQUIRE(kind_ == Kind::kArray, "JSON value is not an array");
  RAIDREL_REQUIRE(i < array_.size(), "JSON array index out of range");
  return array_[i];
}

const std::vector<JsonValue>& JsonValue::items() const {
  RAIDREL_REQUIRE(kind_ == Kind::kArray, "JSON value is not an array");
  return array_;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  RAIDREL_REQUIRE(kind_ == Kind::kObject, "JSON value is not an object");
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue& JsonValue::get(std::string_view key) const {
  const JsonValue* v = find(key);
  RAIDREL_REQUIRE(v != nullptr,
                  "JSON object is missing key \"" + std::string(key) + "\"");
  return *v;
}

/// Recursive-descent parser over the input span. Depth is bounded to keep
/// adversarial inputs from exhausting the stack.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue root = parse_value(0);
    skip_whitespace();
    RAIDREL_REQUIRE(pos_ == text_.size(),
                    "trailing characters after the JSON document");
    return root;
  }

 private:
  static constexpr int kMaxDepth = 64;

  [[noreturn]] void fail(const std::string& what) const {
    throw ModelError("JSON parse error at offset " + std::to_string(pos_) +
                     ": " + what);
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skip_whitespace();
    const char c = peek();
    switch (c) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': {
        JsonValue v;
        v.kind_ = JsonValue::Kind::kString;
        v.text_ = parse_string();
        return v;
      }
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return make_bool(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return make_bool(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return JsonValue{};
      default: return parse_number();
    }
  }

  static JsonValue make_bool(bool b) {
    JsonValue v;
    v.kind_ = JsonValue::Kind::kBool;
    v.bool_ = b;
    return v;
  }

  JsonValue parse_object(int depth) {
    expect('{');
    JsonValue v;
    v.kind_ = JsonValue::Kind::kObject;
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_whitespace();
      std::string key = parse_string();
      // Duplicate keys are legal JSON but always a bug in our manifests
      // (the writer never emits them); accepting one would let find()/get()
      // silently return the first of two conflicting values.
      for (const auto& [existing, unused] : v.object_) {
        if (existing == key) fail("duplicate object key \"" + key + '"');
      }
      skip_whitespace();
      expect(':');
      v.object_.emplace_back(std::move(key), parse_value(depth + 1));
      skip_whitespace();
      const char c = peek();
      ++pos_;
      if (c == '}') return v;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  JsonValue parse_array(int depth) {
    expect('[');
    JsonValue v;
    v.kind_ = JsonValue::Kind::kArray;
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array_.push_back(parse_value(depth + 1));
      skip_whitespace();
      const char c = peek();
      ++pos_;
      if (c == ']') return v;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
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
        case 'u': append_unicode_escape(out); break;
        default: fail("unknown escape sequence");
      }
    }
  }

  void append_unicode_escape(std::string& out) {
    unsigned cp = 0;
    for (int i = 0; i < 4; ++i) {
      if (pos_ >= text_.size()) fail("truncated \\u escape");
      const char c = text_[pos_++];
      cp <<= 4;
      if (c >= '0' && c <= '9') {
        cp |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        cp |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        cp |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("bad hex digit in \\u escape");
      }
    }
    // Surrogate pairs never appear in our manifests (the writer only
    // \u-escapes control characters); reject rather than mis-decode.
    if (cp >= 0xD800 && cp <= 0xDFFF) fail("surrogate \\u escape unsupported");
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    auto digits = [&] {
      std::size_t n = 0;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        ++n;
      }
      return n;
    };
    if (digits() == 0) fail("expected a number");
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (digits() == 0) fail("expected digits after decimal point");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (digits() == 0) fail("expected exponent digits");
    }
    JsonValue v;
    v.kind_ = JsonValue::Kind::kNumber;
    v.text_ = std::string(text_.substr(start, pos_ - start));
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

JsonValue parse_json(std::string_view text) {
  return JsonParser(text).parse_document();
}

}  // namespace raidrel::obs
