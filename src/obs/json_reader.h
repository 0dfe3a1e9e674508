// Minimal JSON reader, the counterpart of json_writer.h.
//
// The sweep engine persists its result cache as a JSON manifest and must
// read it back on resume; like the writer, the reader avoids third-party
// dependencies. It parses a complete document into a small DOM. Numbers
// keep their raw token text so integer values up to the full uint64 range
// survive (coercing through an IEEE double would lose the high bits of a
// 64-bit digest) and doubles round-trip the writer's %.17g output exactly.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace raidrel::obs {

/// One parsed JSON value. Object members keep insertion order.
class JsonValue {
 public:
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_null() const noexcept { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_object() const noexcept {
    return kind_ == Kind::kObject;
  }
  [[nodiscard]] bool is_array() const noexcept { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_number() const noexcept {
    return kind_ == Kind::kNumber;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return kind_ == Kind::kString;
  }

  /// Scalar accessors; throw ModelError on a kind mismatch or (for the
  /// integer forms) when the raw token is not an integer of that range.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] std::int64_t as_int64() const;
  [[nodiscard]] std::uint64_t as_uint64() const;
  [[nodiscard]] const std::string& as_string() const;

  /// Array access.
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] const JsonValue& at(std::size_t i) const;
  [[nodiscard]] const std::vector<JsonValue>& items() const;

  /// Object access: `find` returns nullptr when absent, `get` throws.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
  [[nodiscard]] const JsonValue& get(std::string_view key) const;

 private:
  friend class JsonParser;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  /// String payload, or the raw number token ("1.5e-3", "18446744073709551615").
  std::string text_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

/// Parse one complete JSON document (trailing whitespace allowed, anything
/// else after the root value is an error). Throws ModelError on malformed
/// input.
JsonValue parse_json(std::string_view text);

}  // namespace raidrel::obs
