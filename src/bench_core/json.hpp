// Minimal JSON document model for the benchmark runner: enough to emit
// the BENCH_*.json result files deterministically (insertion-ordered
// object keys, shortest-round-trip number formatting, full string
// escaping) plus a small parser so tests can round-trip what the writer
// produced. Not a general-purpose JSON library.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mpciot::bench_core {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kInt, kUint, kDouble, kString, kArray, kObject };

  using Array = std::vector<JsonValue>;
  /// Insertion-ordered: emission order is the order keys were set, so
  /// output bytes never depend on hashing or locale.
  using Object = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() : kind_(Kind::kNull) {}
  JsonValue(bool b) : kind_(Kind::kBool), bool_(b) {}
  JsonValue(std::int64_t v) : kind_(Kind::kInt), int_(v) {}
  JsonValue(std::uint64_t v) : kind_(Kind::kUint), uint_(v) {}
  JsonValue(int v) : kind_(Kind::kInt), int_(v) {}
  JsonValue(unsigned v) : kind_(Kind::kUint), uint_(v) {}
  JsonValue(double v) : kind_(Kind::kDouble), double_(v) {}
  JsonValue(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}
  JsonValue(const char* s) : kind_(Kind::kString), string_(s) {}

  static JsonValue array() {
    JsonValue v;
    v.kind_ = Kind::kArray;
    return v;
  }
  static JsonValue object() {
    JsonValue v;
    v.kind_ = Kind::kObject;
    return v;
  }

  Kind kind() const { return kind_; }
  bool is_number() const {
    return kind_ == Kind::kInt || kind_ == Kind::kUint ||
           kind_ == Kind::kDouble;
  }

  bool as_bool() const { return bool_; }
  /// Numeric value widened to double (valid for any number kind).
  double as_double() const;
  std::int64_t as_int() const { return int_; }
  std::uint64_t as_uint() const { return uint_; }
  const std::string& as_string() const { return string_; }
  const Array& as_array() const { return array_; }
  Array& as_array() { return array_; }
  const Object& as_object() const { return object_; }

  /// Array append (value must be an array).
  void push_back(JsonValue v);
  /// Object set: overwrites an existing key in place, appends otherwise
  /// (value must be an object).
  void set(std::string_view key, JsonValue v);
  /// Object lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;

  /// Serialize. `indent` = 0 emits compact single-line JSON; > 0 emits
  /// pretty-printed output with that many spaces per level. Output is a
  /// pure function of the value tree (deterministic across platforms).
  void dump(std::ostream& os, int indent = 0) const;
  std::string dump_string(int indent = 0) const;

  /// Structural equality; numbers compare by widened double value.
  friend bool operator==(const JsonValue& a, const JsonValue& b);

 private:
  void dump_impl(std::ostream& os, int indent, int depth) const;

  Kind kind_;
  bool bool_ = false;
  std::int64_t int_ = 0;
  std::uint64_t uint_ = 0;
  double double_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

/// Append the JSON string-literal encoding of `s` (quotes included,
/// control characters as \uXXXX) to `out`.
void escape_json_string(std::string_view s, std::string& out);

/// Parse a complete JSON document. Returns nullopt on malformed input,
/// trailing garbage, or container nesting deeper than an internal cap
/// (the parser recurses once per level; the cap turns adversarial
/// "[[[[..." documents into a clean error instead of a stack overflow).
/// When `error` is non-null, stores a short description of the first
/// problem.
std::optional<JsonValue> parse_json(std::string_view text,
                                    std::string* error = nullptr);

}  // namespace mpciot::bench_core
