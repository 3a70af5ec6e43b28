#ifndef DBREPAIR_OBS_JSON_H_
#define DBREPAIR_OBS_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "common/status.h"

namespace dbrepair::obs {

/// A minimal JSON document model used by the observability layer: metric
/// snapshots, span trees, and JSON-lines events all serialise through it,
/// and tests parse emitted documents back for round-trip checks.
///
/// Integers and doubles are kept distinct so counters render as exact
/// integers (no 1e+06 drift in snapshots). Object keys preserve insertion
/// order — snapshots stay diffable run to run.
class Json {
 public:
  using Array = std::vector<Json>;
  using Object = std::vector<std::pair<std::string, Json>>;

  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}          // NOLINT(runtime/explicit)
  Json(bool b) : value_(b) {}                        // NOLINT(runtime/explicit)
  Json(int64_t i) : value_(i) {}                     // NOLINT(runtime/explicit)
  Json(uint64_t u) : value_(static_cast<int64_t>(u)) {}  // NOLINT
  Json(int i) : value_(static_cast<int64_t>(i)) {}   // NOLINT(runtime/explicit)
  Json(unsigned u) : value_(static_cast<int64_t>(u)) {}  // NOLINT
  Json(double d) : value_(d) {}                      // NOLINT(runtime/explicit)
  Json(std::string s) : value_(std::move(s)) {}      // NOLINT(runtime/explicit)
  Json(std::string_view s) : value_(std::string(s)) {}   // NOLINT
  Json(const char* s) : value_(std::string(s)) {}    // NOLINT(runtime/explicit)
  Json(Array a) : value_(std::move(a)) {}            // NOLINT(runtime/explicit)
  Json(Object o) : value_(std::move(o)) {}           // NOLINT(runtime/explicit)

  static Json MakeObject() { return Json(Object{}); }
  static Json MakeArray() { return Json(Array{}); }

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(value_); }
  bool is_bool() const { return std::holds_alternative<bool>(value_); }
  bool is_int() const { return std::holds_alternative<int64_t>(value_); }
  bool is_double() const { return std::holds_alternative<double>(value_); }
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return std::holds_alternative<std::string>(value_); }
  bool is_array() const { return std::holds_alternative<Array>(value_); }
  bool is_object() const { return std::holds_alternative<Object>(value_); }

  bool AsBool() const { return std::get<bool>(value_); }
  int64_t AsInt() const;
  /// Numeric value as double (works for both int and double payloads).
  double AsDouble() const;
  const std::string& AsString() const { return std::get<std::string>(value_); }
  const Array& AsArray() const { return std::get<Array>(value_); }
  Array& AsArray() { return std::get<Array>(value_); }
  const Object& AsObject() const { return std::get<Object>(value_); }
  Object& AsObject() { return std::get<Object>(value_); }

  /// Object lookup; nullptr when absent or not an object.
  const Json* Find(std::string_view key) const;

  /// Sets `key` on an object (replacing an existing entry); the value must
  /// be an object.
  void Set(std::string_view key, Json value);

  /// Appends to an array; the value must be an array.
  void Append(Json value) { AsArray().push_back(std::move(value)); }

  /// Serialises the document. `indent` < 0 emits compact one-line JSON;
  /// otherwise pretty-prints with that many spaces per level.
  std::string Dump(int indent = -1) const;

  /// Parses a complete JSON document (trailing whitespace allowed, any other
  /// trailing content is a ParseError).
  static Result<Json> Parse(std::string_view text);

  bool operator==(const Json& other) const { return value_ == other.value_; }

 private:
  void DumpTo(std::string* out, int indent, int depth) const;

  std::variant<std::nullptr_t, bool, int64_t, double, std::string, Array,
               Object>
      value_;
};

/// Appends `s` to `out` as a JSON string literal, including the
/// surrounding quotes.
void JsonEscape(std::string_view s, std::string* out);

}  // namespace dbrepair::obs

#endif  // DBREPAIR_OBS_JSON_H_
