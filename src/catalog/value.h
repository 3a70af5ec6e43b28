#ifndef DBREPAIR_CATALOG_VALUE_H_
#define DBREPAIR_CATALOG_VALUE_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "common/status.h"

namespace dbrepair {

/// Column types. Flexible attributes (those a repair may change) must be
/// kInt64: the paper's framework fixes integer domains for flexible
/// attributes (Section 2, "flexible attributes ... take values in Z").
enum class Type {
  kInt64,
  kDouble,
  kString,
};

/// Returns "INT" / "DOUBLE" / "STRING".
const char* TypeName(Type type);

/// Parses "INT" / "DOUBLE" / "STRING" (case-insensitive).
Result<Type> ParseType(std::string_view name);

/// A single attribute value: a null marker or one of the supported types.
///
/// Values are ordered within a type (ints and doubles compare numerically
/// with each other; strings compare lexicographically). Comparing a string
/// against a number is an error the callers rule out at schema-check time.
///
/// Layout: a one-byte kind tag plus one 8-byte payload (the int, the double,
/// or a pointer to a shared string), 16 bytes in all. A string payload is
/// immutable and reference-counted, so copying a string Value bumps an
/// atomic count and never allocates; copying any other kind copies the
/// bytes. Moving a Value steals its payload and leaves the source NULL.
class Value {
 public:
  /// Constructs a NULL value.
  Value() noexcept = default;
  /// Constructs an integer value.
  static Value Int(int64_t v) {
    Value out;
    out.kind_ = Kind::kInt;
    out.payload_.int_value = v;
    return out;
  }
  /// Constructs a double value.
  static Value Double(double v) {
    Value out;
    out.kind_ = Kind::kDouble;
    out.payload_.double_value = v;
    return out;
  }
  /// Constructs a string value.
  static Value String(std::string v) {
    Value out;
    out.kind_ = Kind::kString;
    out.payload_.string_rep = new StringRep{{1}, std::move(v)};
    return out;
  }

  Value(const Value& other) noexcept
      : kind_(other.kind_), payload_(other.payload_) {
    if (kind_ == Kind::kString) payload_.string_rep->refs.fetch_add(1);
  }
  Value(Value&& other) noexcept : kind_(other.kind_), payload_(other.payload_) {
    other.kind_ = Kind::kNull;
  }
  Value& operator=(const Value& other) noexcept {
    Value copy(other);
    Swap(copy);
    return *this;
  }
  Value& operator=(Value&& other) noexcept {
    Value stolen(std::move(other));
    Swap(stolen);
    return *this;
  }
  ~Value() {
    if (kind_ == Kind::kString) Release(payload_.string_rep);
  }

  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_int() const { return kind_ == Kind::kInt; }
  bool is_double() const { return kind_ == Kind::kDouble; }
  bool is_string() const { return kind_ == Kind::kString; }

  /// The held integer. Requires is_int().
  int64_t AsInt() const {
    assert(is_int());
    return payload_.int_value;
  }
  /// The held double. Requires is_double().
  double AsDouble() const {
    assert(is_double());
    return payload_.double_value;
  }
  /// The held string. Requires is_string().
  const std::string& AsString() const {
    assert(is_string());
    return payload_.string_rep->text;
  }

  /// Numeric view: int promoted to double. Requires is_int() || is_double().
  double AsNumeric() const {
    return is_int() ? static_cast<double>(AsInt()) : AsDouble();
  }

  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }

  /// Three-way comparison: -1, 0, +1. NULL sorts before everything;
  /// numbers before strings.
  int Compare(const Value& other) const;
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  /// Renders the value for dumps and debugging ("NULL", 42, 1.5, 'abc').
  std::string ToString() const;

  /// Hash compatible with operator== (ints and equal-valued doubles that
  /// are integral hash alike).
  size_t Hash() const;

 private:
  enum class Kind : uint8_t { kNull, kInt, kDouble, kString };

  // A string payload: written once at construction, then only read, by any
  // number of Values on any number of threads.
  struct StringRep {
    std::atomic<uint64_t> refs;
    const std::string text;
  };

  union Payload {
    int64_t int_value;
    double double_value;
    StringRep* string_rep;
  };

  // Drops one reference to `rep`, freeing it with the last.
  static void Release(StringRep* rep);

  void Swap(Value& other) noexcept {
    std::swap(kind_, other.kind_);
    std::swap(payload_, other.payload_);
  }

  Kind kind_ = Kind::kNull;
  Payload payload_{.int_value = 0};
};

static_assert(sizeof(Value) == 16, "Value is a tag plus one 8-byte payload");

/// std::hash adapter for Value, for use in unordered containers.
struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

}  // namespace dbrepair

#endif  // DBREPAIR_CATALOG_VALUE_H_
