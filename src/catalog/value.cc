#include "catalog/value.h"

#include <cmath>

#include "common/strings.h"

namespace dbrepair {

const char* TypeName(Type type) {
  switch (type) {
    case Type::kInt64:
      return "INT";
    case Type::kDouble:
      return "DOUBLE";
    case Type::kString:
      return "STRING";
  }
  return "UNKNOWN";
}

Result<Type> ParseType(std::string_view name) {
  const std::string lower = ToLower(TrimWhitespace(name));
  if (lower == "int" || lower == "int64" || lower == "integer") {
    return Type::kInt64;
  }
  if (lower == "double" || lower == "float" || lower == "real") {
    return Type::kDouble;
  }
  if (lower == "string" || lower == "text" || lower == "varchar") {
    return Type::kString;
  }
  return Status::ParseError("unknown type name: '" + std::string(name) + "'");
}

namespace {

// Type ranks for cross-type ordering: NULL < numeric < string.
int Rank(const Value& v) {
  if (v.is_null()) return 0;
  if (v.is_int() || v.is_double()) return 1;
  return 2;
}

}  // namespace

void Value::Release(StringRep* rep) {
  if (rep->refs.fetch_sub(1) == 1) delete rep;
}

bool Value::operator==(const Value& other) const {
  if (is_null() || other.is_null()) return is_null() && other.is_null();
  if ((is_int() || is_double()) && (other.is_int() || other.is_double())) {
    if (is_int() && other.is_int()) return AsInt() == other.AsInt();
    return AsNumeric() == other.AsNumeric();
  }
  if (is_string() && other.is_string()) {
    // Copies of one string share its payload.
    return payload_.string_rep == other.payload_.string_rep ||
           AsString() == other.AsString();
  }
  return false;
}

int Value::Compare(const Value& other) const {
  const int lhs_rank = Rank(*this);
  const int rhs_rank = Rank(other);
  if (lhs_rank != rhs_rank) return lhs_rank < rhs_rank ? -1 : 1;
  switch (lhs_rank) {
    case 0:
      return 0;  // NULL == NULL for ordering purposes.
    case 1: {
      if (is_int() && other.is_int()) {
        const int64_t a = AsInt();
        const int64_t b = other.AsInt();
        return a < b ? -1 : (a > b ? 1 : 0);
      }
      const double a = AsNumeric();
      const double b = other.AsNumeric();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    default: {
      const int cmp = AsString().compare(other.AsString());
      return cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
    }
  }
}

std::string Value::ToString() const {
  if (is_null()) return "NULL";
  if (is_int()) return std::to_string(AsInt());
  if (is_double()) return FormatDouble(AsDouble());
  return "'" + AsString() + "'";
}

size_t Value::Hash() const {
  if (is_null()) return 0x9e3779b97f4a7c15ULL;
  if (is_string()) return std::hash<std::string>{}(AsString());
  // A number hashes by its double image, because operator== compares an
  // int with a double through that image: Int(2^53 + 1) equals
  // Double(2^53). Ints within ±2^53 are their own image.
  constexpr int64_t kExactIntBound = int64_t{1} << 53;
  if (is_int() && AsInt() >= -kExactIntBound && AsInt() <= kExactIntBound) {
    return std::hash<int64_t>{}(AsInt());
  }
  // Integral doubles must hash like the equal int.
  const double d = AsNumeric();
  if (std::nearbyint(d) == d &&
      std::abs(d) < 9.2e18) {
    return std::hash<int64_t>{}(static_cast<int64_t>(d));
  }
  return std::hash<double>{}(d);
}

}  // namespace dbrepair
