#ifndef DBREPAIR_STORAGE_TUPLE_H_
#define DBREPAIR_STORAGE_TUPLE_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "catalog/value.h"

namespace dbrepair {

class Tuple;

/// A read-only view of one row: `arity` consecutive cells owned elsewhere,
/// by a Table's cell array (Table::row) or by a Tuple (Tuple::view). A view
/// is two words and never allocates; it is valid only while its owner
/// lives and, for a table row, until the next Insert into that table.
class TupleView {
 public:
  TupleView() = default;
  TupleView(const Value* cells, size_t arity)
      : cells_(cells), arity_(arity) {}

  size_t arity() const { return arity_; }
  const Value& value(size_t index) const { return cells_[index]; }
  const Value* begin() const { return cells_; }
  const Value* end() const { return cells_ + arity_; }
  /// An owning copy of the cells.
  std::vector<Value> values() const {
    return std::vector<Value>(begin(), end());
  }

  bool operator==(TupleView other) const {
    return std::equal(begin(), end(), other.begin(), other.end());
  }
  bool operator==(const Tuple& other) const;

  /// "(v1, v2, ...)" for dumps and test diagnostics.
  std::string ToString() const;

  /// An owning copy of the row. Implicit so that code written against the
  /// owning row type, which binds `table.row(i)` to a `const Tuple&`,
  /// keeps compiling; every such binding copies the row, so library code
  /// reads the view.
  operator Tuple() const;

 private:
  const Value* cells_ = nullptr;
  size_t arity_ = 0;
};

/// An owning database tuple: one value per attribute of its relation
/// schema. Table::Insert takes one; edited copies of stored rows are Tuples.
class Tuple {
 public:
  Tuple() = default;
  explicit Tuple(std::vector<Value> values) : values_(std::move(values)) {}

  size_t arity() const { return values_.size(); }
  const Value& value(size_t index) const { return values_[index]; }
  void set_value(size_t index, Value v) { values_[index] = std::move(v); }
  const std::vector<Value>& values() const { return values_; }
  /// Moves the values out, leaving the tuple empty.
  std::vector<Value> release_values() { return std::move(values_); }
  /// A view of this tuple's cells, valid while the tuple is unchanged.
  TupleView view() const { return {values_.data(), values_.size()}; }

  bool operator==(const Tuple& other) const {
    return values_ == other.values_;
  }

  /// "(v1, v2, ...)" for dumps and test diagnostics.
  std::string ToString() const { return view().ToString(); }

 private:
  std::vector<Value> values_;
};

inline bool TupleView::operator==(const Tuple& other) const {
  return *this == other.view();
}

inline TupleView::operator Tuple() const { return Tuple(values()); }

/// Stable identifier of a tuple inside a Database: relation index in the
/// schema catalog plus row index inside that relation's table. Violation
/// sets, mono-local fixes, and set-cover columns all refer to tuples through
/// TupleRef so they stay valid while a repair is being assembled.
struct TupleRef {
  uint32_t relation = 0;
  uint32_t row = 0;

  bool operator==(const TupleRef& other) const {
    return relation == other.relation && row == other.row;
  }
  bool operator<(const TupleRef& other) const {
    if (relation != other.relation) return relation < other.relation;
    return row < other.row;
  }

  /// Packs into one 64-bit key for hashing.
  uint64_t Packed() const {
    return (static_cast<uint64_t>(relation) << 32) | row;
  }
};

struct TupleRefHash {
  size_t operator()(const TupleRef& ref) const {
    // Fibonacci hashing of the packed id.
    return static_cast<size_t>(ref.Packed() * 0x9e3779b97f4a7c15ULL);
  }
};

}  // namespace dbrepair

#endif  // DBREPAIR_STORAGE_TUPLE_H_
