#ifndef DBREPAIR_STORAGE_TABLE_H_
#define DBREPAIR_STORAGE_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <ranges>
#include <vector>

#include "catalog/schema.h"
#include "storage/tuple.h"

namespace dbrepair {

/// An in-memory row store for one relation, with a hash index on the
/// primary key. Every cell lives in one flat array, row-major with stride
/// = arity, and the key index is open addressing over row ids, so a table
/// holds no per-row allocation and copies as two flat arrays. Rows are
/// append-only and keep stable indices so TupleRefs never dangle; repairs
/// mutate attribute values in place on a copied Database rather than
/// deleting rows.
///
/// row() hands out TupleViews into the cell array. An Insert may move that
/// array, so it invalidates every TupleView and every `const Value&` or
/// `const Value*` into this table; UpdateValue invalidates none (it
/// assigns one cell in place).
class Table {
 public:
  explicit Table(const RelationSchema* schema) : schema_(schema) {}

  const RelationSchema& schema() const { return *schema_; }

  size_t size() const { return row_count_; }
  /// Row `index` as a view into the cell array; valid until the next
  /// Insert into this table.
  TupleView row(size_t index) const {
    return {cells_.data() + index * schema_->arity(), schema_->arity()};
  }
  /// Every row in row order, as views (see row()).
  auto rows() const {
    return std::views::iota(size_t{0}, row_count_) |
           std::views::transform([this](size_t i) { return row(i); });
  }
  /// The cell array: row r's attribute a is cells()[r * arity + a].
  const Value* cells() const { return cells_.data(); }

  /// Appends `tuple`, checking arity, per-column types, and primary-key
  /// uniqueness. Returns the new row index. A rejected insert changes
  /// nothing; an accepted one invalidates every view into this table.
  Result<size_t> Insert(Tuple tuple);

  /// Makes room for `rows` rows in all, so that inserts up to that count
  /// do not regrow the cell array (each regrowth moves every cell into
  /// freshly faulted pages). A loader that knows its row count calls this
  /// first. Like Insert, it may move the array and invalidate views.
  void Reserve(size_t rows) { cells_.reserve(rows * schema_->arity()); }

  /// Row index of the tuple with the given key values, or NotFound
  /// (also for a key of the wrong arity). Keys compare with Value ==.
  Result<size_t> LookupByKey(const std::vector<Value>& key) const;

  /// A copy of the rows and the primary-key index, sharing the schema.
  Table Clone() const;

  /// Updates one attribute of one row. Key attributes cannot be updated
  /// (repairs never change keys; Definition 2.2 keeps val(K_R) fixed), and
  /// the value must fit the column's declared type, as for Insert.
  Status UpdateValue(size_t row, size_t attribute, Value v);

 private:
  static constexpr uint64_t kEmptySlot = UINT64_MAX;

  uint32_t KeyTagOf(TupleView tuple) const;
  // The first slot on `tag`'s probe path that is empty or holds a row with
  // this tag for which `matches(row)` is true. Requires a non-empty slot
  // array.
  template <typename Matches>
  size_t FindSlot(uint32_t tag, Matches matches) const;
  // Doubles the slot array (16 slots at first) and re-slots every row.
  void GrowKeyIndex();
  // NULL fits any column; INT needs an int, DOUBLE an int or a double,
  // STRING a string. Insert checks every cell, UpdateValue the one it sets.
  Status CheckType(size_t attribute, const Value& v) const;
  Status CheckTypes(TupleView tuple) const;

  const RelationSchema* schema_;
  // row_count_ rows of schema_->arity() cells each, row-major.
  std::vector<Value> cells_;
  size_t row_count_ = 0;
  // Primary-key index under linear probing, kEmptySlot where free. A slot
  // packs the row id (low 32 bits) with the key's tag: the top 32 bits of
  // its scrambled hash. The capacity is a power of two, at most half the
  // slots are used, and a key's home slot is the top bits of its tag. The
  // tag settles most mismatches without touching cells_ and lets growth
  // re-slot without rehashing; key equality is checked against cells_.
  std::vector<uint64_t> key_slots_;
  unsigned key_shift_ = 64;  // 64 - log2(key_slots_.size())
};

}  // namespace dbrepair

#endif  // DBREPAIR_STORAGE_TABLE_H_
