#ifndef DBREPAIR_STORAGE_TABLE_H_
#define DBREPAIR_STORAGE_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <ranges>
#include <span>
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
/// row() hands out TupleViews into the cell array. An Insert or AppendRows
/// may move that array, so it invalidates every TupleView and every
/// `const Value&` or `const Value*` into this table; UpdateValue invalidates
/// none (it assigns one cell in place).
class Table {
 public:
  explicit Table(const RelationSchema* schema) : schema_(schema) {}

  const RelationSchema& schema() const { return *schema_; }

  size_t size() const { return row_count_; }
  /// Row `index` as a view into the cell array; valid until the next
  /// Insert or AppendRows into this table.
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

  /// Appends `cells.size() / arity` rows given row-major in `cells`, moving
  /// the cells in. Checks, as Insert does for one row, that `cells` holds
  /// whole rows, that every cell fits its column's type and that no key
  /// repeats, whether against a row already present or within `cells`.
  /// All or nothing: on success every row is appended in order (a bulk
  /// loader's chunk path; the key index grows once for the chunk and the
  /// new keys are slotted in one pass after the cells are in); on failure
  /// the table keeps its size, cells and key lookups, and the cells of
  /// `cells` may have been moved from.
  Status AppendRows(std::span<Value> cells);

  /// Drops every row from index `rows` on, with its key, so the table reads
  /// as it did before those rows were appended. This undoes a load that
  /// failed part-way; it is not a delete, so nothing may hold a TupleRef to
  /// a dropped row. Does nothing when `rows >= size()`.
  void Truncate(size_t rows);

  /// Makes room for `rows` rows in all, so that inserts up to that count
  /// do not regrow the cell array (each regrowth moves every cell into
  /// freshly faulted pages). A loader that knows its row count calls this
  /// first. Like Insert, it may move the array and invalidate views.
  void Reserve(size_t rows) { cells_.reserve(rows * schema_->arity()); }

  /// Sizes the key index for `rows` keys in all, so that the key index of a
  /// bulk load through AppendRows is allocated once instead of re-slotting
  /// every row at each doubling. Only for AppendRows callers: a per-row
  /// Insert into a presized index misses cache on every probe, where a
  /// growing index stays small while the table is. Views stay valid.
  void ReserveKeys(size_t rows);

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
  // A key's home slot: the top log2(capacity) bits of its tag.
  size_t HomeSlot(uint32_t tag) const {
    return (uint64_t{tag} << 32) >> key_shift_;
  }
  // The first slot on `tag`'s probe path that is empty or holds a row id
  // with this tag for which `matches(row_id)` is true. Requires a non-empty
  // slot array.
  template <typename Matches>
  size_t FindSlot(uint32_t tag, Matches matches) const;
  // The empty slot where `tuple`'s key (tagged `tag`) goes, or KeyViolation
  // if a slotted row has the same key. Insert and AppendRows both call it.
  Result<size_t> FreeKeySlot(TupleView tuple, uint32_t tag) const;
  // Re-slots the rows below `keep_rows` into a fresh array of `capacity`
  // slots (a power of two).
  void RebuildKeyIndex(size_t capacity, size_t keep_rows);
  // NULL fits any column; INT needs an int, DOUBLE an int or a double,
  // STRING a string. Insert and AppendRows check every cell, UpdateValue
  // the one it sets.
  bool Fits(size_t attribute, const Value& v) const;
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
  // Rows below this were slotted by the last RebuildKeyIndex, in slot
  // order; the rest were slotted one at a time in row order after it. So
  // emptying the slots of rows from here on, newest first, leaves exactly
  // the array their inserts found: under linear probing a key slotted later
  // never lies on the probe path of one slotted earlier.
  size_t reslotted_rows_ = 0;
};

}  // namespace dbrepair

#endif  // DBREPAIR_STORAGE_TABLE_H_
