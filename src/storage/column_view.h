#ifndef DBREPAIR_STORAGE_COLUMN_VIEW_H_
#define DBREPAIR_STORAGE_COLUMN_VIEW_H_

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/value.h"
#include "storage/database.h"

namespace dbrepair {

class ThreadPool;

/// Largest magnitude an int64 may have before its double image stops being
/// exact (2^53). Ints beyond it stored in a kDouble column — or compared
/// against one — cannot be served by the typed double array, because
/// Value compares int against int exactly while the double view rounds.
inline constexpr int64_t kColumnarExactIntBound = int64_t{1} << 53;

/// Append-only dictionary of string values shared across every string column
/// of one ColumnSnapshot, so that string equality — within a column, across
/// columns, and against constants — is a single integer-code comparison.
/// Code 0 is reserved for NULL (and for "not in the dictionary" lookups,
/// which can never equal a stored string's code).
class StringInterner {
 public:
  static constexpr uint32_t kNullCode = 0;

  /// Code of `s`, interning it if absent. Codes are assigned in first-call
  /// order and never change afterwards (append-only).
  uint32_t Intern(const std::string& s) {
    const auto [it, inserted] = codes_.try_emplace(s, next_);
    if (inserted) ++next_;
    return it->second;
  }

  /// Code of `s` without interning; kNullCode when absent. Read-only, so
  /// concurrent Find calls are safe once the interning pass has finished.
  uint32_t Find(const std::string& s) const {
    const auto it = codes_.find(s);
    return it == codes_.end() ? kNullCode : it->second;
  }

  size_t size() const { return codes_.size(); }

 private:
  std::unordered_map<std::string, uint32_t> codes_;
  uint32_t next_ = kNullCode + 1;
};

/// One attribute of one relation as a typed vector: int64 / double values in
/// raw arrays, strings as dictionary codes. This is the cache-friendly view
/// the violation engine's columnar scan compares against instead of walking
/// the row store's `Value` cells.
struct ColumnData {
  Type type = Type::kInt64;

  /// Some row holds NULL (the typed slot then stores 0 / 0.0 / kNullCode).
  bool has_nulls = false;
  /// The typed encoding cannot represent every stored value exactly: a NaN
  /// double, or an int stored in a kDouble column beyond ±2^53 (where the
  /// int-vs-int exact comparison of Value diverges from the double view).
  bool lossy = false;

  std::vector<int64_t> ints;      ///< kInt64 columns.
  std::vector<double> doubles;    ///< kDouble columns; -0.0 normalised to +0.0.
  std::vector<uint32_t> codes;    ///< kString columns (dictionary codes).

  size_t size() const {
    switch (type) {
      case Type::kInt64:
        return ints.size();
      case Type::kDouble:
        return doubles.size();
      case Type::kString:
        return codes.size();
    }
    return 0;
  }

  /// Whether the violation engine may compare this column by code / typed
  /// array. A join class or constant position that reads a column failing
  /// this compares the row store's Values instead.
  bool clean() const { return !has_nulls && !lossy; }

  /// Canonical 64-bit join code of `row`: for clean() columns of the same
  /// declared type, two rows hold equal Values iff their key codes are
  /// equal (doubles are -0.0-normalised at build time; strings share one
  /// dictionary per snapshot).
  uint64_t KeyCode(uint32_t row) const {
    switch (type) {
      case Type::kInt64:
        return std::bit_cast<uint64_t>(ints[row]);
      case Type::kDouble:
        return std::bit_cast<uint64_t>(doubles[row]);
      case Type::kString:
        return codes[row];
    }
    return 0;
  }
};

/// One cell of a Database: attribute `attribute` of `tuple`.
struct CellRef {
  TupleRef tuple;
  uint32_t attribute = 0;
};

/// All columns of one relation.
struct RelationColumns {
  size_t row_count = 0;
  std::vector<ColumnData> columns;
};

/// A read-only columnar snapshot of a Database: per-relation typed column
/// vectors plus one shared string dictionary. The row store stays the
/// source of truth — the snapshot is derived data the violation engine
/// scans instead of the row cells, and it must be rebuilt, Rebase'd,
/// extended or patched after the rows change. Copies share their column
/// vectors; a snapshot copies a shared relation before it changes it
/// (counted as scan.columnar.relation_copies).
class ColumnSnapshot {
 public:
  ColumnSnapshot() = default;

  /// Builds typed columns for every relation of `db`: one (relation,
  /// column, row) pass interns the string dictionary, then one row-major
  /// pass per relation fills its typed columns.
  static ColumnSnapshot Build(const Database& db);
  /// Kept only for the ledger's staged replay, which still passes a pool;
  /// the pool is ignored. Delete with that replay (ROADMAP item 1).
  static ColumnSnapshot Build(const Database& db, ThreadPool*) {
    return Build(db);
  }

  /// Snapshot of `new_db` that shares the column vectors of every relation
  /// NOT listed in `dirty_relations` and rebuilds only the dirty ones.
  /// `new_db` must differ from this snapshot's source database only in the
  /// dirty relations (the repair pipeline's verify phase: repairs mutate a
  /// handful of relations in place, the rest are untouched). Falls back to
  /// a full Build when the relation counts disagree. The string dictionary
  /// is shared and append-only, so codes in aliased columns stay valid.
  ColumnSnapshot Rebase(const Database& new_db,
                        const std::vector<uint32_t>& dirty_relations) const;

  /// Incremental rebase for append-only growth: every relation listed in
  /// `appended_relations` must have only *gained* rows since this snapshot
  /// was built (existing rows byte-identical; tables are append-only, so a
  /// batch insert is exactly a row-id suffix). Only the new suffix is
  /// encoded: when this snapshot holds the sole reference to a relation's
  /// columns they are grown in place, otherwise the old vectors are copied
  /// once and extended. Falls back to a full per-relation rebuild when a
  /// listed relation shrank or changed arity. New strings are interned into
  /// the shared dictionary (append-only, so aliased codes stay valid).
  void ExtendAppended(const Database& new_db,
                      const std::vector<uint32_t>& appended_relations);

  /// Re-encodes exactly the listed cells from `db` after they were updated
  /// in place (a repair session's applied fixes); every cell must lie
  /// within this snapshot's rows. A relation whose columns another
  /// snapshot shares is copied once before its first patch, so that
  /// snapshot is left untouched (the rule ExtendAppended follows). The
  /// NULL and lossy flags only ever get set: a value written over a column's
  /// last NULL leaves `has_nulls` set, which sends the scan down the
  /// Value-backed path but changes no comparison. New strings are interned
  /// into the shared dictionary.
  void PatchCells(const Database& db, const std::vector<CellRef>& cells);

  /// True once Build/Rebase has populated the snapshot.
  bool valid() const { return !relations_.empty(); }

  size_t relation_count() const { return relations_.size(); }
  const RelationColumns& relation(uint32_t index) const {
    return *relations_[index];
  }
  const StringInterner& interner() const { return *interner_; }

 private:
  std::shared_ptr<StringInterner> interner_;
  // shared_ptr so Rebase can alias the clean relations of an older snapshot.
  std::vector<std::shared_ptr<const RelationColumns>> relations_;
};

}  // namespace dbrepair

#endif  // DBREPAIR_STORAGE_COLUMN_VIEW_H_
