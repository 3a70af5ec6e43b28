#ifndef DBREPAIR_STORAGE_DATABASE_H_
#define DBREPAIR_STORAGE_DATABASE_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "catalog/schema.h"
#include "storage/table.h"
#include "storage/tuple.h"

namespace dbrepair {

/// A database instance D: one Table per relation of a Schema.
///
/// The Schema is shared (immutable once a Database points at it) so that a
/// repaired copy of an instance can be produced cheaply with Clone() and the
/// two instances can be compared with the Delta-distance.
class Database {
 public:
  /// Creates an empty instance of `schema`. The schema must outlive nothing:
  /// it is held by shared_ptr.
  explicit Database(std::shared_ptr<const Schema> schema);

  const Schema& schema() const { return *schema_; }
  const std::shared_ptr<const Schema>& schema_ptr() const { return schema_; }

  size_t relation_count() const { return tables_.size(); }
  const Table& table(size_t index) const { return tables_[index]; }
  Table& mutable_table(size_t index) { return tables_[index]; }

  /// Table for `relation_name`, or nullptr.
  const Table* FindTable(std::string_view relation_name) const;
  Table* FindMutableTable(std::string_view relation_name);

  /// Index of `relation_name` within the schema catalog, or error.
  Result<uint32_t> RelationIndex(std::string_view relation_name) const;

  /// Inserts `values` into `relation_name` (type/arity/key checked).
  /// Returns the TupleRef of the inserted row.
  Result<TupleRef> Insert(std::string_view relation_name,
                          std::vector<Value> values);

  /// The tuple identified by `ref`, as a view into its table's cells
  /// (invalidated by the next Insert into that table).
  TupleView tuple(TupleRef ref) const {
    return tables_[ref.relation].row(ref.row);
  }

  /// Total number of tuples across all relations (the size n of D).
  size_t TotalTuples() const;

  /// Deep copy sharing the schema, used to materialise repairs without
  /// touching the original instance. Each table's cell array and primary-key
  /// index are copied as two flat arrays (no row is re-inserted or
  /// re-checked).
  Database Clone() const;

 private:
  std::shared_ptr<const Schema> schema_;
  std::vector<Table> tables_;
};

}  // namespace dbrepair

#endif  // DBREPAIR_STORAGE_DATABASE_H_
