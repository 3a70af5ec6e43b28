#include "storage/database.h"

namespace dbrepair {

Database::Database(std::shared_ptr<const Schema> schema)
    : schema_(std::move(schema)) {
  tables_.reserve(schema_->relations().size());
  for (const RelationSchema& rel : schema_->relations()) {
    tables_.emplace_back(&rel);
  }
}

const Table* Database::FindTable(std::string_view relation_name) const {
  for (const Table& t : tables_) {
    if (t.schema().name() == relation_name) return &t;
  }
  return nullptr;
}

Table* Database::FindMutableTable(std::string_view relation_name) {
  for (Table& t : tables_) {
    if (t.schema().name() == relation_name) return &t;
  }
  return nullptr;
}

Result<uint32_t> Database::RelationIndex(
    std::string_view relation_name) const {
  for (uint32_t i = 0; i < tables_.size(); ++i) {
    if (tables_[i].schema().name() == relation_name) return i;
  }
  return Status::NotFound("unknown relation '" + std::string(relation_name) +
                          "'");
}

Result<TupleRef> Database::Insert(std::string_view relation_name,
                                  std::vector<Value> values) {
  DBREPAIR_ASSIGN_OR_RETURN(const uint32_t rel, RelationIndex(relation_name));
  DBREPAIR_ASSIGN_OR_RETURN(const size_t row,
                            tables_[rel].Insert(Tuple(std::move(values))));
  return TupleRef{rel, static_cast<uint32_t>(row)};
}

size_t Database::TotalTuples() const {
  size_t total = 0;
  for (const Table& t : tables_) total += t.size();
  return total;
}

Database Database::Clone() const {
  Database copy(schema_);
  for (size_t i = 0; i < tables_.size(); ++i) {
    copy.tables_[i] = tables_[i].Clone();
  }
  return copy;
}

}  // namespace dbrepair
