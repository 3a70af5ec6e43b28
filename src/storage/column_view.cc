#include "storage/column_view.h"

#include <cmath>
#include <utility>
#include <vector>

#include "obs/context.h"

namespace dbrepair {

namespace {

// Sizes `col`'s typed vector for `n` rows.
void SizeColumn(size_t n, ColumnData* col) {
  switch (col->type) {
    case Type::kInt64:
      col->ints.resize(n);
      break;
    case Type::kDouble:
      col->doubles.resize(n);
      break;
    case Type::kString:
      col->codes.resize(n);
      break;
  }
}

// Encodes one cell into `col` at `row`. The single definition of the typed
// encoding (null/lossy rules), shared by the full and the appending fills.
inline void FillCell(const Value& v, uint32_t row,
                     const StringInterner& interner, ColumnData* col) {
  if (v.is_null()) {
    col->has_nulls = true;
    switch (col->type) {
      case Type::kInt64:
        col->ints[row] = 0;
        break;
      case Type::kDouble:
        col->doubles[row] = 0.0;
        break;
      case Type::kString:
        col->codes[row] = StringInterner::kNullCode;
        break;
    }
    return;
  }
  // Table::Insert and Table::UpdateValue enforce the declared type, so a
  // non-NULL cell is an int in an INT column, an int or a double in a
  // DOUBLE column and a string in a STRING column.
  switch (col->type) {
    case Type::kInt64:
      col->ints[row] = v.AsInt();
      break;
    case Type::kDouble: {
      // Beyond ±2^53 the double view can no longer reproduce Value's exact
      // int-vs-int comparisons.
      if (v.is_int() && (v.AsInt() > kColumnarExactIntBound ||
                         v.AsInt() < -kColumnarExactIntBound)) {
        col->lossy = true;
      }
      double d = v.AsNumeric();
      if (std::isnan(d)) col->lossy = true;  // NaN != NaN under Value
      if (d == 0.0) d = 0.0;                 // normalise -0.0
      col->doubles[row] = d;
      break;
    }
    case Type::kString:
      col->codes[row] = interner.Find(v.AsString());
      break;
  }
}

// One row-major pass filling every column, so the cell array is read once
// in memory order instead of once per column at a stride.
void FillRelationRowMajor(const Table& table, const StringInterner& interner,
                          RelationColumns* rel) {
  const size_t n = table.size();
  const size_t arity = rel->columns.size();
  for (ColumnData& col : rel->columns) SizeColumn(n, &col);
  for (uint32_t row = 0; row < n; ++row) {
    const TupleView tuple = table.row(row);
    for (size_t c = 0; c < arity; ++c) {
      FillCell(tuple.value(c), row, interner, &rel->columns[c]);
    }
  }
}

// Serial, deterministic interning pass over one relation's string columns:
// codes are assigned in (column, row) first-encounter order.
void InternRelationStrings(const Table& table, StringInterner* interner) {
  const RelationSchema& schema = table.schema();
  for (size_t c = 0; c < schema.arity(); ++c) {
    if (schema.attribute(c).type != Type::kString) continue;
    for (uint32_t row = 0; row < table.size(); ++row) {
      const Value& v = table.row(row).value(c);
      if (v.is_string()) interner->Intern(v.AsString());
    }
  }
}

std::shared_ptr<RelationColumns> MakeShell(const Table& table) {
  auto rel = std::make_shared<RelationColumns>();
  rel->row_count = table.size();
  const RelationSchema& schema = table.schema();
  rel->columns.resize(schema.arity());
  for (size_t c = 0; c < schema.arity(); ++c) {
    rel->columns[c].type = schema.attribute(c).type;
  }
  return rel;
}

// A private copy of a relation another snapshot shares, so that this
// snapshot can change it alone.
std::shared_ptr<RelationColumns> CopyShared(const RelationColumns& rel) {
  obs::CurrentObs().metrics.GetCounter("scan.columnar.relation_copies")
      ->Add(1);
  return std::make_shared<RelationColumns>(rel);
}

std::shared_ptr<const RelationColumns> BuildRelation(
    const Table& table, const StringInterner& interner) {
  auto rel = MakeShell(table);
  FillRelationRowMajor(table, interner, rel.get());
  return rel;
}

}  // namespace

ColumnSnapshot ColumnSnapshot::Build(const Database& db) {
  ColumnSnapshot snapshot;
  snapshot.interner_ = std::make_shared<StringInterner>();
  for (size_t r = 0; r < db.relation_count(); ++r) {
    InternRelationStrings(db.table(r), snapshot.interner_.get());
  }
  snapshot.relations_.reserve(db.relation_count());
  for (uint32_t r = 0; r < db.relation_count(); ++r) {
    snapshot.relations_.push_back(
        BuildRelation(db.table(r), *snapshot.interner_));
  }
  return snapshot;
}

ColumnSnapshot ColumnSnapshot::Rebase(
    const Database& new_db, const std::vector<uint32_t>& dirty_relations) const {
  if (!valid() || new_db.relation_count() != relations_.size()) {
    return Build(new_db);
  }
  ColumnSnapshot snapshot;
  snapshot.interner_ = interner_;
  snapshot.relations_ = relations_;
  for (const uint32_t r : dirty_relations) {
    // Repairs only rewrite int attributes, but stay general: new strings in
    // a dirty relation are appended to the shared dictionary.
    InternRelationStrings(new_db.table(r), snapshot.interner_.get());
    snapshot.relations_[r] =
        BuildRelation(new_db.table(r), *snapshot.interner_);
  }
  return snapshot;
}

void ColumnSnapshot::ExtendAppended(
    const Database& new_db, const std::vector<uint32_t>& appended_relations) {
  if (!valid() || new_db.relation_count() != relations_.size()) {
    *this = Build(new_db);
    return;
  }
  for (const uint32_t r : appended_relations) {
    const Table& table = new_db.table(r);
    const std::shared_ptr<const RelationColumns>& old_rel = relations_[r];
    if (table.size() < old_rel->row_count ||
        old_rel->columns.size() != table.schema().arity()) {
      // Not an append-only delta; rebuild the relation outright.
      InternRelationStrings(table, interner_.get());
      relations_[r] = BuildRelation(table, *interner_);
      continue;
    }
    const auto old_count = static_cast<uint32_t>(old_rel->row_count);
    const auto new_count = static_cast<uint32_t>(table.size());
    if (new_count == old_count) continue;
    // Serial, deterministic interning of the suffix's strings, in the same
    // (column, row) order a full InternRelationStrings pass would visit
    // them — codes of already-known strings are unchanged either way.
    const RelationSchema& schema = table.schema();
    for (size_t c = 0; c < schema.arity(); ++c) {
      if (schema.attribute(c).type != Type::kString) continue;
      for (uint32_t row = old_count; row < new_count; ++row) {
        const Value& v = table.row(row).value(c);
        if (v.is_string()) interner_->Intern(v.AsString());
      }
    }
    // Uniquely-owned columns are grown in place (the object was created
    // mutable and only typed const by the shared_ptr, so the cast is
    // well-defined); shared ones are copied once, then extended.
    std::shared_ptr<RelationColumns> rel;
    if (relations_[r].use_count() == 1) {
      rel = std::const_pointer_cast<RelationColumns>(relations_[r]);
    } else {
      rel = CopyShared(*old_rel);
    }
    for (ColumnData& col : rel->columns) SizeColumn(new_count, &col);
    for (uint32_t row = old_count; row < new_count; ++row) {
      const TupleView tuple = table.row(row);
      for (size_t c = 0; c < rel->columns.size(); ++c) {
        FillCell(tuple.value(c), row, *interner_, &rel->columns[c]);
      }
    }
    rel->row_count = new_count;
    relations_[r] = std::move(rel);
  }
}

void ColumnSnapshot::PatchCells(const Database& db,
                                const std::vector<CellRef>& cells) {
  for (const CellRef& cell : cells) {
    std::shared_ptr<const RelationColumns>& slot =
        relations_[cell.tuple.relation];
    // After the copy this snapshot holds the only reference, so the rest
    // of the relation's cells are patched in place.
    if (slot.use_count() != 1) {
      slot = CopyShared(*slot);
    }
    // Created mutable and only typed const by the shared_ptr, as in
    // ExtendAppended.
    auto* rel = const_cast<RelationColumns*>(slot.get());
    const Value& v = db.tuple(cell.tuple).value(cell.attribute);
    if (v.is_string()) interner_->Intern(v.AsString());
    FillCell(v, cell.tuple.row, *interner_, &rel->columns[cell.attribute]);
  }
}

}  // namespace dbrepair
