#include "repair/mixed.h"

#include "repair/cardinality.h"

namespace dbrepair {

Result<MixedRepairOutcome> MixedRepair(
    const Database& db, const std::vector<DenialConstraint>& ics,
    const MixedRepairOptions& options) {
  // ---- Schema#: original attributes (flags kept) + a delta column. ----
  auto schema_sharp = std::make_shared<Schema>();
  for (const RelationSchema& rel : db.schema().relations()) {
    std::vector<AttributeDef> attrs(rel.attributes().begin(),
                                    rel.attributes().end());
    AttributeDef delta;
    delta.name = kDeltaAttribute;
    delta.type = Type::kInt64;
    delta.flexible = true;
    const auto alpha_it = options.relation_delta_alpha.find(rel.name());
    delta.alpha = alpha_it != options.relation_delta_alpha.end()
                      ? alpha_it->second
                      : options.default_delta_alpha;
    attrs.push_back(std::move(delta));
    DBREPAIR_RETURN_IF_ERROR(schema_sharp->AddRelation(RelationSchema(
        rel.name(), std::move(attrs), rel.key_attributes())));
  }

  // ---- D#: every tuple extended with delta = 1. ----
  Database db_sharp(schema_sharp);
  for (size_t r = 0; r < db.relation_count(); ++r) {
    const Table& table = db.table(r);
    for (const TupleView row : table.rows()) {
      std::vector<Value> values = row.values();
      values.push_back(Value::Int(1));
      DBREPAIR_RETURN_IF_ERROR(
          db_sharp.Insert(table.schema().name(), std::move(values))
              .status());
    }
  }

  // ---- IC#: the usual constraints plus delta > 0 conjuncts. ----
  std::vector<DenialConstraint> ics_sharp;
  ics_sharp.reserve(ics.size());
  for (const DenialConstraint& ic : ics) {
    ics_sharp.push_back(AddDeltaConjuncts(ic));
  }

  // ---- Repair D# and project. ----
  DBREPAIR_ASSIGN_OR_RETURN(
      RepairOutcome outcome,
      RepairDatabase(db_sharp, ics_sharp, options.repair));
  DBREPAIR_ASSIGN_OR_RETURN(
      Database projected,
      ProjectDeltas(outcome.repaired, db.schema_ptr()));

  MixedRepairOutcome result{std::move(projected), 0, 0, outcome.stats};
  for (const AppliedUpdate& update : outcome.updates) {
    const RelationSchema& rel =
        outcome.repaired.table(update.tuple.relation).schema();
    if (rel.attribute(update.attribute).name == kDeltaAttribute) {
      ++result.deletions;
    } else {
      ++result.value_updates;
    }
  }
  return result;
}

}  // namespace dbrepair
