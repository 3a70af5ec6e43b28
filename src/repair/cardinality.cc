#include "repair/cardinality.h"

#include <set>

namespace dbrepair {

namespace {

// A delta variable name not clashing with the constraint's own variables.
std::string FreshDeltaVar(const DenialConstraint& ic, size_t atom_index) {
  std::set<std::string> used;
  for (const RelationAtom& atom : ic.atoms) {
    for (const Term& t : atom.args) {
      if (t.is_variable()) used.insert(t.variable);
    }
  }
  std::string base = "_delta" + std::to_string(atom_index);
  std::string name = base;
  int suffix = 0;
  while (used.count(name) > 0) name = base + "_" + std::to_string(++suffix);
  return name;
}

}  // namespace

DenialConstraint AddDeltaConjuncts(const DenialConstraint& ic) {
  DenialConstraint sharp = ic;
  if (!sharp.name.empty()) sharp.name += "_sharp";
  for (size_t a = 0; a < sharp.atoms.size(); ++a) {
    const std::string var = FreshDeltaVar(ic, a);
    sharp.atoms[a].args.push_back(Term::Var(var));
    BuiltinAtom positive;
    positive.lhs = Term::Var(var);
    positive.op = CompareOp::kGt;
    positive.rhs = Term::Const(Value::Int(0));
    sharp.builtins.push_back(std::move(positive));
  }
  return sharp;
}

Result<CardinalityProblem> BuildCardinalityProblem(
    const Database& db, const std::vector<DenialConstraint>& ics,
    const CardinalityOptions& options) {
  // ---- Schema#: delta attribute per relation, key = all original attrs. ----
  auto schema_sharp = std::make_shared<Schema>();
  for (const RelationSchema& rel : db.schema().relations()) {
    std::vector<AttributeDef> attrs;
    std::vector<std::string> key;
    attrs.reserve(rel.arity() + 1);
    for (const AttributeDef& attr : rel.attributes()) {
      AttributeDef hard = attr;
      hard.flexible = false;  // F = {delta_R}: original attributes harden.
      attrs.push_back(std::move(hard));
      key.push_back(attr.name);
    }
    AttributeDef delta;
    delta.name = kDeltaAttribute;
    delta.type = Type::kInt64;
    delta.flexible = true;
    const auto alpha_it = options.relation_alpha.find(rel.name());
    delta.alpha = alpha_it != options.relation_alpha.end()
                      ? alpha_it->second
                      : options.default_alpha;
    attrs.push_back(std::move(delta));
    DBREPAIR_RETURN_IF_ERROR(schema_sharp->AddRelation(
        RelationSchema(rel.name(), std::move(attrs), std::move(key))));
  }

  // ---- D#: every tuple extended with delta = 1. ----
  Database db_sharp(schema_sharp);
  for (size_t r = 0; r < db.relation_count(); ++r) {
    const Table& table = db.table(r);
    for (const TupleView row : table.rows()) {
      std::vector<Value> values = row.values();
      values.push_back(Value::Int(1));
      const auto inserted =
          db_sharp.Insert(table.schema().name(), std::move(values));
      if (!inserted.ok()) {
        return Status::InvalidArgument(
            "cardinality repair requires set semantics; duplicate tuple in "
            "'" +
            table.schema().name() + "': " + row.ToString());
      }
    }
  }

  // ---- IC#: add a `delta_R > 0` conjunct per atom. ----
  std::vector<DenialConstraint> ics_sharp;
  ics_sharp.reserve(ics.size());
  for (const DenialConstraint& ic : ics) {
    ics_sharp.push_back(AddDeltaConjuncts(ic));
  }

  return CardinalityProblem{std::move(schema_sharp), std::move(db_sharp),
                            std::move(ics_sharp)};
}

Result<Database> ProjectDeltas(const Database& repaired_sharp,
                               std::shared_ptr<const Schema> original_schema) {
  Database out(original_schema);
  for (const RelationSchema& rel : original_schema->relations()) {
    const Table* sharp_table = repaired_sharp.FindTable(rel.name());
    if (sharp_table == nullptr) {
      return Status::NotFound("relation '" + rel.name() +
                              "' missing from the repaired D#");
    }
    const auto delta_pos = sharp_table->schema().FindAttribute(kDeltaAttribute);
    if (!delta_pos.has_value()) {
      return Status::InvalidArgument("relation '" + rel.name() +
                                     "' has no delta attribute to project");
    }
    for (const TupleView row : sharp_table->rows()) {
      const Value& delta = row.value(*delta_pos);
      if (delta.is_int() && delta.AsInt() == 0) continue;  // deleted tuple.
      std::vector<Value> values(row.begin(), row.begin() + rel.arity());
      DBREPAIR_RETURN_IF_ERROR(
          out.Insert(rel.name(), std::move(values)).status());
    }
  }
  return out;
}

Result<CardinalityOutcome> CardinalityRepair(
    const Database& db, const std::vector<DenialConstraint>& ics,
    const CardinalityOptions& options) {
  DBREPAIR_ASSIGN_OR_RETURN(const CardinalityProblem problem,
                            BuildCardinalityProblem(db, ics, options));
  DBREPAIR_ASSIGN_OR_RETURN(
      RepairOutcome outcome,
      RepairDatabase(problem.db_sharp, problem.ics_sharp, options.repair));
  DBREPAIR_ASSIGN_OR_RETURN(
      Database projected,
      ProjectDeltas(outcome.repaired, db.schema_ptr()));
  CardinalityOutcome result{std::move(projected), outcome.updates.size(),
                            outcome.stats};
  return result;
}

}  // namespace dbrepair
