// Cardinality repairs (Section 5): repair by deleting a minimum number of
// tuples, computed through the delta-attribute transformation and the same
// set-cover machinery.
//
// Part 1 walks Example 5.4. Part 2 shows the "one tuple contradicts a
// thousand" motivation. Part 3 biases deletions away from a protected table
// via per-relation weights (the conclusion's remark).

#include <cstdio>
#include <iostream>

#include "constraints/parser.h"
#include "gen/paper_example.h"
#include "repair/cardinality.h"

using namespace dbrepair;  // NOLINT(build/namespaces): example code.

namespace {

void Dump(const Database& db) {
  for (size_t r = 0; r < db.relation_count(); ++r) {
    const Table& table = db.table(r);
    for (const TupleView row : table.rows()) {
      std::printf("  %s%s\n", table.schema().name().c_str(),
                  row.ToString().c_str());
    }
  }
}

int Fail(const Status& status) {
  std::cerr << status.ToString() << "\n";
  return 1;
}

}  // namespace

int main() {
  // ---- Part 1: Example 5.4. ----
  std::printf("== Example 5.4 ==\n");
  const GeneratedWorkload example = MakeCardinalityExample();
  std::printf("inconsistent instance:\n");
  Dump(example.db);
  for (const DenialConstraint& ic : example.ics) {
    std::printf("  %s\n", ic.ToString().c_str());
  }

  CardinalityOptions options;
  options.repair.solver = SolverKind::kExact;
  auto outcome = CardinalityRepair(example.db, example.ics, options);
  if (!outcome.ok()) return Fail(outcome.status());
  std::printf("cardinality repair deletes %zu tuples:\n", outcome->deletions);
  Dump(outcome->repaired);

  // ---- Part 2: one tuple contradicting many. ----
  std::printf("\n== One tuple vs. five hundred ==\n");
  auto schema = std::make_shared<Schema>();
  Status st = schema->AddRelation(
      RelationSchema("Emp",
                     {AttributeDef{"ID", Type::kInt64, false, 1.0},
                      AttributeDef{"Dept", Type::kInt64, false, 1.0},
                      AttributeDef{"Salary", Type::kInt64, false, 1.0}},
                     {"ID"}));
  if (!st.ok()) return Fail(st);
  Database db(schema);
  auto inserted =
      db.Insert("Emp", {Value::Int(0), Value::Int(1), Value::Int(10)});
  if (!inserted.ok()) return Fail(inserted.status());
  for (int i = 1; i <= 500; ++i) {
    inserted =
        db.Insert("Emp", {Value::Int(i), Value::Int(1), Value::Int(100)});
    if (!inserted.ok()) return Fail(inserted.status());
  }
  auto ics = ParseConstraintSet(
      ":- Emp(x, d, s1), Emp(y, d, s2), s1 < 50, s2 > 50\n");
  if (!ics.ok()) return Fail(ics.status());

  CardinalityOptions greedy_options;
  greedy_options.repair.solver = SolverKind::kModifiedGreedy;
  outcome = CardinalityRepair(db, *ics, greedy_options);
  if (!outcome.ok()) return Fail(outcome.status());
  std::printf(
      "set semantics would allow deleting all 500 high earners;\n"
      "cardinality semantics deletes %zu tuple(s), %zu remain\n",
      outcome->deletions, outcome->repaired.TotalTuples());

  // ---- Part 3: protecting a table with per-relation weights. ----
  std::printf("\n== Biased deletions (alpha_P = 0.4, alpha_T = 1.0) ==\n");
  CardinalityOptions biased;
  biased.repair.solver = SolverKind::kExact;
  biased.relation_alpha["P"] = 0.4;
  biased.relation_alpha["T"] = 1.0;
  outcome = CardinalityRepair(example.db, example.ics, biased);
  if (!outcome.ok()) return Fail(outcome.status());
  std::printf("repair deletes %zu tuples, protecting T:\n",
              outcome->deletions);
  Dump(outcome->repaired);
  return 0;
}
