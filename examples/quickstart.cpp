// Quickstart: repair the paper's running example (Example 1.1 / 2.3).
//
// Builds the Paper(ID, EF, PRC, CF) table, declares the two denial
// constraints over environmentally friendly papers, runs the approximate
// repair pipeline, and prints the instance before and after.

#include <cstdio>
#include <iostream>

#include "constraints/parser.h"
#include "repair/api.h"
#include "storage/database.h"

using namespace dbrepair;  // NOLINT(build/namespaces): example code.

namespace {

void PrintTable(const Database& db, const char* title) {
  std::printf("%s\n", title);
  const Table& paper = *db.FindTable("Paper");
  std::printf("  %-4s %-3s %-4s %-3s\n", "ID", "EF", "PRC", "CF");
  for (const TupleView row : paper.rows()) {
    std::printf("  %-4s %-3lld %-4lld %-3lld\n",
                row.value(0).AsString().c_str(),
                static_cast<long long>(row.value(1).AsInt()),
                static_cast<long long>(row.value(2).AsInt()),
                static_cast<long long>(row.value(3).AsInt()));
  }
}

}  // namespace

int main() {
  // ---- 1. Declare the schema: ID is the key, the rest is flexible. ----
  auto schema = std::make_shared<Schema>();
  Status st = schema->AddRelation(RelationSchema(
      "Paper",
      {
          AttributeDef{"ID", Type::kString, /*flexible=*/false, 1.0},
          AttributeDef{"EF", Type::kInt64, /*flexible=*/true, 1.0},
          AttributeDef{"PRC", Type::kInt64, /*flexible=*/true, 1.0 / 20},
          AttributeDef{"CF", Type::kInt64, /*flexible=*/true, 0.5},
      },
      {"ID"}));
  if (!st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 1;
  }

  // ---- 2. Load the inconsistent instance. ----
  Database db(schema);
  for (const auto& [id, ef, prc, cf] :
       {std::tuple{"B1", 1, 40, 0}, std::tuple{"C2", 1, 20, 1},
        std::tuple{"E3", 1, 70, 1}}) {
    auto ref = db.Insert("Paper", {Value::String(id), Value::Int(ef),
                                   Value::Int(prc), Value::Int(cf)});
    if (!ref.ok()) {
      std::cerr << ref.status().ToString() << "\n";
      return 1;
    }
  }

  // ---- 3. The constraints: EF = 1 requires PRC >= 50 and CF = 1. ----
  auto ics = ParseConstraintSet(
      "ic1: :- Paper(x, y, z, w), y > 0, z < 50\n"
      "ic2: :- Paper(x, y, z, w), y > 0, w < 1\n");
  if (!ics.ok()) {
    std::cerr << ics.status().ToString() << "\n";
    return 1;
  }

  PrintTable(db, "Inconsistent instance D:");

  // ---- 4. Repair with the modified greedy (the paper's Algorithm 6). ----
  RepairOptions options;
  options.solver = SolverKind::kModifiedGreedy;
  auto outcome = RepairDatabase(db, *ics, options);
  if (!outcome.ok()) {
    std::cerr << outcome.status().ToString() << "\n";
    return 1;
  }

  PrintTable(outcome->repaired, "\nApproximate repair D':");
  const RepairStats& stats = outcome->stats;
  std::printf(
      "\nviolation sets: %zu, candidate fixes: %zu, chosen: %zu\n"
      "cover weight: %.3f, Delta(D, D') = %.3f\n",
      stats.num_violations, stats.num_candidate_fixes,
      stats.num_chosen_fixes, stats.cover_weight, stats.distance);
  for (const AppliedUpdate& update : outcome->updates) {
    const Table& table = db.table(update.tuple.relation);
    std::printf("  update: %s[%s] %s: %lld -> %lld\n",
                table.schema().name().c_str(),
                table.row(update.tuple.row).value(0).ToString().c_str(),
                table.schema().attribute(update.attribute).name.c_str(),
                static_cast<long long>(update.old_value),
                static_cast<long long>(update.new_value));
  }
  return 0;
}
