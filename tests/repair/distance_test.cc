#include "repair/distance.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "gen/client_buy.h"
#include "gen/paper_example.h"
#include "repair/api.h"
#include "repair/repair_builder.h"

namespace dbrepair {
namespace {

// Delta(d, d') with every row of d matched through a key lookup in d'; the
// reference the row-aligned fast path must reproduce bit for bit.
double LookupOnlyDistance(const DistanceFunction& f, const Database& d,
                          const Database& d_prime) {
  double total = 0.0;
  for (size_t r = 0; r < d.relation_count(); ++r) {
    const RelationSchema& schema = d.table(r).schema();
    for (const TupleView row : d.table(r).rows()) {
      std::vector<Value> key;
      for (const size_t pos : schema.key_positions()) {
        key.push_back(row.value(pos));
      }
      const size_t other = d_prime.table(r).LookupByKey(key).value();
      total += f.TupleDistance(schema, row, d_prime.table(r).row(other));
    }
  }
  return total;
}

// R(ID key, A, B) and S(ID key, TAG key, C, D); every flexible attribute
// has a non-integer weight, so sums depend on their order in the last bit.
std::shared_ptr<const Schema> TwoRelationSchema() {
  auto schema = std::make_shared<Schema>();
  EXPECT_TRUE(schema
                  ->AddRelation(RelationSchema(
                      "R",
                      {AttributeDef{"ID", Type::kInt64, false, 1.0},
                       AttributeDef{"A", Type::kInt64, true, 0.1},
                       AttributeDef{"B", Type::kInt64, true, 0.3}},
                      {"ID"}))
                  .ok());
  EXPECT_TRUE(schema
                  ->AddRelation(RelationSchema(
                      "S",
                      {AttributeDef{"ID", Type::kInt64, false, 1.0},
                       AttributeDef{"TAG", Type::kString, false, 1.0},
                       AttributeDef{"C", Type::kInt64, true, 0.1},
                       AttributeDef{"D", Type::kInt64, true, 0.3}},
                      {"ID", "TAG"}))
                  .ok());
  return schema;
}

std::vector<Value> RowValues(size_t relation, int64_t k) {
  if (relation == 0) {
    return {Value::Int(k), Value::Int(k * 37 % 101), Value::Int(k * 11 % 53)};
  }
  return {Value::Int(k / 2), Value::String(k % 2 == 0 ? "x" : "y"),
          Value::Int(k * 13 % 71), Value::Int(k * 29 % 89)};
}

// Inserts rows 0..n-1 of `relation`; with `permute`, the second half goes
// in reverse, so key matching by row position fails from row n/2 on.
void InsertRows(Database* db, size_t relation, int64_t n, bool permute) {
  const std::string name = db->schema().relations()[relation].name();
  for (int64_t i = 0; i < n; ++i) {
    const int64_t k = permute && i >= n / 2 ? n - 1 - (i - n / 2) : i;
    ASSERT_TRUE(db->Insert(name, RowValues(relation, k)).ok());
  }
}

// Applies the same flexible-attribute updates, located by key.
void ApplyUpdates(Database* db, int64_t n) {
  for (size_t r = 0; r < db->relation_count(); ++r) {
    Table& table = db->mutable_table(r);
    const auto& flexible = table.schema().flexible_positions();
    for (int64_t k = 0; k < n; k += 3) {
      std::vector<Value> key = RowValues(r, k);
      key.resize(table.schema().key_positions().size());
      const size_t row = table.LookupByKey(key).value();
      const size_t attr = flexible[k % flexible.size()];
      ASSERT_TRUE(
          table.UpdateValue(row, attr, Value::Int(k % 7 - 3 + 17 * (k % 5)))
              .ok());
    }
  }
}

// A clone of `d` with `updates` applied (sorted, one per cell).
Database Applied(const Database& d, const std::vector<AppliedUpdate>& updates) {
  Database repaired = d.Clone();
  for (const AppliedUpdate& u : updates) {
    EXPECT_TRUE(repaired.mutable_table(u.tuple.relation)
                    .UpdateValue(u.tuple.row, u.attribute,
                                 Value::Int(u.new_value))
                    .ok());
  }
  return repaired;
}

// Updates every third row's first flexible attribute and every fifth row's
// second one, so every fifteenth tuple carries two updates. Old values are
// read from `d` the way fix generation reads them: a NULL cell reads as 0.
// The list comes out in ascending (relation, row, attribute) order.
std::vector<AppliedUpdate> SomeUpdates(const Database& d) {
  std::vector<AppliedUpdate> updates;
  for (uint32_t r = 0; r < d.relation_count(); ++r) {
    const Table& table = d.table(r);
    const auto& flexible = table.schema().flexible_positions();
    for (uint32_t row = 0; row < table.size(); ++row) {
      for (size_t i = 0; i < 2; ++i) {
        if (row % (i == 0 ? 3 : 5) != 0) continue;
        const auto attr = static_cast<uint32_t>(flexible[i]);
        const Value& old = table.row(row).value(attr);
        const int64_t old_value = old.is_int() ? old.AsInt() : 0;
        updates.push_back(AppliedUpdate{TupleRef{r, row}, attr, old_value,
                                        old_value + 7 - 3 * (row % 5)});
      }
    }
  }
  return updates;
}

TEST(DistanceTest, ScalarL1AndL2) {
  const DistanceFunction l1(DistanceKind::kL1);
  const DistanceFunction l2(DistanceKind::kL2);
  EXPECT_DOUBLE_EQ(l1.ScalarDistance(3, 7), 4.0);
  EXPECT_DOUBLE_EQ(l1.ScalarDistance(7, 3), 4.0);
  EXPECT_DOUBLE_EQ(l1.ScalarDistance(5, 5), 0.0);
  EXPECT_DOUBLE_EQ(l2.ScalarDistance(3, 7), 16.0);
  EXPECT_DOUBLE_EQ(l2.ScalarDistance(7, 3), 16.0);
}

TEST(DistanceTest, TupleDistanceWeighted) {
  // Paper weights alpha = (1, 1/20, 1/2) for (EF, PRC, CF).
  const GeneratedWorkload w = MakePaperTableExample();
  const RelationSchema& schema = w.db.table(0).schema();
  const DistanceFunction l1(DistanceKind::kL1);

  const Tuple t1({Value::String("B1"), Value::Int(1), Value::Int(40),
                  Value::Int(0)});
  Tuple t1_fix = t1;
  t1_fix.set_value(1, Value::Int(0));
  EXPECT_DOUBLE_EQ(l1.TupleDistance(schema, t1.view(), t1_fix.view()), 1.0);

  // Example 2.3: distance of t1 -> (B1, 1, 50, 1) is 10/20 + 1/2 = 1.0.
  Tuple t1_2 = t1;
  t1_2.set_value(2, Value::Int(50));
  t1_2.set_value(3, Value::Int(1));
  EXPECT_DOUBLE_EQ(l1.TupleDistance(schema, t1.view(), t1_2.view()), 1.0);
}

TEST(DistanceTest, TupleDistanceIgnoresHardAttributes) {
  const GeneratedWorkload w = MakePaperTableExample();
  const RelationSchema& schema = w.db.table(0).schema();
  const DistanceFunction l1;
  const Tuple a({Value::String("B1"), Value::Int(1), Value::Int(40),
                 Value::Int(0)});
  const Tuple b({Value::String("ZZ"), Value::Int(1), Value::Int(40),
                 Value::Int(0)});
  EXPECT_DOUBLE_EQ(l1.TupleDistance(schema, a.view(), b.view()), 0.0);
}

TEST(DistanceTest, DatabaseDistanceExample23) {
  // Example 2.3: Delta(D, D1) = 2 where D1 repairs t1 (EF:=0) and t2
  // (EF:=0).
  const GeneratedWorkload w = MakePaperTableExample();
  Database repaired = w.db.Clone();
  ASSERT_TRUE(repaired.mutable_table(0).UpdateValue(0, 1, Value::Int(0)).ok());
  ASSERT_TRUE(repaired.mutable_table(0).UpdateValue(1, 1, Value::Int(0)).ok());
  const DistanceFunction l1;
  EXPECT_DOUBLE_EQ(l1.DatabaseDistance(w.db, repaired).value(), 2.0);

  // D2: t1 -> (B1, 1, 50, 1), t2 -> (C2, 0, 20, 1): distance 2 as well.
  Database d2 = w.db.Clone();
  ASSERT_TRUE(d2.mutable_table(0).UpdateValue(0, 2, Value::Int(50)).ok());
  ASSERT_TRUE(d2.mutable_table(0).UpdateValue(0, 3, Value::Int(1)).ok());
  ASSERT_TRUE(d2.mutable_table(0).UpdateValue(1, 1, Value::Int(0)).ok());
  EXPECT_DOUBLE_EQ(l1.DatabaseDistance(w.db, d2).value(), 2.0);

  // D3: t1 -> (B1, 0, 40, 0), t2 -> (C2, 1, 50, 1): distance 1 + 30/20 = 2.5
  // per Example 2.3's D4... distance of changing t2's PRC 20 -> 50 is 1.5.
  Database d3 = w.db.Clone();
  ASSERT_TRUE(d3.mutable_table(0).UpdateValue(0, 1, Value::Int(0)).ok());
  ASSERT_TRUE(d3.mutable_table(0).UpdateValue(1, 2, Value::Int(50)).ok());
  EXPECT_DOUBLE_EQ(l1.DatabaseDistance(w.db, d3).value(), 2.5);
}

TEST(DistanceTest, DatabaseDistanceRequiresSameSchemaObject) {
  const GeneratedWorkload a = MakePaperTableExample();
  const GeneratedWorkload b = MakePaperTableExample();
  const DistanceFunction l1;
  EXPECT_FALSE(l1.DatabaseDistance(a.db, b.db).ok());
}

TEST(DistanceTest, DatabaseDistanceMatchesByKeyNotRowOrder) {
  const GeneratedWorkload w = MakePaperTableExample();
  // Rebuild the repaired instance with rows inserted in another order.
  Database reordered(w.db.schema_ptr());
  ASSERT_TRUE(reordered
                  .Insert("Paper", {Value::String("E3"), Value::Int(1),
                                    Value::Int(70), Value::Int(1)})
                  .ok());
  ASSERT_TRUE(reordered
                  .Insert("Paper", {Value::String("C2"), Value::Int(0),
                                    Value::Int(20), Value::Int(1)})
                  .ok());
  ASSERT_TRUE(reordered
                  .Insert("Paper", {Value::String("B1"), Value::Int(0),
                                    Value::Int(40), Value::Int(0)})
                  .ok());
  const DistanceFunction l1;
  EXPECT_DOUBLE_EQ(l1.DatabaseDistance(w.db, reordered).value(), 2.0);
}

TEST(DistanceTest, L2SquaresDifferences) {
  const GeneratedWorkload w = MakePaperTableExample();
  Database repaired = w.db.Clone();
  // PRC of t1: 40 -> 50; L2 contribution alpha * 100 = 5.
  ASSERT_TRUE(
      repaired.mutable_table(0).UpdateValue(0, 2, Value::Int(50)).ok());
  const DistanceFunction l2(DistanceKind::kL2);
  EXPECT_DOUBLE_EQ(l2.DatabaseDistance(w.db, repaired).value(), 5.0);
}

TEST(DistanceTest, RowAlignedAndPermutedCopiesAreBitIdentical) {
  constexpr int64_t kRows = 301;
  Database d(TwoRelationSchema());
  Database aligned(d.schema_ptr());
  Database permuted(d.schema_ptr());
  for (size_t r = 0; r < 2; ++r) {
    InsertRows(&d, r, kRows, false);
    InsertRows(&aligned, r, kRows, false);
    // R stays aligned; S is permuted from its middle row on.
    InsertRows(&permuted, r, kRows, r == 1);
  }
  ApplyUpdates(&aligned, kRows);
  ApplyUpdates(&permuted, kRows);
  for (const DistanceKind kind : {DistanceKind::kL1, DistanceKind::kL2}) {
    const DistanceFunction f(kind);
    const double via_rows = f.DatabaseDistance(d, aligned).value();
    EXPECT_GT(via_rows, 0.0);
    EXPECT_EQ(via_rows, f.DatabaseDistance(d, permuted).value());
    EXPECT_EQ(via_rows, LookupOnlyDistance(f, d, aligned));
    EXPECT_EQ(via_rows, LookupOnlyDistance(f, d, permuted));
  }
}

// The update-list sum must equal the row scan bit for bit (EXPECT_EQ, not a
// tolerance): per tuple in attribute order, then across tuples in
// (relation, row) order, with non-unit weights, two updates on one tuple
// and cells that were NULL before the repair.
TEST(DistanceTest, UpdateListSumIsBitIdenticalToDatabaseDistance) {
  constexpr int64_t kRows = 301;
  Database d(TwoRelationSchema());
  for (size_t r = 0; r < 2; ++r) InsertRows(&d, r, kRows, false);
  // Every seventh row's first flexible attribute starts out NULL.
  for (size_t r = 0; r < 2; ++r) {
    Table& table = d.mutable_table(r);
    const size_t attr = table.schema().flexible_positions()[0];
    for (size_t row = 0; row < table.size(); row += 7) {
      ASSERT_TRUE(table.UpdateValue(row, attr, Value()).ok());
    }
  }
  const std::vector<AppliedUpdate> updates = SomeUpdates(d);
  const Database repaired = Applied(d, updates);

  size_t from_null = 0;
  size_t two_on_one_tuple = 0;
  for (size_t i = 0; i < updates.size(); ++i) {
    const AppliedUpdate& u = updates[i];
    if (d.tuple(u.tuple).value(u.attribute).is_null()) ++from_null;
    if (i > 0 && updates[i - 1].tuple == u.tuple) ++two_on_one_tuple;
  }
  ASSERT_GT(from_null, 0u);
  ASSERT_GT(two_on_one_tuple, 0u);

  for (const DistanceKind kind : {DistanceKind::kL1, DistanceKind::kL2}) {
    const DistanceFunction f(kind);
    const double via_updates = f.UpdatesDistance(d.schema(), updates);
    EXPECT_GT(via_updates, 0.0);
    EXPECT_EQ(via_updates, f.DatabaseDistance(d, repaired).value());
  }
}

TEST(DistanceTest, UpdateListSumOnThePaperExample) {
  // Example 2.3's D2: t1 -> (B1, 1, 50, 1) and t2 -> (C2, 0, 20, 1), two
  // updates on t1 with weights 1/20 and 1/2.
  const GeneratedWorkload w = MakePaperTableExample();
  const std::vector<AppliedUpdate> updates = {
      {TupleRef{0, 0}, 2, 40, 50},
      {TupleRef{0, 0}, 3, 0, 1},
      {TupleRef{0, 1}, 1, 1, 0},
  };
  const Database repaired = Applied(w.db, updates);
  for (const DistanceKind kind : {DistanceKind::kL1, DistanceKind::kL2}) {
    const DistanceFunction f(kind);
    EXPECT_EQ(f.UpdatesDistance(w.db.schema(), updates),
              f.DatabaseDistance(w.db, repaired).value());
  }
  EXPECT_DOUBLE_EQ(DistanceFunction(DistanceKind::kL1)
                       .UpdatesDistance(w.db.schema(), updates),
                   2.0);
}

TEST(DistanceTest, EmptyUpdateListSumsToExactZero) {
  const GeneratedWorkload w = MakePaperTableExample();
  for (const DistanceKind kind : {DistanceKind::kL1, DistanceKind::kL2}) {
    const DistanceFunction f(kind);
    const double sum = f.UpdatesDistance(w.db.schema(), {});
    EXPECT_EQ(sum, 0.0);
    EXPECT_FALSE(std::signbit(sum));
    EXPECT_EQ(sum, f.DatabaseDistance(w.db, w.db.Clone()).value());
  }
}

TEST(DistanceTest, ExecuteRepairReportsTheRecomputedDistance) {
  ClientBuyOptions gen;
  gen.num_clients = 2'000;
  gen.seed = 11;
  const GeneratedWorkload client_buy = GenerateClientBuy(gen).value();
  const GeneratedWorkload paper = MakePaperTableExample();
  for (const GeneratedWorkload* w : {&client_buy, &paper}) {
    for (const DistanceKind kind : {DistanceKind::kL1, DistanceKind::kL2}) {
      RepairRequest request{&w->db, w->ics, {}};
      request.options.distance = kind;
      request.options.num_threads = 2;
      const auto response = ExecuteRepair(request);
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      const RepairOutcome& outcome = response.value().outcome;
      EXPECT_GT(outcome.stats.distance, 0.0);
      EXPECT_EQ(outcome.stats.distance,
                DistanceFunction(kind)
                    .DatabaseDistance(w->db, outcome.repaired)
                    .value());
    }
  }
}

}  // namespace
}  // namespace dbrepair
