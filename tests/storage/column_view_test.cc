#include "storage/column_view.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>

#include "catalog/schema.h"
#include "storage/database.h"
#include "storage/statistics.h"

namespace dbrepair {
namespace {

std::shared_ptr<Schema> MakeSchema() {
  auto schema = std::make_shared<Schema>();
  EXPECT_TRUE(schema
                  ->AddRelation(RelationSchema(
                      "T",
                      {AttributeDef{"K", Type::kInt64, false, 1.0},
                       AttributeDef{"S", Type::kString, false, 1.0},
                       AttributeDef{"D", Type::kDouble, false, 1.0},
                       AttributeDef{"A", Type::kInt64, true, 1.0}},
                      {"K"}))
                  .ok());
  EXPECT_TRUE(schema
                  ->AddRelation(RelationSchema(
                      "U",
                      {AttributeDef{"K2", Type::kInt64, false, 1.0},
                       AttributeDef{"S2", Type::kString, false, 1.0}},
                      {"K2"}))
                  .ok());
  return schema;
}

TEST(ColumnViewTest, BuildTypesAndValues) {
  Database db(MakeSchema());
  ASSERT_TRUE(db.Insert("T", {Value::Int(1), Value::String("x"),
                              Value::Double(2.5), Value::Int(7)})
                  .ok());
  ASSERT_TRUE(db.Insert("T", {Value::Int(2), Value::String("y"),
                              Value::Int(3), Value::Int(8)})
                  .ok());
  const ColumnSnapshot snap = ColumnSnapshot::Build(db);
  ASSERT_TRUE(snap.valid());
  ASSERT_EQ(snap.relation_count(), 2u);
  const RelationColumns& rel = snap.relation(0);
  ASSERT_EQ(rel.row_count, 2u);
  ASSERT_EQ(rel.columns.size(), 4u);
  EXPECT_EQ(rel.columns[0].ints, (std::vector<int64_t>{1, 2}));
  // An int Value in a kDouble column is stored as its exact double image.
  EXPECT_EQ(rel.columns[2].doubles, (std::vector<double>{2.5, 3.0}));
  EXPECT_TRUE(rel.columns[2].clean());
  // Distinct strings get distinct non-null codes.
  const ColumnData& s = rel.columns[1];
  EXPECT_NE(s.codes[0], s.codes[1]);
  EXPECT_NE(s.codes[0], StringInterner::kNullCode);
}

TEST(ColumnViewTest, InterningSharesCodesAcrossColumnsAndRelations) {
  Database db(MakeSchema());
  ASSERT_TRUE(db.Insert("T", {Value::Int(1), Value::String("shared"),
                              Value::Double(0.0), Value::Int(0)})
                  .ok());
  ASSERT_TRUE(db.Insert("U", {Value::Int(1), Value::String("shared")}).ok());
  ASSERT_TRUE(db.Insert("U", {Value::Int(2), Value::String("only-u")}).ok());
  const ColumnSnapshot snap = ColumnSnapshot::Build(db);
  // One dictionary per snapshot: equal strings share one code everywhere,
  // so cross-relation string joins compare codes directly.
  EXPECT_EQ(snap.relation(0).columns[1].codes[0],
            snap.relation(1).columns[1].codes[0]);
  EXPECT_NE(snap.relation(1).columns[1].codes[0],
            snap.relation(1).columns[1].codes[1]);
  EXPECT_EQ(snap.interner().Find("shared"),
            snap.relation(0).columns[1].codes[0]);
  EXPECT_EQ(snap.interner().Find("absent"), StringInterner::kNullCode);
}

TEST(ColumnViewTest, NullsAndLossyValuesMarkColumnsUnclean) {
  Database db(MakeSchema());
  ASSERT_TRUE(db.Insert("T", {Value::Int(1), Value(),
                              Value::Double(std::nan("")), Value::Int(0)})
                  .ok());
  // An int beyond 2^53 in a DOUBLE column has no exact double image.
  ASSERT_TRUE(db.Insert("T", {Value::Int(2), Value::String("s"),
                              Value::Int(kColumnarExactIntBound + 1),
                              Value::Int(1)})
                  .ok());
  const ColumnSnapshot snap = ColumnSnapshot::Build(db);
  const RelationColumns& rel = snap.relation(0);
  EXPECT_TRUE(rel.columns[0].clean());
  EXPECT_TRUE(rel.columns[1].has_nulls);
  EXPECT_FALSE(rel.columns[1].clean());
  EXPECT_TRUE(rel.columns[2].lossy);
  EXPECT_FALSE(rel.columns[2].clean());
  EXPECT_EQ(rel.columns[1].codes[0], StringInterner::kNullCode);
}

TEST(ColumnViewTest, KeyCodeEqualityMatchesValueEquality) {
  Database db(MakeSchema());
  ASSERT_TRUE(db.Insert("T", {Value::Int(1), Value::String("a"),
                              Value::Double(-0.0), Value::Int(0)})
                  .ok());
  ASSERT_TRUE(db.Insert("T", {Value::Int(2), Value::String("a"),
                              Value::Int(0), Value::Int(0)})
                  .ok());
  const ColumnSnapshot snap = ColumnSnapshot::Build(db);
  const RelationColumns& rel = snap.relation(0);
  // -0.0 is normalised at build time, so the code matches int 0's double
  // image — KeyCode equality tracks Value equality on clean columns.
  EXPECT_EQ(rel.columns[2].KeyCode(0), rel.columns[2].KeyCode(1));
  EXPECT_EQ(rel.columns[1].KeyCode(0), rel.columns[1].KeyCode(1));
  EXPECT_NE(rel.columns[0].KeyCode(0), rel.columns[0].KeyCode(1));
}

TEST(ColumnViewTest, RebaseRebuildsOnlyDirtyRelations) {
  Database db(MakeSchema());
  ASSERT_TRUE(db.Insert("T", {Value::Int(1), Value::String("a"),
                              Value::Double(1.0), Value::Int(10)})
                  .ok());
  ASSERT_TRUE(db.Insert("U", {Value::Int(1), Value::String("b")}).ok());
  const ColumnSnapshot base = ColumnSnapshot::Build(db);

  // Mutate relation T only (the repair pipeline's in-place update).
  ASSERT_TRUE(db.mutable_table(0).UpdateValue(0, 3, Value::Int(99)).ok());
  const ColumnSnapshot rebased = base.Rebase(db, {0});

  // The dirty relation reflects the update; the clean relation's column
  // storage is shared with the base snapshot, not copied.
  EXPECT_EQ(rebased.relation(0).columns[3].ints[0], 99);
  EXPECT_EQ(&rebased.relation(1), &base.relation(1));
  // New strings appearing in the dirty relation extend the shared
  // dictionary without disturbing existing codes.
  ASSERT_TRUE(db.mutable_table(0)
                  .UpdateValue(0, 1, Value::String("fresh"))
                  .ok());
  const ColumnSnapshot again = rebased.Rebase(db, {0});
  EXPECT_NE(again.relation(0).columns[1].codes[0],
            StringInterner::kNullCode);
  EXPECT_EQ(again.interner().Find("b"), base.interner().Find("b"));
}

TEST(ColumnViewTest, PatchCellsRewritesOnlyTheListedCells) {
  Database db(MakeSchema());
  ASSERT_TRUE(db.Insert("T", {Value::Int(1), Value::String("a"),
                              Value::Double(1.0), Value()})
                  .ok());
  ASSERT_TRUE(db.Insert("T", {Value::Int(2), Value::String("b"),
                              Value::Double(2.0), Value::Int(20)})
                  .ok());
  ASSERT_TRUE(db.Insert("U", {Value::Int(1), Value::String("c")}).ok());
  ColumnSnapshot patched = ColumnSnapshot::Build(db);
  const ColumnSnapshot shared = patched;  // aliases every relation
  ASSERT_TRUE(patched.relation(0).columns[3].has_nulls);

  // An int over the column's only NULL, an int over an int, and a new
  // string, all in T.
  ASSERT_TRUE(db.mutable_table(0).UpdateValue(0, 3, Value::Int(7)).ok());
  ASSERT_TRUE(db.mutable_table(0).UpdateValue(1, 3, Value::Int(21)).ok());
  ASSERT_TRUE(
      db.mutable_table(0).UpdateValue(1, 1, Value::String("fresh")).ok());
  patched.PatchCells(db, {CellRef{TupleRef{0, 0}, 3},
                          CellRef{TupleRef{0, 1}, 3},
                          CellRef{TupleRef{0, 1}, 1}});

  // The sharing snapshot is untouched: T was copied before the patch, U
  // is still shared by both.
  EXPECT_NE(&patched.relation(0), &shared.relation(0));
  EXPECT_EQ(&patched.relation(1), &shared.relation(1));
  EXPECT_EQ(shared.relation(0).columns[3].ints, (std::vector<int64_t>{0, 20}));
  EXPECT_EQ(shared.relation(0).columns[1].codes[1], shared.interner().Find("b"));

  // The flags only ever get set: the column keeps reading as unclean.
  const ColumnData& a = patched.relation(0).columns[3];
  EXPECT_TRUE(a.has_nulls);
  EXPECT_EQ(patched.relation(0).columns[1].codes[1],
            patched.interner().Find("fresh"));
  EXPECT_NE(patched.interner().Find("fresh"), StringInterner::kNullCode);

  // Every int and double column equals a fresh build's.
  const ColumnSnapshot fresh = ColumnSnapshot::Build(db);
  for (uint32_t r = 0; r < db.relation_count(); ++r) {
    for (size_t c = 0; c < fresh.relation(r).columns.size(); ++c) {
      EXPECT_EQ(patched.relation(r).columns[c].ints,
                fresh.relation(r).columns[c].ints)
          << "relation " << r << " column " << c;
      EXPECT_EQ(patched.relation(r).columns[c].doubles,
                fresh.relation(r).columns[c].doubles)
          << "relation " << r << " column " << c;
    }
  }
  EXPECT_FALSE(fresh.relation(0).columns[3].has_nulls);

  // A snapshot that holds its relations alone is patched in place.
  const RelationColumns* before = &patched.relation(0);
  ASSERT_TRUE(db.mutable_table(0).UpdateValue(0, 3, Value::Int(8)).ok());
  patched.PatchCells(db, {CellRef{TupleRef{0, 0}, 3}});
  EXPECT_EQ(&patched.relation(0), before);
  EXPECT_EQ(patched.relation(0).columns[3].ints[0], 8);
}

// Reference for the exact fields of ComputeColumnStats: one scan of the
// row store's Values counting non-NULL cells and the numeric range.
TableStats ExactRowStats(const Table& table) {
  TableStats stats;
  stats.row_count = table.size();
  const size_t arity = table.schema().arity();
  stats.columns.resize(arity);
  for (const TupleView row : table.rows()) {
    for (size_t c = 0; c < arity; ++c) {
      const Value& v = row.value(c);
      if (v.is_null()) continue;
      ColumnStats& col = stats.columns[c];
      ++col.non_null;
      if (!(v.is_int() || v.is_double())) continue;
      const double x = v.AsNumeric();
      if (!col.has_range) {
        col.has_range = true;
        col.min = col.max = x;
      } else {
        col.min = std::min(col.min, x);
        col.max = std::max(col.max, x);
      }
    }
  }
  return stats;
}

TEST(ColumnViewTest, ColumnStatsMatchRowStatsOnExactFields) {
  Database db(MakeSchema());
  // 5000 rows, so the sample is strided; A is NULL on every fifth row, so
  // its column is unclean and read from the row store.
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(db.Insert("T", {Value::Int(i),
                                Value::String("s" + std::to_string(i % 7)),
                                Value::Double(i * 0.5),
                                i % 5 == 0 ? Value() : Value::Int(i % 3 - 1)})
                    .ok());
  }
  const ColumnSnapshot snap = ColumnSnapshot::Build(db);
  ASSERT_FALSE(snap.relation(0).columns[3].clean());
  const TableStats row = ExactRowStats(db.table(0));
  const TableStats col = ComputeColumnStats(snap.relation(0), db.table(0));
  ASSERT_EQ(col.row_count, row.row_count);
  ASSERT_EQ(col.columns.size(), row.columns.size());
  for (size_t c = 0; c < col.columns.size(); ++c) {
    const ColumnStats& got = col.columns[c];
    const ColumnStats& want = row.columns[c];
    EXPECT_EQ(got.non_null, want.non_null) << c;
    EXPECT_EQ(got.has_range, want.has_range) << c;
    if (want.has_range) {
      // Min/max are exact; the histogram's total is the non-null count.
      EXPECT_EQ(got.min, want.min) << c;
      EXPECT_EQ(got.max, want.max) << c;
      ASSERT_FALSE(got.bucket_cumulative.empty()) << c;
      EXPECT_EQ(got.bucket_cumulative.back(), want.non_null) << c;
    }
    // Distinct counts are sample estimates, only sanity-bounded here.
    EXPECT_GE(got.distinct, 1u) << c;
    EXPECT_LE(got.distinct, want.non_null) << c;
  }
}

}  // namespace
}  // namespace dbrepair
