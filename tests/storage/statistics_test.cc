#include "storage/statistics.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "storage/column_view.h"
#include "storage/database.h"

namespace dbrepair {
namespace {

// A database of one relation "R" keyed on its first attribute.
Database MakeDatabase(std::vector<AttributeDef> attributes) {
  const std::string key = attributes.front().name;
  auto schema = std::make_shared<Schema>();
  EXPECT_TRUE(
      schema->AddRelation(RelationSchema("R", std::move(attributes), {key}))
          .ok());
  return Database(std::move(schema));
}

// The planner statistics of relation R, as the violation engine derives
// them: from a snapshot of the database plus its row store.
TableStats Stats(const Database& db) {
  const ColumnSnapshot snapshot = ColumnSnapshot::Build(db);
  return ComputeColumnStats(snapshot.relation(0), db.table(0));
}

Database KeyAndX() {
  return MakeDatabase({AttributeDef{"K", Type::kInt64, false, 1.0},
                       AttributeDef{"X", Type::kInt64, true, 1.0}});
}

class StatisticsTest : public ::testing::Test {
 protected:
  StatisticsTest()
      : db_(MakeDatabase({AttributeDef{"K", Type::kInt64, false, 1.0},
                          AttributeDef{"X", Type::kInt64, true, 1.0},
                          AttributeDef{"S", Type::kString, false, 1.0}})) {
    // X: 0, 10, 20, ..., 90; S alternates "a"/"b"; one NULL X at key 100.
    for (int i = 0; i < 10; ++i) {
      EXPECT_TRUE(db_.Insert("R", {Value::Int(i), Value::Int(10 * i),
                                   Value::String(i % 2 == 0 ? "a" : "b")})
                      .ok());
    }
    EXPECT_TRUE(
        db_.Insert("R", {Value::Int(100), Value(), Value::String("a")}).ok());
  }

  Database db_;
};

TEST_F(StatisticsTest, ComputesCountsAndRanges) {
  const TableStats stats = Stats(db_);
  EXPECT_EQ(stats.row_count, 11u);
  ASSERT_EQ(stats.columns.size(), 3u);

  EXPECT_EQ(stats.columns[1].non_null, 10u);
  EXPECT_TRUE(stats.columns[1].has_range);
  EXPECT_DOUBLE_EQ(stats.columns[1].min, 0.0);
  EXPECT_DOUBLE_EQ(stats.columns[1].max, 90.0);
  EXPECT_EQ(stats.columns[1].distinct, 10u);

  EXPECT_EQ(stats.columns[2].non_null, 11u);
  EXPECT_FALSE(stats.columns[2].has_range);
  EXPECT_EQ(stats.columns[2].distinct, 2u);
}

TEST_F(StatisticsTest, EqualitySelectivityUsesDistinct) {
  const TableStats stats = Stats(db_);
  // X = c: non-null fraction (10/11) / 10 distinct.
  EXPECT_NEAR(EstimateSelectivity(stats, 1, CompareOp::kEq, Value::Int(40)),
              (10.0 / 11.0) / 10.0, 1e-12);
  // S = 'a': (11/11) / 2.
  EXPECT_NEAR(
      EstimateSelectivity(stats, 2, CompareOp::kEq, Value::String("a")),
      0.5, 1e-12);
  // Disequality is the complement within non-nulls.
  EXPECT_NEAR(EstimateSelectivity(stats, 1, CompareOp::kNe, Value::Int(40)),
              (10.0 / 11.0) * 0.9, 1e-12);
}

TEST_F(StatisticsTest, RangeSelectivityInterpolates) {
  const TableStats stats = Stats(db_);
  const double non_null = 10.0 / 11.0;
  // X < 45: exactly 5 of the 10 non-null values; the equi-depth histogram
  // puts the estimate within one bucket of the truth.
  EXPECT_NEAR(EstimateSelectivity(stats, 1, CompareOp::kLt, Value::Int(45)),
              non_null * 0.5, 0.1);
  // X > 90: nothing above the max.
  EXPECT_NEAR(EstimateSelectivity(stats, 1, CompareOp::kGt, Value::Int(90)),
              0.0, 1e-12);
  // X < -5: clamped to zero.
  EXPECT_NEAR(EstimateSelectivity(stats, 1, CompareOp::kLt, Value::Int(-5)),
              0.0, 1e-12);
  // X > -5: everything.
  EXPECT_NEAR(EstimateSelectivity(stats, 1, CompareOp::kGt, Value::Int(-5)),
              non_null, 1e-12);
}

TEST_F(StatisticsTest, HistogramShape) {
  const TableStats stats = Stats(db_);
  const ColumnStats& col = stats.columns[1];
  // 10 numeric values -> 10 buckets of one value each.
  ASSERT_EQ(col.bucket_upper.size(), 10u);
  EXPECT_DOUBLE_EQ(col.bucket_upper.front(), 0.0);
  EXPECT_DOUBLE_EQ(col.bucket_upper.back(), 90.0);
  EXPECT_EQ(col.bucket_cumulative.back(), 10u);
  // String column: no histogram.
  EXPECT_TRUE(stats.columns[2].bucket_upper.empty());
}

TEST(StatisticsSkewTest, HistogramBeatsUniformOnSkewedData) {
  // 990 values at 0..9, 10 values at ~1000: the uniform model puts
  // "X < 100" at ~10%, but ~99% of the data is below 100.
  Database db = KeyAndX();
  for (int i = 0; i < 1000; ++i) {
    const int64_t x = i < 990 ? i % 10 : 1000 + i;
    EXPECT_TRUE(db.Insert("R", {Value::Int(i), Value::Int(x)}).ok());
  }
  const TableStats stats = Stats(db);
  const double est =
      EstimateSelectivity(stats, 1, CompareOp::kLt, Value::Int(100));
  EXPECT_GT(est, 0.9);  // the uniform model would say ~0.05
  const double est_high =
      EstimateSelectivity(stats, 1, CompareOp::kGt, Value::Int(500));
  EXPECT_LT(est_high, 0.1);
}

TEST_F(StatisticsTest, StringRangeFallsBackToThird) {
  const TableStats stats = Stats(db_);
  EXPECT_NEAR(
      EstimateSelectivity(stats, 2, CompareOp::kLt, Value::String("m")),
      1.0 / 3.0, 1e-12);
}

TEST(StatisticsEdgeTest, EmptyTable) {
  const Database db =
      MakeDatabase({AttributeDef{"K", Type::kInt64, false, 1.0}});
  const TableStats stats = Stats(db);
  EXPECT_EQ(stats.row_count, 0u);
  EXPECT_DOUBLE_EQ(
      EstimateSelectivity(stats, 0, CompareOp::kLt, Value::Int(5)), 1.0);
}

TEST(StatisticsEdgeTest, ConstantColumn) {
  Database db = KeyAndX();
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(db.Insert("R", {Value::Int(i), Value::Int(7)}).ok());
  }
  const TableStats stats = Stats(db);
  EXPECT_EQ(stats.columns[1].distinct, 1u);
  // Zero span: everything below c for c > min, nothing otherwise.
  EXPECT_DOUBLE_EQ(
      EstimateSelectivity(stats, 1, CompareOp::kLt, Value::Int(9)), 1.0);
  EXPECT_DOUBLE_EQ(
      EstimateSelectivity(stats, 1, CompareOp::kLt, Value::Int(5)), 0.0);
  EXPECT_DOUBLE_EQ(
      EstimateSelectivity(stats, 1, CompareOp::kGt, Value::Int(5)), 1.0);
}

TEST(StatisticsEdgeTest, AllNullColumnHasZeroSelectivity) {
  Database db = KeyAndX();
  EXPECT_TRUE(db.Insert("R", {Value::Int(1), Value()}).ok());
  const TableStats stats = Stats(db);
  EXPECT_DOUBLE_EQ(
      EstimateSelectivity(stats, 1, CompareOp::kGt, Value::Int(0)), 0.0);
}

TEST(StatisticsEdgeTest, UncleanColumnSkipsNullPlaceholders) {
  // The snapshot stores 0 for each NULL; statistics must read neither.
  Database db = KeyAndX();
  const Value xs[] = {Value(), Value::Int(5), Value::Int(7), Value()};
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(db.Insert("R", {Value::Int(i), xs[i]}).ok());
  }
  const TableStats stats = Stats(db);
  const ColumnStats& col = stats.columns[1];
  EXPECT_EQ(col.non_null, 2u);
  EXPECT_TRUE(col.has_range);
  EXPECT_DOUBLE_EQ(col.min, 5.0);
  EXPECT_DOUBLE_EQ(col.max, 7.0);
  EXPECT_EQ(col.distinct, 2u);
  ASSERT_FALSE(col.bucket_cumulative.empty());
  EXPECT_EQ(col.bucket_cumulative.back(), col.non_null);
}

TEST(StatisticsEdgeTest, SampledUncleanColumnScalesToNonNull) {
  // Past 2048 rows the sample is strided: the exact fields stay exact and
  // the histogram's total is the non-null count, not the row count.
  Database db = KeyAndX();
  size_t non_null = 0;
  for (int i = 0; i < 10000; ++i) {
    const bool null = i % 3 == 0;
    if (!null) ++non_null;
    EXPECT_TRUE(db.Insert("R", {Value::Int(i),
                                null ? Value() : Value::Int(i % 50 + 1)})
                    .ok());
  }
  const TableStats stats = Stats(db);
  const ColumnStats& col = stats.columns[1];
  EXPECT_EQ(col.non_null, non_null);
  EXPECT_DOUBLE_EQ(col.min, 1.0);
  EXPECT_DOUBLE_EQ(col.max, 50.0);
  EXPECT_GE(col.distinct, 1u);
  EXPECT_LE(col.distinct, non_null);
  ASSERT_FALSE(col.bucket_cumulative.empty());
  EXPECT_EQ(col.bucket_cumulative.back(), non_null);
}

}  // namespace
}  // namespace dbrepair
