#include "storage/table.h"

#include <gtest/gtest.h>

namespace dbrepair {
namespace {

class TableTest : public ::testing::Test {
 protected:
  TableTest()
      : schema_("Client",
                {AttributeDef{"ID", Type::kInt64, false, 1.0},
                 AttributeDef{"A", Type::kInt64, true, 1.0},
                 AttributeDef{"C", Type::kInt64, true, 1.0}},
                {"ID"}),
        table_(&schema_) {}

  RelationSchema schema_;
  Table table_;
};

TEST_F(TableTest, InsertAndRead) {
  const auto row = table_.Insert(
      Tuple({Value::Int(1), Value::Int(20), Value::Int(30)}));
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row.value(), 0u);
  EXPECT_EQ(table_.size(), 1u);
  EXPECT_EQ(table_.row(0).value(1), Value::Int(20));
}

TEST_F(TableTest, RejectsArityMismatch) {
  EXPECT_FALSE(table_.Insert(Tuple({Value::Int(1)})).ok());
}

TEST_F(TableTest, RejectsTypeMismatch) {
  const auto res = table_.Insert(
      Tuple({Value::String("x"), Value::Int(1), Value::Int(2)}));
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(TableTest, AllowsNulls) {
  EXPECT_TRUE(
      table_.Insert(Tuple({Value::Int(1), Value(), Value::Int(2)})).ok());
}

TEST_F(TableTest, RejectsDuplicateKey) {
  ASSERT_TRUE(table_
                  .Insert(Tuple({Value::Int(1), Value::Int(2),
                                 Value::Int(3)}))
                  .ok());
  const auto res =
      table_.Insert(Tuple({Value::Int(1), Value::Int(9), Value::Int(9)}));
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kKeyViolation);
}

TEST_F(TableTest, LookupByKey) {
  ASSERT_TRUE(table_
                  .Insert(Tuple({Value::Int(7), Value::Int(2),
                                 Value::Int(3)}))
                  .ok());
  EXPECT_EQ(table_.LookupByKey({Value::Int(7)}).value(), 0u);
  EXPECT_EQ(table_.LookupByKey({Value::Int(8)}).status().code(),
            StatusCode::kNotFound);
}

TEST_F(TableTest, UpdateFlexibleValue) {
  ASSERT_TRUE(table_
                  .Insert(Tuple({Value::Int(1), Value::Int(2),
                                 Value::Int(3)}))
                  .ok());
  ASSERT_TRUE(table_.UpdateValue(0, 1, Value::Int(99)).ok());
  EXPECT_EQ(table_.row(0).value(1), Value::Int(99));
}

TEST_F(TableTest, UpdateRejectsKeyAttribute) {
  ASSERT_TRUE(table_
                  .Insert(Tuple({Value::Int(1), Value::Int(2),
                                 Value::Int(3)}))
                  .ok());
  EXPECT_FALSE(table_.UpdateValue(0, 0, Value::Int(5)).ok());
}

TEST_F(TableTest, UpdateRejectsOutOfRange) {
  EXPECT_EQ(table_.UpdateValue(3, 1, Value::Int(5)).code(),
            StatusCode::kOutOfRange);
  ASSERT_TRUE(table_
                  .Insert(Tuple({Value::Int(1), Value::Int(2),
                                 Value::Int(3)}))
                  .ok());
  EXPECT_EQ(table_.UpdateValue(0, 9, Value::Int(5)).code(),
            StatusCode::kOutOfRange);
}

TEST(CompositeKeyTableTest, CompositeKeyUniqueness) {
  RelationSchema schema("Buy",
                        {AttributeDef{"ID", Type::kInt64, false, 1.0},
                         AttributeDef{"I", Type::kInt64, false, 1.0},
                         AttributeDef{"P", Type::kInt64, true, 1.0}},
                        {"ID", "I"});
  Table table(&schema);
  EXPECT_TRUE(
      table.Insert(Tuple({Value::Int(1), Value::Int(1), Value::Int(5)}))
          .ok());
  EXPECT_TRUE(
      table.Insert(Tuple({Value::Int(1), Value::Int(2), Value::Int(5)}))
          .ok());
  EXPECT_FALSE(
      table.Insert(Tuple({Value::Int(1), Value::Int(1), Value::Int(9)}))
          .ok());
  EXPECT_EQ(table.LookupByKey({Value::Int(1), Value::Int(2)}).value(), 1u);
}

TEST_F(TableTest, KeyIndexSurvivesManyDoublings) {
  constexpr int64_t kRows = 100'000;  // 16 slots doubled 14 times
  for (int64_t id = 0; id < kRows; ++id) {
    const auto row = table_.Insert(
        Tuple({Value::Int(id * 7919), Value::Int(id), Value::Int(0)}));
    ASSERT_TRUE(row.ok()) << row.status().ToString();
    ASSERT_EQ(row.value(), static_cast<size_t>(id));
  }
  for (int64_t id = 0; id < kRows; ++id) {
    const auto row = table_.LookupByKey({Value::Int(id * 7919)});
    ASSERT_TRUE(row.ok()) << id;
    EXPECT_EQ(row.value(), static_cast<size_t>(id));
  }
  EXPECT_EQ(table_.LookupByKey({Value::Int(1)}).status().code(),
            StatusCode::kNotFound);
}

TEST_F(TableTest, DuplicateAfterGrowthChangesNothing) {
  constexpr int64_t kRows = 1'000;
  for (int64_t id = 0; id < kRows; ++id) {
    ASSERT_TRUE(
        table_.Insert(Tuple({Value::Int(id), Value::Int(1), Value::Int(2)}))
            .ok());
  }
  for (const int64_t dup : {int64_t{0}, kRows / 2, kRows - 1}) {
    const auto res = table_.Insert(
        Tuple({Value::Int(dup), Value::Int(9), Value::Int(9)}));
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.status().code(), StatusCode::kKeyViolation);
  }
  EXPECT_EQ(table_.size(), static_cast<size_t>(kRows));
  for (int64_t id = 0; id < kRows; ++id) {
    EXPECT_EQ(table_.LookupByKey({Value::Int(id)}).value(),
              static_cast<size_t>(id));
    EXPECT_EQ(table_.row(id).value(1), Value::Int(1));
  }
}

TEST_F(TableTest, NullKeysCollide) {
  ASSERT_TRUE(
      table_.Insert(Tuple({Value(), Value::Int(1), Value::Int(2)})).ok());
  const auto res =
      table_.Insert(Tuple({Value(), Value::Int(3), Value::Int(4)}));
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kKeyViolation);
  EXPECT_EQ(table_.LookupByKey({Value()}).value(), 0u);
}

TEST_F(TableTest, LookupWithWrongKeyArityIsNotFound) {
  ASSERT_TRUE(
      table_.Insert(Tuple({Value::Int(1), Value::Int(2), Value::Int(3)}))
          .ok());
  EXPECT_EQ(table_.LookupByKey({}).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(table_.LookupByKey({Value::Int(1), Value::Int(2)}).status().code(),
            StatusCode::kNotFound);
}

TEST(DoubleKeyTableTest, IntAndEqualDoubleCollide) {
  RelationSchema schema("Reading",
                        {AttributeDef{"T", Type::kDouble, false, 1.0},
                         AttributeDef{"V", Type::kInt64, true, 1.0}},
                        {"T"});
  Table table(&schema);
  ASSERT_TRUE(table.Insert(Tuple({Value::Int(1), Value::Int(5)})).ok());
  const auto res = table.Insert(Tuple({Value::Double(1.0), Value::Int(6)}));
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kKeyViolation);
  EXPECT_EQ(table.LookupByKey({Value::Double(1.0)}).value(), 0u);
  EXPECT_EQ(table.LookupByKey({Value::Int(1)}).value(), 0u);
  ASSERT_TRUE(table.Insert(Tuple({Value::Double(1.5), Value::Int(7)})).ok());
  EXPECT_EQ(table.LookupByKey({Value::Double(1.5)}).value(), 1u);
  EXPECT_EQ(table.size(), 2u);
}

TEST_F(TableTest, UpdateRejectsTypeMismatch) {
  ASSERT_TRUE(table_
                  .Insert(Tuple({Value::Int(1), Value::Int(2),
                                 Value::Int(3)}))
                  .ok());
  EXPECT_EQ(table_.UpdateValue(0, 1, Value::String("x")).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(table_.UpdateValue(0, 2, Value::Double(2.5)).code(),
            StatusCode::kInvalidArgument);
  // A rejected update leaves the row as it was.
  EXPECT_TRUE(table_.row(0) ==
              Tuple({Value::Int(1), Value::Int(2), Value::Int(3)}));
  // NULL fits any column, as for Insert.
  ASSERT_TRUE(table_.UpdateValue(0, 1, Value()).ok());
  EXPECT_TRUE(table_.row(0).value(1).is_null());
}

TEST(DoubleColumnTableTest, UpdateAcceptsIntsAndDoubles) {
  RelationSchema schema("Reading",
                        {AttributeDef{"K", Type::kInt64, false, 1.0},
                         AttributeDef{"D", Type::kDouble, false, 1.0}},
                        {"K"});
  Table table(&schema);
  ASSERT_TRUE(table.Insert(Tuple({Value::Int(1), Value::Double(0.5)})).ok());
  // An INT value is legal in a DOUBLE column, as for Insert.
  ASSERT_TRUE(table.UpdateValue(0, 1, Value::Int(7)).ok());
  EXPECT_TRUE(table.row(0).value(1).is_int());
  ASSERT_TRUE(table.UpdateValue(0, 1, Value::Double(2.5)).ok());
  EXPECT_EQ(table.row(0).value(1), Value::Double(2.5));
  EXPECT_EQ(table.UpdateValue(0, 1, Value::String("x")).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(table.row(0).value(1), Value::Double(2.5));
}

TEST(TupleTest, ToString) {
  const Tuple t({Value::Int(1), Value::String("x"), Value()});
  EXPECT_EQ(t.ToString(), "(1, 'x', NULL)");
}

TEST(TupleRefTest, OrderingAndPacking) {
  const TupleRef a{0, 5};
  const TupleRef b{1, 0};
  EXPECT_LT(a, b);
  EXPECT_NE(a.Packed(), b.Packed());
  EXPECT_EQ((TupleRef{0, 5}), a);
}

}  // namespace
}  // namespace dbrepair
