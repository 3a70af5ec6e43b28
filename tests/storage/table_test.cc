#include "storage/table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "common/rng.h"

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

  // Asserts that the table holds exactly `rows`, cell by cell.
  void ExpectRows(const std::vector<Tuple>& rows) {
    ASSERT_EQ(table_.size(), rows.size());
    for (size_t r = 0; r < rows.size(); ++r) {
      for (size_t c = 0; c < schema_.arity(); ++c) {
        EXPECT_EQ(table_.row(r).value(c), rows[r].value(c))
            << "row " << r << ", column " << c;
      }
    }
  }

  // After a rejected insert: the rows already present are unchanged, and
  // the next good row lands whole at the next index, so a rejected insert
  // that left some of its cells behind would shift it.
  void ExpectRejectedInsertChangedNothing(const std::vector<Tuple>& before) {
    ExpectRows(before);
    const Tuple next({Value::Int(100), Value::Int(101), Value::Int(102)});
    const auto row = table_.Insert(next);
    ASSERT_TRUE(row.ok()) << row.status().ToString();
    EXPECT_EQ(row.value(), before.size());
    std::vector<Tuple> after = before;
    after.push_back(next);
    ExpectRows(after);
  }

  const Tuple first_{{Value::Int(1), Value::Int(2), Value::Int(3)}};
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

TEST_F(TableTest, ReserveKeepsTheCellArrayInPlace) {
  ASSERT_TRUE(table_.Insert(first_).ok());
  table_.Reserve(64);
  const Value* cells = table_.cells();
  const TupleView row0 = table_.row(0);
  for (int64_t id = 2; id <= 64; ++id) {
    ASSERT_TRUE(
        table_.Insert(Tuple({Value::Int(id), Value::Int(id), Value::Int(0)}))
            .ok());
  }
  // No insert up to the reserved count moved the array, so the view taken
  // before them still reads row 0.
  EXPECT_EQ(table_.cells(), cells);
  EXPECT_TRUE(row0 == first_);
  EXPECT_EQ(table_.row(63).value(0), Value::Int(64));
}

TEST_F(TableTest, RejectsArityMismatch) {
  ASSERT_TRUE(table_.Insert(first_).ok());
  EXPECT_FALSE(table_.Insert(Tuple({Value::Int(5)})).ok());
  EXPECT_FALSE(table_
                   .Insert(Tuple({Value::Int(5), Value::Int(6), Value::Int(7),
                                  Value::Int(8)}))
                   .ok());
  ExpectRejectedInsertChangedNothing({first_});
}

TEST_F(TableTest, RejectsTypeMismatch) {
  ASSERT_TRUE(table_.Insert(first_).ok());
  const auto res = table_.Insert(
      Tuple({Value::String("x"), Value::Int(1), Value::Int(2)}));
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);
  // The bad value in the last column: every earlier cell would be valid.
  const auto last = table_.Insert(
      Tuple({Value::Int(5), Value::Int(6), Value::String("x")}));
  ASSERT_FALSE(last.ok());
  EXPECT_EQ(last.status().code(), StatusCode::kInvalidArgument);
  ExpectRejectedInsertChangedNothing({first_});
}

TEST_F(TableTest, AllowsNulls) {
  EXPECT_TRUE(
      table_.Insert(Tuple({Value::Int(1), Value(), Value::Int(2)})).ok());
}

TEST_F(TableTest, RejectsDuplicateKey) {
  ASSERT_TRUE(table_.Insert(first_).ok());
  const auto res =
      table_.Insert(Tuple({Value::Int(1), Value::Int(9), Value::Int(9)}));
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kKeyViolation);
  ExpectRejectedInsertChangedNothing({first_});
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

// Row-major cells of Client rows (id, 2 * id, 3 * id) for each id.
std::vector<Value> ClientCells(const std::vector<int64_t>& ids) {
  std::vector<Value> cells;
  for (const int64_t id : ids) {
    cells.push_back(Value::Int(id));
    cells.push_back(Value::Int(2 * id));
    cells.push_back(Value::Int(3 * id));
  }
  return cells;
}

TEST_F(TableTest, AppendRowsMatchesInsert) {
  std::vector<int64_t> ids;
  for (int64_t id = 0; id < 10'000; ++id) ids.push_back(id * 7919 % 100'003);
  Table inserted(&schema_);
  for (const int64_t id : ids) {
    ASSERT_TRUE(inserted
                    .Insert(Tuple({Value::Int(id), Value::Int(2 * id),
                                   Value::Int(3 * id)}))
                    .ok());
  }
  // Chunks of 3000 rows, the last one partial, onto a table with a row.
  ASSERT_TRUE(table_.Insert(first_).ok());
  for (size_t begin = 0; begin < ids.size(); begin += 3000) {
    const size_t end = std::min(ids.size(), begin + 3000);
    std::vector<Value> cells =
        ClientCells({ids.begin() + begin, ids.begin() + end});
    ASSERT_TRUE(table_.AppendRows(cells).ok());
  }
  ASSERT_EQ(table_.size(), ids.size() + 1);
  for (size_t r = 0; r < ids.size(); ++r) {
    EXPECT_TRUE(table_.row(r + 1) == inserted.row(r)) << r;
    EXPECT_EQ(table_.LookupByKey({Value::Int(ids[r])}).value(), r + 1);
  }
  EXPECT_EQ(table_.LookupByKey({Value::Int(1)}).value(), 0u);
  EXPECT_TRUE(table_.AppendRows({}).ok());
  EXPECT_EQ(table_.size(), ids.size() + 1);
}

TEST_F(TableTest, AppendRowsRejectsDuplicateWithinTheChunk) {
  ASSERT_TRUE(table_.Insert(first_).ok());
  std::vector<Value> cells = ClientCells({5, 6, 7, 6});
  EXPECT_EQ(table_.AppendRows(cells).code(), StatusCode::kKeyViolation);
  EXPECT_EQ(table_.LookupByKey({Value::Int(5)}).status().code(),
            StatusCode::kNotFound);
  ExpectRejectedInsertChangedNothing({first_});
}

TEST_F(TableTest, AppendRowsRejectsDuplicateOfAnOldRow) {
  ASSERT_TRUE(table_.Insert(first_).ok());
  std::vector<Value> cells = ClientCells({5, 6, 1, 7});
  EXPECT_EQ(table_.AppendRows(cells).code(), StatusCode::kKeyViolation);
  EXPECT_EQ(table_.LookupByKey({Value::Int(1)}).value(), 0u);
  EXPECT_EQ(table_.LookupByKey({Value::Int(6)}).status().code(),
            StatusCode::kNotFound);
  ExpectRejectedInsertChangedNothing({first_});
}

TEST_F(TableTest, AppendRowsRejectsPartialRowsAndTypeMismatches) {
  ASSERT_TRUE(table_.Insert(first_).ok());
  std::vector<Value> partial = ClientCells({5, 6});
  partial.pop_back();
  EXPECT_EQ(table_.AppendRows(partial).code(), StatusCode::kInvalidArgument);
  std::vector<Value> mistyped = ClientCells({5, 6});
  mistyped.back() = Value::String("x");
  EXPECT_EQ(table_.AppendRows(mistyped).code(), StatusCode::kInvalidArgument);
  ExpectRejectedInsertChangedNothing({first_});
}

// Random keys fill the slot array to just under its load limit, so the
// probe runs of old and new keys interleave; the chunk's last row repeats an
// old key. Every old key must still be found where it was, no new key at
// all. Chunks that do and do not grow the slot array both roll back.
TEST_F(TableTest, FailedAppendRollsBackInterleavedProbeRuns) {
  Rng rng(20'261);
  std::unordered_set<int64_t> used;
  const auto fresh_keys = [&](size_t n) {
    std::vector<int64_t> keys;
    while (keys.size() < n) {
      const auto key = static_cast<int64_t>(rng.Next() >> 4);  // 3 * key fits
      if (used.insert(key).second) keys.push_back(key);
    }
    return keys;
  };
  // 30,000 rows in 65,536 slots; a 2,000-row chunk stays under half full,
  // a 4,000-row chunk grows the array first.
  const std::vector<int64_t> old_keys = fresh_keys(30'000);
  std::vector<Value> old_cells = ClientCells(old_keys);
  ASSERT_TRUE(table_.AppendRows(old_cells).ok());
  for (const size_t chunk_rows : {size_t{2'000}, size_t{4'000}}) {
    std::vector<int64_t> new_keys = fresh_keys(chunk_rows);
    new_keys.back() = old_keys[rng.Uniform(old_keys.size())];
    std::vector<Value> cells = ClientCells(new_keys);
    EXPECT_EQ(table_.AppendRows(cells).code(), StatusCode::kKeyViolation);
    ASSERT_EQ(table_.size(), old_keys.size());
    for (size_t r = 0; r < old_keys.size(); ++r) {
      const auto row = table_.LookupByKey({Value::Int(old_keys[r])});
      ASSERT_TRUE(row.ok()) << "old key " << r << " lost";
      EXPECT_EQ(row.value(), r);
      EXPECT_EQ(table_.row(r).value(2), Value::Int(3 * old_keys[r]));
    }
    for (size_t i = 0; i + 1 < new_keys.size(); ++i) {
      EXPECT_EQ(table_.LookupByKey({Value::Int(new_keys[i])}).status().code(),
                StatusCode::kNotFound)
          << "new key " << i << " kept";
    }
  }
}

// A load that spans several AppendRows calls rolls back with Truncate, also
// when a later chunk grew the slot array and re-slotted the earlier rows.
TEST_F(TableTest, TruncateAcrossAGrowthRestoresTheTable) {
  std::vector<int64_t> ids;
  for (int64_t id = 0; id < 100; ++id) ids.push_back(id);
  std::vector<Value> before = ClientCells(ids);
  ASSERT_TRUE(table_.AppendRows(before).ok());
  for (int64_t begin = 100; begin < 5'100; begin += 1'000) {
    std::vector<int64_t> chunk;
    for (int64_t id = begin; id < begin + 1'000; ++id) chunk.push_back(id);
    std::vector<Value> cells = ClientCells(chunk);
    ASSERT_TRUE(table_.AppendRows(cells).ok());
  }
  table_.Truncate(100);
  ASSERT_EQ(table_.size(), 100u);
  for (int64_t id = 0; id < 5'100; ++id) {
    const auto row = table_.LookupByKey({Value::Int(id)});
    if (id < 100) {
      ASSERT_TRUE(row.ok()) << id;
      EXPECT_EQ(row.value(), static_cast<size_t>(id));
      EXPECT_EQ(table_.row(id).value(1), Value::Int(2 * id));
    } else {
      EXPECT_FALSE(row.ok()) << id;
    }
  }
  // The dropped keys are free again.
  std::vector<Value> again = ClientCells({100, 5'000});
  ASSERT_TRUE(table_.AppendRows(again).ok());
  EXPECT_EQ(table_.LookupByKey({Value::Int(5'000)}).value(), 101u);
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

  // A stored row, read through its view, equals the tuple inserted.
  RelationSchema schema("R",
                        {AttributeDef{"K", Type::kInt64, false, 1.0},
                         AttributeDef{"S", Type::kString, false, 1.0},
                         AttributeDef{"N", Type::kInt64, true, 1.0}},
                        {"K"});
  Table table(&schema);
  ASSERT_TRUE(table.Insert(t).ok());
  const TupleView view = table.row(0);
  EXPECT_EQ(view.arity(), 3u);
  EXPECT_EQ(view.ToString(), "(1, 'x', NULL)");
  EXPECT_TRUE(view == t);
  EXPECT_TRUE(t == view);
  EXPECT_TRUE(view == t.view());
  EXPECT_FALSE(view == Tuple({Value::Int(1), Value::String("y"), Value()}));
  // Converting the view gives an equal tuple that owns its cells.
  const Tuple copy = view;
  EXPECT_EQ(copy, t);
  EXPECT_EQ(copy.values(), view.values());
  EXPECT_NE(copy.values().data(), view.begin());
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
