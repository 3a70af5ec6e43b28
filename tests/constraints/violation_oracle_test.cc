// Property tests: the ViolationEngine (greedy join order, code indexes,
// merged equality classes, column kinds, minimality filter) must agree with
// the brute-force oracle of violation_oracle.h, on random int-only
// workloads and on hand-built cases for every value the typed codes cannot
// represent: NULL, NaN, ints beyond 2^53 in DOUBLE columns, INT joined to
// DOUBLE, string order, and strings missing from the dictionary. The
// engine's snapshot contract (stale snapshots, NoteRowChanges) is
// checked on the same schema.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>

#include "common/rng.h"
#include "constraints/parser.h"
#include "constraints/violation_engine.h"
#include "storage/column_view.h"
#include "storage/database.h"
#include "violation_oracle.h"

namespace dbrepair {
namespace {

// ---- Random workload generation. ----

std::shared_ptr<const Schema> OracleSchema() {
  auto schema = std::make_shared<Schema>();
  Status st = schema->AddRelation(RelationSchema(
      "R",
      {AttributeDef{"K", Type::kInt64, false, 1.0},
       AttributeDef{"X", Type::kInt64, true, 1.0},
       AttributeDef{"Y", Type::kInt64, false, 1.0}},
      {"K"}));
  EXPECT_TRUE(st.ok());
  st = schema->AddRelation(RelationSchema(
      "S",
      {AttributeDef{"K", Type::kInt64, false, 1.0},
       AttributeDef{"Z", Type::kInt64, true, 1.0}},
      {"K"}));
  EXPECT_TRUE(st.ok());
  return schema;
}

Database RandomDb(const std::shared_ptr<const Schema>& schema, Rng* rng,
                  size_t rows) {
  Database db(schema);
  for (size_t i = 0; i < rows; ++i) {
    // Small value domain to force joins and collisions.
    auto r = db.Insert("R", {Value::Int(static_cast<int64_t>(i)),
                             Value::Int(rng->UniformInRange(0, 6)),
                             Value::Int(rng->UniformInRange(0, 6))});
    EXPECT_TRUE(r.ok());
  }
  for (size_t i = 0; i < rows; ++i) {
    auto r = db.Insert("S", {Value::Int(static_cast<int64_t>(i)),
                             Value::Int(rng->UniformInRange(0, 6))});
    EXPECT_TRUE(r.ok());
  }
  return db;
}

// A pool of structurally diverse constraints over the oracle schema.
const std::vector<std::string>& ConstraintPool() {
  static const std::vector<std::string>* pool =
      new std::vector<std::string>{
          ":- R(k, x, y), x > 3",
          ":- R(k, x, y), x > 1, y < 4",
          ":- R(k, x, y), S(k, z), x > 2, z < 3",
          ":- R(k, x, y), S(k2, z), y = z, x > 2",
          ":- R(k1, x1, y), R(k2, x2, y), k1 != k2, x1 > 3, x2 > 3",
          ":- R(k, x, y), S(k2, z), k != k2, x > 4, z < 2",
          ":- R(k, x, 3), x > 1",
          ":- R(k1, x, y1), R(k2, x2, y2), y1 = y2, x > 3, x2 > 3",
          ":- S(k, z), z > 4",
          ":- R(k, x, y), S(k, z), y != z, x > 3",
      };
  return *pool;
}

class OracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OracleTest, EngineMatchesBruteForce) {
  Rng rng(GetParam());
  const auto schema = OracleSchema();
  Database db = RandomDb(schema, &rng, 12);

  // Pick 3 random constraints from the pool.
  std::vector<DenialConstraint> ics;
  for (int i = 0; i < 3; ++i) {
    const auto& text =
        ConstraintPool()[rng.Uniform(ConstraintPool().size())];
    auto ic = ParseConstraint(text);
    ASSERT_TRUE(ic.ok()) << text;
    ics.push_back(std::move(*ic));
  }
  auto bound = BindAll(*schema, ics);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();

  ViolationEngine engine(db, *bound);
  auto engine_result = engine.FindViolations();
  ASSERT_TRUE(engine_result.ok()) << engine_result.status().ToString();

  for (const BoundConstraint& ic : *bound) {
    const std::set<std::vector<TupleRef>> expected =
        Minimalise(OracleRawSets(db, ic));
    std::set<std::vector<TupleRef>> actual;
    for (const ViolationSet& v : *engine_result) {
      if (v.ic_index == ic.ic_index) actual.insert(v.tuples);
    }
    EXPECT_EQ(actual, expected)
        << "constraint " << ic.name << " (ic_index " << ic.ic_index << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleTest,
                         ::testing::Range<uint64_t>(1, 25));

// ---- Values the typed codes cannot represent. ----
//
// Each case builds T and U over (K INT key, I INT, D DOUBLE, S STRING),
// lists the violation sets it expects by hand, and checks that the oracle
// agrees with the list and the engine with the oracle: serially and at 4
// threads, on the engine's own snapshot and on a supplied one. Every case
// has at least one violation and at least one near miss (a row that
// misses the expected list by one comparison).

constexpr int64_t kBig = kColumnarExactIntBound;  // 2^53

std::shared_ptr<const Schema> TypedSchema() {
  auto schema = std::make_shared<Schema>();
  for (const char* name : {"T", "U"}) {
    EXPECT_TRUE(schema
                    ->AddRelation(RelationSchema(
                        name,
                        {AttributeDef{"K", Type::kInt64, false, 1.0},
                         AttributeDef{"I", Type::kInt64, false, 1.0},
                         AttributeDef{"D", Type::kDouble, false, 1.0},
                         AttributeDef{"S", Type::kString, false, 1.0}},
                        {"K"}))
                    .ok());
  }
  return schema;
}

// Inserts (row id, i, d, s) into `relation`; the key is the row id.
void AddRow(Database* db, const char* relation, Value i, Value d, Value s) {
  const auto key = static_cast<int64_t>(
      db->table(std::string(relation) == "T" ? 0 : 1).size());
  ASSERT_TRUE(db->Insert(relation, {Value::Int(key), std::move(i),
                                    std::move(d), std::move(s)})
                  .ok());
}

Value Nan() { return Value::Double(std::numeric_limits<double>::quiet_NaN()); }

TupleRef Tr(uint32_t row) { return TupleRef{0, row}; }
TupleRef Ur(uint32_t row) { return TupleRef{1, row}; }

std::vector<BoundConstraint> BindText(const Schema& schema,
                                      const std::string& text) {
  auto ics = ParseConstraintSet(text);
  EXPECT_TRUE(ics.ok()) << ics.status().ToString();
  auto bound = BindAll(schema, *ics);
  EXPECT_TRUE(bound.ok()) << bound.status().ToString();
  return std::move(bound).value();
}

// `expected` lists (ic index, tuple set) pairs in any order.
void ExpectViolations(
    const Database& db, const std::vector<BoundConstraint>& ics,
    std::vector<std::pair<uint32_t, std::vector<TupleRef>>> expected) {
  std::vector<ViolationSet> want;
  for (auto& [ic, tuples] : expected) {
    std::sort(tuples.begin(), tuples.end());
    want.push_back(ViolationSet{ic, tuples});
  }
  std::sort(want.begin(), want.end(),
            [](const ViolationSet& a, const ViolationSet& b) {
              if (a.ic_index != b.ic_index) return a.ic_index < b.ic_index;
              return a.tuples < b.tuples;
            });
  ASSERT_FALSE(want.empty()) << "a case needs at least one violation";
  const std::vector<ViolationSet> oracle = OracleViolations(db, ics);
  ASSERT_EQ(oracle, want) << "the hand-built expectation disagrees with the "
                             "oracle";

  const ColumnSnapshot snapshot = ColumnSnapshot::Build(db);
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    for (const bool supplied : {false, true}) {
      SCOPED_TRACE("threads " + std::to_string(threads) +
                   (supplied ? ", supplied snapshot" : ", own snapshot"));
      ViolationEngineOptions options;
      options.num_threads = threads;
      if (supplied) options.columnar = &snapshot;
      ViolationEngine engine(db, ics, options);
      auto found = engine.FindViolations();
      ASSERT_TRUE(found.ok()) << found.status().ToString();
      EXPECT_EQ(*found, oracle);
    }
  }
}

TEST(OracleValueTest, NullsInJoinPositions) {
  const auto schema = TypedSchema();
  Database db(schema);
  AddRow(&db, "T", Value(), Value(), Value());
  AddRow(&db, "T", Value::Int(1), Value::Double(1.5), Value::String("a"));
  AddRow(&db, "T", Value::Int(2), Value::Double(2.5), Value::String("b"));
  AddRow(&db, "U", Value(), Value(), Value());
  AddRow(&db, "U", Value::Int(1), Value::Double(9.0), Value::String("z"));
  AddRow(&db, "U", Value::Int(3), Value::Double(2.5), Value::String("a"));
  // Zeros share the typed encoding of a NULL cell but never equal one.
  AddRow(&db, "U", Value::Int(0), Value::Double(0.0), Value::String("q"));
  // Joins compare with Value ==, so NULL joins NULL; the non-NULL rows
  // that differ by one value are the near misses.
  const auto ics = BindText(*schema,
                            ":- T(k, x, d, s), U(k2, x, d2, s2)\n"
                            ":- T(k, i, x, s), U(k2, i2, x, s2)\n"
                            ":- T(k, i, d, x), U(k2, i2, d2, x)\n"
                            ":- T(k, x, d, s), U(k2, y, d2, s2), x = y\n"
                            ":- T(k, x, d, s), U(k, x, d2, s2)\n");
  // The last joins on a typed key and a Value-backed attribute at once.
  ExpectViolations(db, ics,
                   {{0, {Tr(0), Ur(0)}},
                    {0, {Tr(1), Ur(1)}},
                    {1, {Tr(0), Ur(0)}},
                    {1, {Tr(2), Ur(2)}},
                    {2, {Tr(0), Ur(0)}},
                    {2, {Tr(1), Ur(2)}},
                    {3, {Tr(0), Ur(0)}},
                    {3, {Tr(1), Ur(1)}},
                    {4, {Tr(0), Ur(0)}},
                    {4, {Tr(1), Ur(1)}}});
}

TEST(OracleValueTest, NullsInConstantPositions) {
  const auto schema = TypedSchema();
  Database db(schema);
  AddRow(&db, "T", Value(), Value(), Value());
  AddRow(&db, "T", Value::Int(1), Value::Double(1.5), Value::String("a"));
  AddRow(&db, "T", Value::Int(2), Value::Double(2.5), Value::String("b"));
  auto ics = BindText(*schema,
                      ":- T(k, 1, d, s)\n"
                      ":- T(k, i, 2.5, s)\n"
                      ":- T(k, i, d, 'b')\n"
                      ":- T(k, 0, d, s)\n"
                      ":- T(k, i, 0.0, s)\n"
                      ":- T(k, i, d, 'x')\n");
  // The last three become NULL constants, which equal only NULL cells.
  ics[3].atoms[0].constants[1] = Value();
  ics[4].atoms[0].constants[2] = Value();
  ics[5].atoms[0].constants[3] = Value();
  ExpectViolations(db, ics,
                   {{0, {Tr(1)}},
                    {1, {Tr(2)}},
                    {2, {Tr(2)}},
                    {3, {Tr(0)}},
                    {4, {Tr(0)}},
                    {5, {Tr(0)}}});
}

TEST(OracleValueTest, NullsInBuiltins) {
  const auto schema = TypedSchema();
  Database db(schema);
  AddRow(&db, "T", Value(), Value(), Value());
  AddRow(&db, "T", Value::Int(1), Value::Double(1.5), Value::String("a"));
  AddRow(&db, "T", Value::Int(2), Value::Double(2.5), Value::String("b"));
  AddRow(&db, "U", Value(), Value(), Value());
  AddRow(&db, "U", Value::Int(1), Value::Double(9.0), Value::String("z"));
  AddRow(&db, "U", Value::Int(3), Value::Double(2.5), Value::String("a"));
  // EvalCompare: a NULL operand never holds, under any operator.
  auto ics = BindText(*schema,
                      ":- T(k, i, d, s), i < 2\n"
                      ":- T(k, i, d, s), d > 2.0\n"
                      ":- T(k, i, d, s), s != 'a'\n"
                      ":- T(k, i, d, s), U(k, i2, d2, s2), s != s2\n"
                      ":- T(k, i, d, s), U(k, i2, d2, s2), i != i2\n"
                      ":- T(k, i, d, s), i != 7\n");
  ics[5].builtins[0].rhs_const = Value();  // `i != NULL` never holds
  ExpectViolations(db, ics,
                   {{0, {Tr(1)}},
                    {1, {Tr(2)}},
                    {2, {Tr(2)}},
                    {3, {Tr(1), Ur(1)}},
                    {3, {Tr(2), Ur(2)}},
                    {4, {Tr(2), Ur(2)}}});
}

TEST(OracleValueTest, NanCellsAndConstants) {
  const auto schema = TypedSchema();
  Database db(schema);
  AddRow(&db, "T", Value::Int(0), Nan(), Value::String("a"));
  AddRow(&db, "T", Value::Int(1), Value::Double(1.0), Value::String("b"));
  AddRow(&db, "T", Value::Int(2), Value::Double(3.0), Value::String("c"));
  AddRow(&db, "T", Value(), Value(), Value::String("d"));
  AddRow(&db, "U", Value::Int(0), Nan(), Value::String("a"));
  AddRow(&db, "U", Value::Int(1), Value::Double(1.0), Value::String("b"));
  // NaN equals nothing under Value ==, but Value::Compare orders it equal
  // to every number, so `>=` and `<=` hold on a NaN cell.
  auto ics = BindText(*schema,
                      ":- T(k, i, x, s), U(k2, i2, x, s2)\n"
                      ":- T(k, i, d, s), d > 2.0\n"
                      ":- T(k, i, d, s), d <= 0.5\n"
                      ":- T(k, i, d, s), d = 0.0\n"
                      ":- T(k, i, d, s), i >= 0\n"
                      ":- T(k, i, 0.0, s)\n"
                      ":- U(k, i, d, s), i <= 0\n");
  ics[3].builtins[0].rhs_const = Nan();   // every number compares equal
  ics[4].builtins[0].rhs_const = Nan();   // on an INT column too
  ics[5].atoms[0].constants[2] = Nan();   // a NaN position matches nothing
  ics[6].builtins[0].rhs_const = Nan();   // and on a clean INT column
  ExpectViolations(db, ics,
                   {{0, {Tr(1), Ur(1)}},
                    {1, {Tr(2)}},
                    {2, {Tr(0)}},
                    {3, {Tr(0)}},
                    {3, {Tr(1)}},
                    {3, {Tr(2)}},
                    {4, {Tr(0)}},
                    {4, {Tr(1)}},
                    {4, {Tr(2)}},
                    {6, {Ur(0)}},
                    {6, {Ur(1)}}});
}

TEST(OracleValueTest, IntsBeyondTwoToTheFiftyThreeInDoubleColumns) {
  const auto schema = TypedSchema();
  Database db(schema);
  // T.D holds 2^53 + 1 beside 2^53, so its double view is lossy.
  AddRow(&db, "T", Value::Int(0), Value::Int(kBig + 1), Value::String("a"));
  AddRow(&db, "T", Value::Int(1), Value::Int(kBig), Value::String("b"));
  AddRow(&db, "T", Value::Int(2), Value::Double(1.5), Value::String("c"));
  // U.D is clean: 2^53 itself has an exact double image.
  AddRow(&db, "U", Value::Int(0), Value::Int(kBig), Value::String("a"));
  AddRow(&db, "U", Value::Int(1), Value::Double(static_cast<double>(kBig)),
         Value::String("b"));
  AddRow(&db, "U", Value::Int(2), Value::Double(1.5), Value::String("c"));
  const std::string big = std::to_string(kBig);
  const std::string big1 = std::to_string(kBig + 1);
  // Int against int compares exactly; int against double by promotion,
  // so Double(2^53) equals Int(2^53 + 1) but Int(2^53) does not.
  const auto ics = BindText(*schema,
                            ":- T(k, i, x, s), U(k2, i2, x, s2)\n"
                            ":- T(k, i, d, s), d > " + big + "\n"
                            ":- T(k, i, d, s), d = " + big1 + "\n"
                            ":- U(k, i, d, s), d = " + big1 + "\n"
                            ":- U(k, i, " + big1 + ", s)\n");
  ExpectViolations(db, ics,
                   {{0, {Tr(0), Ur(1)}},
                    {0, {Tr(1), Ur(0)}},
                    {0, {Tr(1), Ur(1)}},
                    {0, {Tr(2), Ur(2)}},
                    {1, {Tr(0)}},
                    {2, {Tr(0)}},
                    {3, {Ur(1)}},
                    {4, {Ur(1)}}});
}

TEST(OracleValueTest, IntColumnJoinedToDoubleColumn) {
  const auto schema = TypedSchema();
  Database db(schema);
  AddRow(&db, "T", Value::Int(1), Value::Double(0.0), Value::String("a"));
  AddRow(&db, "T", Value::Int(2), Value::Double(0.0), Value::String("b"));
  AddRow(&db, "T", Value::Int(3), Value::Double(0.0), Value::String("c"));
  AddRow(&db, "U", Value::Int(0), Value::Double(1.0), Value::String("a"));
  AddRow(&db, "U", Value::Int(0), Value::Double(2.5), Value::String("b"));
  AddRow(&db, "U", Value::Int(0), Value::Int(3), Value::String("c"));
  // T.I (INT) meets U.D (DOUBLE) by numeric promotion: 1 = 1.0, 3 = 3,
  // but not 2 = 2.5.
  const auto ics = BindText(*schema,
                            ":- T(k, x, d, s), U(k2, i2, x, s2)\n"
                            ":- T(k, x, d, s), U(k2, i2, y, s2), x = y\n"
                            ":- T(k, x, d, s), U(k, i2, y, s2), x != y\n");
  ExpectViolations(db, ics,
                   {{0, {Tr(0), Ur(0)}},
                    {0, {Tr(2), Ur(2)}},
                    {1, {Tr(0), Ur(0)}},
                    {1, {Tr(2), Ur(2)}},
                    {2, {Tr(1), Ur(1)}}});
}

TEST(OracleValueTest, StringOrderBuiltins) {
  const auto schema = TypedSchema();
  Database db(schema);
  AddRow(&db, "T", Value::Int(0), Value::Double(0), Value::String("apple"));
  AddRow(&db, "T", Value::Int(0), Value::Double(0), Value::String("mango"));
  AddRow(&db, "T", Value::Int(0), Value::Double(0), Value::String("zebra"));
  AddRow(&db, "T", Value::Int(0), Value::Double(0), Value());
  AddRow(&db, "U", Value::Int(0), Value::Double(0), Value::String("banana"));
  AddRow(&db, "U", Value::Int(0), Value::Double(0), Value::String("zzz"));
  AddRow(&db, "U", Value::Int(0), Value::Double(0), Value::String("a"));
  AddRow(&db, "U", Value::Int(0), Value::Double(0), Value::String("x"));
  // The binder admits no order on strings, so the built-ins are bound as
  // equalities and turned into orders: the engine must still evaluate
  // them lexicographically, as EvalCompare does.
  auto ics = BindText(*schema,
                      ":- T(k, i, d, s), s = 'm'\n"
                      ":- T(k, i, d, s), s = 'mango'\n"
                      ":- T(k, i, d, s), U(k, i2, d2, s2), s != s2\n"
                      ":- U(k, i, d, s), s = 'b'\n"
                      ":- U(k, i, d, s), U(k2, i2, d2, s2), s != s2\n");
  ics[0].builtins[0].op = CompareOp::kLt;
  ics[1].builtins[0].op = CompareOp::kGe;
  ics[2].builtins[0].op = CompareOp::kGt;
  ics[3].builtins[0].op = CompareOp::kLt;  // U.S is clean
  ics[4].builtins[0].op = CompareOp::kLt;  // clean on both sides
  ExpectViolations(db, ics,
                   {{0, {Tr(0)}},
                    {1, {Tr(1)}},
                    {1, {Tr(2)}},
                    {2, {Tr(2), Ur(2)}},
                    {3, {Ur(2)}},
                    {4, {Ur(2), Ur(0)}},
                    {4, {Ur(2), Ur(3)}},
                    {4, {Ur(2), Ur(1)}},
                    {4, {Ur(0), Ur(3)}},
                    {4, {Ur(0), Ur(1)}},
                    {4, {Ur(3), Ur(1)}}});
}

TEST(OracleValueTest, StringConstantMissingFromDictionary) {
  const auto schema = TypedSchema();
  Database db(schema);
  // T.S holds a NULL, whose code is the "not in the dictionary" code.
  AddRow(&db, "T", Value::Int(0), Value::Double(0), Value());
  AddRow(&db, "T", Value::Int(0), Value::Double(0), Value::String("a"));
  AddRow(&db, "T", Value::Int(0), Value::Double(0), Value::String("b"));
  AddRow(&db, "U", Value::Int(0), Value::Double(0), Value::String("a"));
  const auto ics = BindText(*schema,
                            ":- T(k, i, d, s), s = 'absent'\n"
                            ":- T(k, i, d, 'absent')\n"
                            ":- T(k, i, d, s), s != 'absent'\n"
                            ":- U(k, i, d, 'absent')\n"
                            ":- U(k, i, d, s), s != 'absent'\n");
  ExpectViolations(db, ics,
                   {{2, {Tr(1)}}, {2, {Tr(2)}}, {4, {Ur(0)}}});
}

TEST(EngineSnapshotTest, StaleSuppliedSnapshotIsRejected) {
  const auto schema = TypedSchema();
  Database db(schema);
  AddRow(&db, "T", Value::Int(1), Value::Double(1.0), Value::String("a"));
  const ColumnSnapshot snapshot = ColumnSnapshot::Build(db);
  AddRow(&db, "T", Value::Int(1), Value::Double(1.0), Value::String("a"));
  const auto ics = BindText(*schema, ":- T(k, 1, d, s)\n");
  ViolationEngineOptions options;
  options.columnar = &snapshot;
  ViolationEngine engine(db, ics, options);
  auto found = engine.FindViolations();
  ASSERT_FALSE(found.ok());
  EXPECT_EQ(found.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.FindViolationsTouching({{0, 1}, {}}).status().code(),
            StatusCode::kFailedPrecondition);
  // A snapshot of another shape entirely is rejected the same way.
  const ColumnSnapshot empty;
  options.columnar = &empty;
  ViolationEngine mismatched(db, ics, options);
  EXPECT_EQ(mismatched.FindViolations().status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(EngineTouchingTest, RejectsMalformedDirtyRowLists) {
  const auto schema = TypedSchema();
  Database db(schema);
  for (int i = 0; i < 3; ++i) {
    AddRow(&db, "T", Value::Int(i), Value::Double(1.0), Value::String("a"));
    AddRow(&db, "U", Value::Int(i), Value::Double(1.0), Value::String("a"));
  }
  // T row r joins U row r on I.
  const auto ics = BindText(*schema, ":- T(k, i, d, s), U(k2, i, e, t)\n");
  ViolationEngine engine(db, ics);
  const auto code = [&engine](const std::vector<std::vector<uint32_t>>& dirty) {
    return engine.FindViolationsTouching(dirty).status().code();
  };
  EXPECT_EQ(code({{0}}), StatusCode::kInvalidArgument);          // too few
  EXPECT_EQ(code({{0}, {}, {}}), StatusCode::kInvalidArgument);  // too many
  EXPECT_EQ(code({{1, 0}, {}}), StatusCode::kInvalidArgument);   // descending
  EXPECT_EQ(code({{1, 1}, {}}), StatusCode::kInvalidArgument);   // repeated
  EXPECT_EQ(code({{0, 3}, {}}), StatusCode::kInvalidArgument);   // past the end
  EXPECT_EQ(code({{}, {UINT32_MAX}}), StatusCode::kInvalidArgument);
  auto touched = engine.FindViolationsTouching({{1}, {}});
  ASSERT_TRUE(touched.ok()) << touched.status().ToString();
  ASSERT_EQ(touched->size(), 1u);
  EXPECT_EQ((*touched)[0].tuples,
            (std::vector<TupleRef>{TupleRef{0, 1}, TupleRef{1, 1}}));

  // A call that fails part-way clears its marks too: were T row 0 still
  // marked dirty, the U-pivot run below would skip it as a clean partner.
  ViolationEngineOptions capped;
  capped.max_violation_sets = 1;
  ViolationEngine small(db, ics, capped);
  EXPECT_EQ(small.FindViolationsTouching({{0, 1, 2}, {}}).status().code(),
            StatusCode::kResourceExhausted);
  touched = small.FindViolationsTouching({{}, {0}});
  ASSERT_TRUE(touched.ok()) << touched.status().ToString();
  ASSERT_EQ(touched->size(), 1u);
  EXPECT_EQ((*touched)[0].tuples,
            (std::vector<TupleRef>{TupleRef{0, 0}, TupleRef{1, 0}}));
}

TEST(EngineSnapshotTest, OwnSnapshotFollowsNoteRowChanges) {
  const auto schema = TypedSchema();
  Database db(schema);
  AddRow(&db, "T", Value::Int(1), Value::Double(1.0), Value::String("a"));
  AddRow(&db, "U", Value::Int(1), Value::Double(1.0), Value::String("a"));
  const auto ics = BindText(*schema, ":- T(k, i, d, s), U(k2, i, d2, s)\n");
  ViolationEngine engine(db, ics);
  auto first = engine.FindViolations();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(*first, OracleViolations(db, ics));
  // A row the engine was not told about is a stale snapshot, not a
  // silently wrong answer.
  AddRow(&db, "T", Value::Int(1), Value::Double(2.0), Value::String("a"));
  EXPECT_EQ(engine.FindViolations().status().code(),
            StatusCode::kFailedPrecondition);
  // NoteRowChanges extends the engine's own snapshot by the appended row;
  // the cached join index of U (keyed on dictionary codes) stays valid
  // beside it.
  engine.NoteRowChanges({0}, {});
  auto second = engine.FindViolations();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->size(), 2u);
  EXPECT_EQ(*second, OracleViolations(db, ics));
  // In-place updates of the join column on both sides: the engine patches
  // the two cells into its snapshot and drops every index keyed on that
  // column, so the moved pair still joins and the row left behind does not.
  ASSERT_TRUE(db.mutable_table(0).UpdateValue(0, 1, Value::Int(5)).ok());
  ASSERT_TRUE(db.mutable_table(1).UpdateValue(0, 1, Value::Int(5)).ok());
  engine.NoteRowChanges({}, {CellRef{TupleRef{0, 0}, 1},
                             CellRef{TupleRef{1, 0}, 1}});
  auto third = engine.FindViolations();
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  EXPECT_EQ(third->size(), 1u);
  EXPECT_EQ(*third, OracleViolations(db, ics));
}

}  // namespace
}  // namespace dbrepair
