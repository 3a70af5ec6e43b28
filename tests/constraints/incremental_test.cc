// Tests for FindViolationsSince: the delta-join enumeration of violation
// sets involving newly appended tuples.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "constraints/parser.h"
#include "constraints/violation_engine.h"
#include "gen/client_buy.h"
#include "storage/column_view.h"

namespace dbrepair {
namespace {

std::vector<uint32_t> MarkNow(const Database& db) {
  std::vector<uint32_t> first_new_row(db.relation_count());
  for (size_t r = 0; r < db.relation_count(); ++r) {
    first_new_row[r] = static_cast<uint32_t>(db.table(r).size());
  }
  return first_new_row;
}

TEST(IncrementalTest, FindsAllViolationsWhenBaseIsConsistent) {
  // Build a consistent base, mark, then append a dirty batch: incremental
  // enumeration must equal the full enumeration of the grown instance.
  ClientBuyOptions clean;
  clean.num_clients = 100;
  clean.inconsistency_ratio = 0.0;
  clean.seed = 31;
  auto base = GenerateClientBuy(clean);
  ASSERT_TRUE(base.ok());
  const std::vector<uint32_t> mark = MarkNow(base->db);

  // Dirty batch: minors with offending credit and purchases.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(base->db
                    .Insert("Client", {Value::Int(1000 + i), Value::Int(15),
                                       Value::Int(90)})
                    .ok());
    ASSERT_TRUE(base->db
                    .Insert("Buy", {Value::Int(1000 + i), Value::Int(1),
                                    Value::Int(60)})
                    .ok());
  }

  auto bound = BindAll(base->db.schema(), base->ics);
  ASSERT_TRUE(bound.ok());
  ViolationEngine full_engine(base->db, *bound);
  auto full = full_engine.FindViolations();
  ASSERT_TRUE(full.ok());
  ASSERT_FALSE(full->empty());

  ViolationEngine incr_engine(base->db, *bound);
  auto incremental = incr_engine.FindViolationsSince(mark);
  ASSERT_TRUE(incremental.ok()) << incremental.status().ToString();
  EXPECT_EQ(*incremental, *full);
}

TEST(IncrementalTest, IgnoresOldOnlyViolations) {
  // The base is dirty; the appended batch is clean. Incremental must
  // return only sets touching new rows — none here.
  ClientBuyOptions dirty;
  dirty.num_clients = 50;
  dirty.inconsistency_ratio = 0.5;
  dirty.seed = 32;
  auto base = GenerateClientBuy(dirty);
  ASSERT_TRUE(base.ok());
  const std::vector<uint32_t> mark = MarkNow(base->db);
  ASSERT_TRUE(base->db
                  .Insert("Client", {Value::Int(5000), Value::Int(40),
                                     Value::Int(10)})
                  .ok());

  auto bound = BindAll(base->db.schema(), base->ics);
  ASSERT_TRUE(bound.ok());
  ViolationEngine engine(base->db, *bound);
  auto incremental = engine.FindViolationsSince(mark);
  ASSERT_TRUE(incremental.ok());
  EXPECT_TRUE(incremental->empty());

  ViolationEngine full_engine(base->db, *bound);
  auto full = full_engine.FindViolations();
  ASSERT_TRUE(full.ok());
  EXPECT_FALSE(full->empty());
}

TEST(IncrementalTest, CrossBatchJoinViolations) {
  // A new Buy row joins an old minor Client: the violation set mixes old
  // and new tuples and must be found.
  Database db(MakeClientBuySchema());
  ASSERT_TRUE(
      db.Insert("Client", {Value::Int(1), Value::Int(15), Value::Int(10)})
          .ok());
  const std::vector<uint32_t> mark = MarkNow(db);
  ASSERT_TRUE(
      db.Insert("Buy", {Value::Int(1), Value::Int(1), Value::Int(80)}).ok());

  const auto ics = MakeClientBuyConstraints();
  auto bound = BindAll(db.schema(), ics);
  ASSERT_TRUE(bound.ok());
  ViolationEngine engine(db, *bound);
  auto incremental = engine.FindViolationsSince(mark);
  ASSERT_TRUE(incremental.ok());
  ASSERT_EQ(incremental->size(), 1u);
  EXPECT_EQ((*incremental)[0].tuples.size(), 2u);
}

TEST(IncrementalTest, MatchesFilteredFullEnumeration) {
  // Property: incremental == { full violation sets touching >= 1 new row },
  // on a dirty base plus a dirty batch (random seeds).
  for (const uint64_t seed : {41ull, 42ull, 43ull, 44ull}) {
    ClientBuyOptions options;
    options.num_clients = 60;
    options.inconsistency_ratio = 0.3;
    options.seed = seed;
    auto base = GenerateClientBuy(options);
    ASSERT_TRUE(base.ok());
    const std::vector<uint32_t> mark = MarkNow(base->db);

    Rng rng(seed);
    for (int i = 0; i < 15; ++i) {
      ASSERT_TRUE(base->db
                      .Insert("Client",
                              {Value::Int(2000 + i),
                               Value::Int(rng.UniformInRange(10, 40)),
                               Value::Int(rng.UniformInRange(0, 100))})
                      .ok());
      ASSERT_TRUE(base->db
                      .Insert("Buy", {Value::Int(2000 + i), Value::Int(1),
                                      Value::Int(rng.UniformInRange(1, 100))})
                      .ok());
    }

    auto bound = BindAll(base->db.schema(), base->ics);
    ASSERT_TRUE(bound.ok());
    ViolationEngine engine(base->db, *bound);
    auto incremental = engine.FindViolationsSince(mark);
    ASSERT_TRUE(incremental.ok());

    ViolationEngine full_engine(base->db, *bound);
    auto full = full_engine.FindViolations();
    ASSERT_TRUE(full.ok());
    std::vector<ViolationSet> expected;
    for (const ViolationSet& v : *full) {
      bool touches_new = false;
      for (const TupleRef& t : v.tuples) {
        if (t.row >= mark[t.relation]) touches_new = true;
      }
      if (touches_new) expected.push_back(v);
    }
    EXPECT_EQ(*incremental, expected) << "seed " << seed;
  }
}

TEST(IncrementalTest, DuplicateContentRowsInOneBatch) {
  // Two appended clients that are identical except for the key, plus
  // matching purchases: the delta must report each client's sets separately
  // (dedup collapses identical *tuple sets*, not identical cell contents).
  ClientBuyOptions clean;
  clean.num_clients = 40;
  clean.inconsistency_ratio = 0.0;
  clean.seed = 61;
  auto base = GenerateClientBuy(clean);
  ASSERT_TRUE(base.ok());
  const std::vector<uint32_t> mark = MarkNow(base->db);
  for (const int64_t id : {7001, 7002}) {
    ASSERT_TRUE(base->db
                    .Insert("Client", {Value::Int(id), Value::Int(15),
                                       Value::Int(90)})
                    .ok());
    ASSERT_TRUE(base->db
                    .Insert("Buy", {Value::Int(id), Value::Int(1),
                                    Value::Int(60)})
                    .ok());
  }

  auto bound = BindAll(base->db.schema(), base->ics);
  ASSERT_TRUE(bound.ok());
  ViolationEngine engine(base->db, *bound);
  auto incremental = engine.FindViolationsSince(mark);
  ASSERT_TRUE(incremental.ok());
  // Per duplicated client: one ic1 set {Buy, Client} and one ic2 set
  // {Client}.
  EXPECT_EQ(incremental->size(), 4u);

  ViolationEngine full_engine(base->db, *bound);
  auto full = full_engine.FindViolations();
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(*incremental, *full);
}

TEST(IncrementalTest, MatchesFilteredFullEnumerationColumnarAndThreaded) {
  // The randomized delta-vs-full property again, on a caller-supplied column
  // snapshot and with sharded (4-thread) enumeration: the delta path must
  // stay byte-identical to the serial scan over the engine's own snapshot.
  for (const uint64_t seed : {71ull, 72ull, 73ull, 74ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ClientBuyOptions options;
    options.num_clients = 60;
    options.inconsistency_ratio = 0.3;
    options.seed = seed;
    auto base = GenerateClientBuy(options);
    ASSERT_TRUE(base.ok());
    const std::vector<uint32_t> mark = MarkNow(base->db);

    Rng rng(seed);
    for (int i = 0; i < 15; ++i) {
      ASSERT_TRUE(base->db
                      .Insert("Client",
                              {Value::Int(3000 + i),
                               Value::Int(rng.UniformInRange(10, 40)),
                               Value::Int(rng.UniformInRange(0, 100))})
                      .ok());
      ASSERT_TRUE(base->db
                      .Insert("Buy", {Value::Int(3000 + i), Value::Int(1),
                                      Value::Int(rng.UniformInRange(1, 100))})
                      .ok());
    }
    auto bound = BindAll(base->db.schema(), base->ics);
    ASSERT_TRUE(bound.ok());

    ViolationEngine serial_engine(base->db, *bound);
    auto serial = serial_engine.FindViolationsSince(mark);
    ASSERT_TRUE(serial.ok());

    const ColumnSnapshot snapshot = ColumnSnapshot::Build(base->db);
    ViolationEngineOptions columnar_options;
    columnar_options.columnar = &snapshot;
    ViolationEngine columnar_engine(base->db, *bound, columnar_options);
    auto columnar = columnar_engine.FindViolationsSince(mark);
    ASSERT_TRUE(columnar.ok()) << columnar.status().ToString();
    EXPECT_EQ(*columnar, *serial);

    ViolationEngineOptions threaded_options;
    threaded_options.num_threads = 4;
    threaded_options.columnar = &snapshot;
    ViolationEngine threaded_engine(base->db, *bound, threaded_options);
    auto threaded = threaded_engine.FindViolationsSince(mark);
    ASSERT_TRUE(threaded.ok()) << threaded.status().ToString();
    EXPECT_EQ(*threaded, *serial);
  }
}

TEST(IncrementalTest, EmptyBatchFindsNothing) {
  ClientBuyOptions options;
  options.num_clients = 30;
  options.seed = 51;
  auto base = GenerateClientBuy(options);
  ASSERT_TRUE(base.ok());
  auto bound = BindAll(base->db.schema(), base->ics);
  ASSERT_TRUE(bound.ok());
  ViolationEngine engine(base->db, *bound);
  auto incremental = engine.FindViolationsSince(MarkNow(base->db));
  ASSERT_TRUE(incremental.ok());
  EXPECT_TRUE(incremental->empty());
}

TEST(IncrementalTest, RejectsWrongMarkArity) {
  ClientBuyOptions options;
  options.num_clients = 5;
  auto base = GenerateClientBuy(options);
  ASSERT_TRUE(base.ok());
  auto bound = BindAll(base->db.schema(), base->ics);
  ASSERT_TRUE(bound.ok());
  ViolationEngine engine(base->db, *bound);
  EXPECT_FALSE(engine.FindViolationsSince({0}).ok());
}

}  // namespace
}  // namespace dbrepair
