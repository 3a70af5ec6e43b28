// Tests for FindViolationsTouching over appended rows: the delta-join
// enumeration of violation sets involving newly appended tuples, the way a
// repair session detects a batch's violations; and for one long-lived
// engine whose caches follow appended rows and in-place updates
// (NoteRowChanges).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "constraints/parser.h"
#include "constraints/violation_engine.h"
#include "gen/client_buy.h"
#include "gen/scenario.h"
#include "obs/context.h"
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

// Each relation's rows from `mark` on, the appended suffix, as the
// ascending dirty-row lists FindViolationsTouching takes.
std::vector<std::vector<uint32_t>> RowsSince(
    const Database& db, const std::vector<uint32_t>& mark) {
  std::vector<std::vector<uint32_t>> rows(db.relation_count());
  for (uint32_t r = 0; r < db.relation_count(); ++r) {
    for (uint32_t row = mark[r]; row < db.table(r).size(); ++row) {
      rows[r].push_back(row);
    }
  }
  return rows;
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
  auto incremental =
      incr_engine.FindViolationsTouching(RowsSince(base->db, mark));
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
  auto incremental = engine.FindViolationsTouching(RowsSince(base->db, mark));
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
  auto incremental = engine.FindViolationsTouching(RowsSince(db, mark));
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
    auto incremental = engine.FindViolationsTouching(RowsSince(base->db, mark));
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
  auto incremental = engine.FindViolationsTouching(RowsSince(base->db, mark));
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
    auto serial =
        serial_engine.FindViolationsTouching(RowsSince(base->db, mark));
    ASSERT_TRUE(serial.ok());

    const ColumnSnapshot snapshot = ColumnSnapshot::Build(base->db);
    ViolationEngineOptions columnar_options;
    columnar_options.columnar = &snapshot;
    ViolationEngine columnar_engine(base->db, *bound, columnar_options);
    auto columnar =
        columnar_engine.FindViolationsTouching(RowsSince(base->db, mark));
    ASSERT_TRUE(columnar.ok()) << columnar.status().ToString();
    EXPECT_EQ(*columnar, *serial);

    ViolationEngineOptions threaded_options;
    threaded_options.num_threads = 4;
    threaded_options.columnar = &snapshot;
    ViolationEngine threaded_engine(base->db, *bound, threaded_options);
    auto threaded =
        threaded_engine.FindViolationsTouching(RowsSince(base->db, mark));
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
  auto incremental = engine.FindViolationsTouching(
      RowsSince(base->db, MarkNow(base->db)));
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
  // One row list for a two-relation database.
  EXPECT_FALSE(engine.FindViolationsTouching({{0}}).ok());
}

// ---- One long-lived engine against fresh engines. ----
//
// A repair session keeps one ViolationEngine across batches: its join
// indexes grow by each appended suffix (a tail, folded into a full rebuild
// past 1/kTailFoldShare), indexes keyed on an updated column are dropped,
// and planner statistics are kept until the relation has grown enough.
// None of that may change a violation set: after every step the long-lived
// engine's three enumerations must equal a fresh engine's on the same rows.

// Every column of `a` holds what the same column of `b` holds.
void ExpectSameColumns(const ColumnSnapshot& a, const ColumnSnapshot& b) {
  ASSERT_EQ(a.relation_count(), b.relation_count());
  for (uint32_t r = 0; r < a.relation_count(); ++r) {
    const RelationColumns& x = a.relation(r);
    const RelationColumns& y = b.relation(r);
    ASSERT_EQ(x.row_count, y.row_count) << "relation " << r;
    ASSERT_EQ(x.columns.size(), y.columns.size()) << "relation " << r;
    for (size_t c = 0; c < x.columns.size(); ++c) {
      EXPECT_EQ(x.columns[c].has_nulls, y.columns[c].has_nulls);
      EXPECT_EQ(x.columns[c].lossy, y.columns[c].lossy);
      EXPECT_EQ(x.columns[c].ints, y.columns[c].ints)
          << "relation " << r << " column " << c;
      EXPECT_EQ(x.columns[c].doubles, y.columns[c].doubles)
          << "relation " << r << " column " << c;
      EXPECT_EQ(x.columns[c].codes, y.columns[c].codes)
          << "relation " << r << " column " << c;
    }
  }
}

struct LongLivedCase {
  const char* scenario;
  // A join column an appended row leaves NULL, so it turns unclean and its
  // indexes switch to Value keys.
  const char* null_relation;
  uint32_t null_attribute;
};

void ExpectLongLivedEngineMatchesFresh(const LongLivedCase& c,
                                       size_t num_threads,
                                       bool own_snapshot) {
  auto workload = GenerateScenario({c.scenario, 1200, 7});
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  const Database& source = workload->db;
  auto bound = BindAll(source.schema(), workload->ics);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();

  // Every source row, interleaved across relations (row 0 of each, then
  // row 1, ...), so joined rows arrive in different steps.
  std::vector<std::pair<uint32_t, std::vector<Value>>> rows;
  for (size_t i = 0;; ++i) {
    bool any = false;
    for (uint32_t r = 0; r < source.relation_count(); ++r) {
      if (i >= source.table(r).size()) continue;
      rows.emplace_back(r, source.table(r).row(i).values());
      any = true;
    }
    if (!any) break;
  }
  // The non-key INT columns of each relation: the in-place update targets.
  std::vector<std::vector<uint32_t>> updatable(source.relation_count());
  for (uint32_t r = 0; r < source.relation_count(); ++r) {
    const RelationSchema& schema = source.schema().relations()[r];
    const auto& key = schema.key_positions();
    for (uint32_t a = 0; a < schema.arity(); ++a) {
      if (schema.attribute(a).type == Type::kInt64 &&
          std::find(key.begin(), key.end(), a) == key.end()) {
        updatable[r].push_back(a);
      }
    }
  }
  auto null_relation = source.RelationIndex(c.null_relation);
  ASSERT_TRUE(null_relation.ok());

  Database db(source.schema_ptr());
  const auto insert = [&](size_t i) {
    return db.Insert(db.schema().relations()[rows[i].first].name(),
                     rows[i].second)
        .ok();
  };
  size_t next = rows.size() * 2 / 5;
  for (size_t i = 0; i < next; ++i) ASSERT_TRUE(insert(i));

  obs::ObsContext obs;
  const obs::ScopedObs scoped(&obs);
  // The caller's snapshot, and an independent build of the same rows to
  // hold it to: the engine copies the caller's, and the copy shares its
  // columns, so every change must copy a relation before touching it.
  const ColumnSnapshot snapshot = ColumnSnapshot::Build(db);
  const ColumnSnapshot before = ColumnSnapshot::Build(db);
  ViolationEngineOptions options;
  options.num_threads = num_threads;
  if (!own_snapshot) options.columnar = &snapshot;
  ViolationEngine engine(db, *bound, options);
  ASSERT_TRUE(engine.FindViolations().ok());  // warms indexes, statistics

  Rng rng(num_threads * 2 + (own_snapshot ? 1 : 0));
  const size_t chunk = rows.size() / 50;
  bool null_appended = false;
  for (size_t step = 0; next < rows.size(); ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const std::vector<uint32_t> mark = MarkNow(db);
    std::vector<uint32_t> appended;
    for (const size_t end = std::min(rows.size(), next + chunk); next < end;
         ++next) {
      if (step >= 3 && !null_appended && rows[next].first == *null_relation) {
        rows[next].second[c.null_attribute] = Value();
        null_appended = true;
      }
      ASSERT_TRUE(insert(next));
      if (std::find(appended.begin(), appended.end(), rows[next].first) ==
          appended.end()) {
        appended.push_back(rows[next].first);
      }
    }
    // Scattered in-place updates every other step, each copying another
    // row's value of the same column, so updated join keys meet new rows.
    std::vector<CellRef> cells;
    for (int k = 0; step % 2 == 1 && k < 8; ++k) {
      const auto r = static_cast<uint32_t>(rng.Uniform(db.relation_count()));
      const Table& table = db.table(r);
      if (updatable[r].empty() || table.size() == 0) continue;
      const uint32_t a = updatable[r][rng.Uniform(updatable[r].size())];
      const auto row = static_cast<uint32_t>(rng.Uniform(table.size()));
      const Value v = table.row(rng.Uniform(table.size())).value(a);
      if (v.is_null()) continue;
      ASSERT_TRUE(db.mutable_table(r).UpdateValue(row, a, v).ok());
      cells.push_back(CellRef{TupleRef{r, row}, a});
    }
    engine.NoteRowChanges(appended, cells);
    ExpectSameColumns(snapshot, before);

    // The dirty rows, ascending: this step's appended rows and updated ones.
    const std::vector<std::vector<uint32_t>> appended_rows =
        RowsSince(db, mark);
    std::vector<std::vector<uint32_t>> dirty = appended_rows;
    for (const CellRef& cell : cells) {
      dirty[cell.tuple.relation].push_back(cell.tuple.row);
    }
    for (uint32_t r = 0; r < db.relation_count(); ++r) {
      std::sort(dirty[r].begin(), dirty[r].end());
      dirty[r].erase(std::unique(dirty[r].begin(), dirty[r].end()),
                     dirty[r].end());
    }

    ViolationEngine fresh(db, *bound);
    auto got = engine.FindViolations();
    auto want = fresh.FindViolations();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ASSERT_EQ(*got, *want) << "FindViolations";
    got = engine.FindViolationsTouching(appended_rows);
    want = fresh.FindViolationsTouching(appended_rows);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ASSERT_EQ(*got, *want) << "FindViolationsTouching, appended rows";
    got = engine.FindViolationsTouching(dirty);
    want = fresh.FindViolationsTouching(dirty);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ASSERT_EQ(*got, *want) << "FindViolationsTouching, dirty rows";
  }
  EXPECT_TRUE(null_appended);
  // Each shared relation is copied once, before its first change; an
  // engine that built its own snapshot never copies.
  const uint64_t copies =
      obs.metrics.GetCounter("scan.columnar.relation_copies")->value();
  if (own_snapshot) {
    EXPECT_EQ(copies, 0u);
  } else {
    EXPECT_GT(copies, 0u);
    EXPECT_LE(copies, db.relation_count());
  }
}

TEST(IncrementalTest, LongLivedEngineMatchesFreshEngines) {
  // Client-buy and census join on key attributes only; zipf-hotspot's
  // Spoke.HK is a non-key join column, so its updates hit indexed keys.
  for (const LongLivedCase& c :
       {LongLivedCase{"client-buy", "Buy", 0},
        LongLivedCase{"census", "Person", 0},
        LongLivedCase{"zipf-hotspot", "Spoke", 1}}) {
    for (const size_t threads : {size_t{1}, size_t{4}}) {
      for (const bool own_snapshot : {true, false}) {
        SCOPED_TRACE(std::string(c.scenario) + ", " + std::to_string(threads) +
                     " threads, " +
                     (own_snapshot ? "own snapshot" : "supplied snapshot"));
        ExpectLongLivedEngineMatchesFresh(c, threads, own_snapshot);
        if (HasFatalFailure()) return;
      }
    }
  }
}

}  // namespace
}  // namespace dbrepair
