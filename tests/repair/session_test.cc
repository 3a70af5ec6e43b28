// Tests for RepairSession: the incremental batched repair pipeline.
//
// The differential core streams a generated workload into an (initially
// empty) session in K batches for K in {1, 4, 16} and requires:
//  * the end state satisfies every constraint (checked with the full
//    engine, not the session's own incremental verify);
//  * the serial session and a 4-thread session produce byte-identical
//    databases and bit-equal cumulative distances;
//  * for K = 1 the session database is byte-identical to the one-shot
//    RepairDatabase on the full data — a single batch over an empty base
//    IS the full pipeline, set id for set id;
//  * the cumulative distance stays within a small factor of the one-shot
//    repair's distance (streaming can commit early, but per-client fixes
//    in these workloads are near-independent).
//
// The rest covers the API contract: batch atomicity on validation errors,
// rejection of options the incremental pipeline cannot honour, concurrent
// ApplyBatch misuse (run under TSan via the `session` ctest label), clean
// (net-negative) and empty batches, and stats accumulation.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "constraints/parser.h"
#include "constraints/violation_engine.h"
#include "gen/census.h"
#include "gen/client_buy.h"
#include "gen/scenario.h"
#include "obs/context.h"
#include "obs/json.h"
#include "repair/api.h"
#include "repair/inconsistency.h"

namespace dbrepair {
namespace {

// All rows of `db` as batch rows, interleaved across relations (row 0 of
// every relation, then row 1, ...) so that chunked replays split joined
// pairs — e.g. a Buy can arrive batches after its Client — and optionally
// shuffled for the randomized sweeps.
std::vector<BatchRow> ExtractRows(const Database& db, uint64_t shuffle_seed) {
  std::vector<BatchRow> rows;
  size_t max_rows = 0;
  for (size_t r = 0; r < db.relation_count(); ++r) {
    max_rows = std::max(max_rows, db.table(r).size());
  }
  for (size_t i = 0; i < max_rows; ++i) {
    for (size_t r = 0; r < db.relation_count(); ++r) {
      if (i >= db.table(r).size()) continue;
      rows.push_back(BatchRow{db.schema().relations()[r].name(),
                              db.table(r).row(i).values()});
    }
  }
  if (shuffle_seed != 0) {
    Rng rng(shuffle_seed);
    for (size_t i = rows.size(); i > 1; --i) {
      std::swap(rows[i - 1], rows[rng.Uniform(i)]);
    }
  }
  return rows;
}

void ExpectConsistent(const Database& db,
                      const std::vector<DenialConstraint>& ics) {
  auto bound = BindAll(db.schema(), ics);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  auto satisfied = ViolationEngine::Satisfies(db, *bound);
  ASSERT_TRUE(satisfied.ok()) << satisfied.status().ToString();
  EXPECT_TRUE(*satisfied) << "session left the instance inconsistent";
}

void ExpectSameDatabase(const Database& a, const Database& b,
                        const std::string& label) {
  ASSERT_EQ(a.relation_count(), b.relation_count()) << label;
  for (size_t r = 0; r < a.relation_count(); ++r) {
    ASSERT_EQ(a.table(r).size(), b.table(r).size())
        << label << " relation " << r;
    for (size_t row = 0; row < a.table(r).size(); ++row) {
      ASSERT_TRUE(a.table(r).row(row) == b.table(r).row(row))
          << label << " relation " << r << " row " << row;
    }
  }
}

// Streams `rows` into a session opened over `base` in `num_batches` chunks
// and returns the session. Every batch must succeed.
Result<std::unique_ptr<RepairSession>> Replay(
    const Database& base, const std::vector<DenialConstraint>& ics,
    const std::vector<BatchRow>& rows, size_t num_batches,
    const RepairOptions& options) {
  DBREPAIR_ASSIGN_OR_RETURN(auto session,
                            RepairSession::Open(base, ics, options));
  const size_t chunk = (rows.size() + num_batches - 1) / num_batches;
  for (size_t start = 0; start < rows.size(); start += chunk) {
    const size_t end = std::min(rows.size(), start + chunk);
    std::vector<BatchRow> batch(rows.begin() + start, rows.begin() + end);
    DBREPAIR_RETURN_IF_ERROR(session->ApplyBatch(batch).status());
  }
  return session;
}

class SessionDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SessionDifferentialTest, StreamedRepairIsConsistentAndDeterministic) {
  ClientBuyOptions gen;
  gen.num_clients = 120;
  gen.inconsistency_ratio = 0.3;
  gen.seed = GetParam();
  auto workload = GenerateClientBuy(gen);
  ASSERT_TRUE(workload.ok());
  const Database empty(workload->db.schema_ptr());
  const std::vector<BatchRow> rows = ExtractRows(workload->db, /*shuffle=*/0);

  auto one_shot = RepairDatabase(workload->db, workload->ics);
  ASSERT_TRUE(one_shot.ok()) << one_shot.status().ToString();

  for (const size_t k : {size_t{1}, size_t{4}, size_t{16}}) {
    SCOPED_TRACE("K=" + std::to_string(k));
    RepairOptions serial;
    serial.num_threads = 1;
    auto session = Replay(empty, workload->ics, rows, k, serial);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    EXPECT_EQ((*session)->db().TotalTuples(), workload->db.TotalTuples());
    ExpectConsistent((*session)->db(), workload->ics);

    RepairOptions threaded;
    threaded.num_threads = 4;
    auto parallel = Replay(empty, workload->ics, rows, k, threaded);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    ExpectSameDatabase((*session)->db(), (*parallel)->db(), "4 threads");
    EXPECT_EQ((*session)->cumulative_distance(),
              (*parallel)->cumulative_distance());  // bit-equal

    if (k == 1) {
      // One batch over an empty base is the full pipeline: same violation
      // order, same fix ids, same greedy cover, same repaired bytes.
      ExpectSameDatabase((*session)->db(), one_shot->repaired, "one-shot");
      EXPECT_EQ((*session)->cumulative_distance(), one_shot->stats.distance);
    } else if (one_shot->stats.distance > 0) {
      // Streaming may commit to a fix a later batch makes redundant, but on
      // these near-independent workloads it stays close to one-shot greedy.
      EXPECT_LE((*session)->cumulative_distance(),
                3.0 * one_shot->stats.distance + 1e-9);
      EXPECT_GT((*session)->cumulative_distance(), 0.0);
    }
  }
}

TEST_P(SessionDifferentialTest, DirtyBaseThenShuffledBatches) {
  // Open() must repair an inconsistent base, and later batches join new
  // rows against the *repaired* old rows. Shuffled row order varies batch
  // composition per seed.
  ClientBuyOptions gen;
  gen.num_clients = 60;
  gen.inconsistency_ratio = 0.4;
  gen.seed = GetParam();
  auto base = GenerateClientBuy(gen);
  ASSERT_TRUE(base.ok());

  ClientBuyOptions stream_gen = gen;
  stream_gen.num_clients = 40;
  stream_gen.seed = GetParam() + 1000;
  auto stream = GenerateClientBuy(stream_gen);
  ASSERT_TRUE(stream.ok());
  // Re-key the streamed rows so they cannot collide with the base.
  std::vector<BatchRow> rows = ExtractRows(stream->db, GetParam());
  for (BatchRow& row : rows) {
    row.values[0] = Value::Int(row.values[0].AsInt() + 1'000'000);
  }

  RepairOptions serial;
  serial.num_threads = 1;
  auto session = Replay(base->db, base->ics, rows, 4, serial);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_FALSE((*session)->open_updates().empty());
  ExpectConsistent((*session)->db(), base->ics);

  RepairOptions threaded;
  threaded.num_threads = 4;
  auto parallel = Replay(base->db, base->ics, rows, 4, threaded);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  ExpectSameDatabase((*session)->db(), (*parallel)->db(), "4 threads");
}

INSTANTIATE_TEST_SUITE_P(Seeds, SessionDifferentialTest,
                         ::testing::Range<uint64_t>(1, 7));

TEST(SessionTest, CensusStreamedRepairIsConsistent) {
  CensusOptions gen;
  gen.num_households = 40;
  gen.inconsistency_ratio = 0.3;
  gen.seed = 7;
  auto workload = GenerateCensus(gen);
  ASSERT_TRUE(workload.ok());
  const Database empty(workload->db.schema_ptr());
  const std::vector<BatchRow> rows = ExtractRows(workload->db, 0);
  RepairOptions options;
  options.num_threads = 1;
  auto session = Replay(empty, workload->ics, rows, 8, options);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  ExpectConsistent((*session)->db(), workload->ics);
}

TEST(SessionTest, CrossBatchJoinViolationIsRepaired) {
  // Batch 1 inserts a consistent minor client; batch 2 inserts a Buy that
  // joins it into an ic1 violation mixing old and new tuples.
  const Database empty(MakeClientBuySchema());
  const auto ics = MakeClientBuyConstraints();
  auto session = RepairSession::Open(empty, ics);
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  auto first = (*session)->ApplyBatch(
      {{"Client", {Value::Int(1), Value::Int(15), Value::Int(10)}}});
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->num_new_violations, 0u);
  EXPECT_EQ(first->num_updates, 0u);

  auto second = (*session)->ApplyBatch(
      {{"Buy", {Value::Int(1), Value::Int(1), Value::Int(80)}}});
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->num_new_violations, 1u);
  EXPECT_GE(second->num_updates, 1u);
  EXPECT_EQ(second->updates.size(), second->num_updates);
  ExpectConsistent((*session)->db(), ics);

  const SessionStats& stats = (*session)->stats();
  EXPECT_EQ(stats.num_batches, 2u);
  EXPECT_EQ(stats.total_rows_inserted, 2u);
  EXPECT_EQ(stats.total_violations, 1u);
  EXPECT_EQ(stats.total_updates, second->num_updates);
  EXPECT_GT((*session)->cumulative_distance(), 0.0);
}

TEST(SessionTest, TelemetryRecordsEveryBatch) {
  // Batch 0 is Open()'s full repair; each ApplyBatch appends one record
  // carrying its delta sizes and the cumulative distance after the batch.
  ClientBuyOptions gen;
  gen.num_clients = 60;
  gen.inconsistency_ratio = 0.3;
  gen.seed = 11;
  auto workload = GenerateClientBuy(gen);
  ASSERT_TRUE(workload.ok());
  auto session = RepairSession::Open(workload->db, workload->ics);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  RepairSession& s = **session;
  ASSERT_EQ(s.telemetry().size(), 1u);
  EXPECT_EQ(s.telemetry()[0].batch, 0u);
  EXPECT_EQ(s.telemetry()[0].new_violations, s.stats().total_violations);
  EXPECT_EQ(s.telemetry()[0].updates, s.open_updates().size());
  EXPECT_GE(s.telemetry()[0].total_seconds, 0.0);

  auto batch = s.ApplyBatch(
      {{"Client", {Value::Int(9001), Value::Int(15), Value::Int(10)}},
       {"Buy", {Value::Int(9001), Value::Int(9001), Value::Int(80)}}});
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(s.telemetry().size(), 2u);
  const BatchTelemetry& last = s.telemetry().back();
  EXPECT_EQ(last.batch, 1u);
  EXPECT_EQ(last.rows, 2u);
  EXPECT_EQ(last.new_violations, batch->num_new_violations);
  EXPECT_EQ(last.chosen_sets, batch->num_chosen_fixes);
  EXPECT_EQ(last.updates, batch->num_updates);
  EXPECT_GT(last.csr_arena_bytes, 0u);
  EXPECT_DOUBLE_EQ(last.cumulative_distance, s.cumulative_distance());
  EXPECT_DOUBLE_EQ(last.cover_weight, s.stats().cover_weight);
  // Monotone cumulative series: distance never shrinks across batches.
  EXPECT_GE(last.cumulative_distance, s.telemetry()[0].cumulative_distance);

  const obs::Json json = s.TelemetryToJson();
  EXPECT_EQ(json.Find("batches_recorded")->AsInt(), 2);
  const obs::Json* window = json.Find("window");
  ASSERT_NE(window, nullptr);
  ASSERT_EQ(window->AsArray().size(), 2u);
  EXPECT_EQ(window->AsArray()[1].Find("batch")->AsInt(), 1);
  EXPECT_EQ(window->AsArray()[1].Find("rows")->AsInt(), 2);
  const obs::Json* totals = json.Find("totals");
  ASSERT_NE(totals, nullptr);
  EXPECT_EQ(totals->Find("num_batches")->AsInt(), 1);
  EXPECT_DOUBLE_EQ(totals->Find("cumulative_distance")->AsDouble(),
                   s.cumulative_distance());
  // The whole section serialises to valid JSON.
  auto reparsed = obs::Json::Parse(json.Dump());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
}

TEST(SessionTest, TelemetryTimesEveryVerify) {
  // Open's verify is batch 0's verify: its time lands in the batch-0
  // record like any batch's, and every record's verify time lands in the
  // session.batch.verify_us histogram next to the other phases.
  ClientBuyOptions gen;
  gen.num_clients = 60;
  gen.inconsistency_ratio = 0.3;
  gen.seed = 11;
  auto workload = GenerateClientBuy(gen);
  ASSERT_TRUE(workload.ok());
  obs::ObsContext obs;
  const obs::ScopedObs scoped(&obs);
  auto session = RepairSession::Open(workload->db, workload->ics);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  RepairSession& s = **session;
  ASSERT_GT(s.open_updates().size(), 0u);  // so Open's verify ran
  ASSERT_EQ(s.telemetry().size(), 1u);
  EXPECT_GT(s.telemetry()[0].verify_seconds, 0.0);

  auto batch = s.ApplyBatch(
      {{"Client", {Value::Int(9001), Value::Int(15), Value::Int(10)}},
       {"Buy", {Value::Int(9001), Value::Int(9001), Value::Int(80)}}});
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_GT(s.telemetry().back().verify_seconds, 0.0);

  const obs::Histogram* verify =
      obs.metrics.GetHistogram("session.batch.verify_us");
  EXPECT_EQ(verify->count(), 2u);
  EXPECT_EQ(verify->count(),
            obs.metrics.GetHistogram("session.batch.total_us")->count());
  const obs::Json json = s.TelemetryToJson();
  EXPECT_GT(json.Find("window")->AsArray()[0].Find("verify_seconds")
                ->AsDouble(),
            0.0);
}

TEST(SessionTest, TelemetryWindowIsBounded) {
  const Database empty(MakeClientBuySchema());
  const auto ics = MakeClientBuyConstraints();
  auto session = RepairSession::Open(empty, ics);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  for (size_t i = 0; i < RepairSession::kTelemetryWindow + 10; ++i) {
    auto batch = (*session)->ApplyBatch(
        {{"Client",
          {Value::Int(static_cast<int64_t>(10000 + i)), Value::Int(30),
           Value::Int(10)}}});
    ASSERT_TRUE(batch.ok()) << i << ": " << batch.status().ToString();
  }
  EXPECT_EQ((*session)->telemetry().size(), RepairSession::kTelemetryWindow);
  // The oldest records fell off the front; the newest batch is still last.
  EXPECT_EQ((*session)->telemetry().back().batch,
            RepairSession::kTelemetryWindow + 10);
  // Totals still count every batch, including the dropped ones.
  EXPECT_EQ((*session)->stats().num_batches,
            RepairSession::kTelemetryWindow + 10);
}

TEST(SessionTest, EmptyAndNetNegativeBatches) {
  ClientBuyOptions gen;
  gen.num_clients = 30;
  gen.inconsistency_ratio = 0.3;
  gen.seed = 3;
  auto workload = GenerateClientBuy(gen);
  ASSERT_TRUE(workload.ok());
  auto session = RepairSession::Open(workload->db, workload->ics);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  const double distance_after_open = (*session)->cumulative_distance();

  auto empty_batch = (*session)->ApplyBatch({});
  ASSERT_TRUE(empty_batch.ok()) << empty_batch.status().ToString();
  EXPECT_EQ(empty_batch->num_rows, 0u);
  EXPECT_EQ(empty_batch->num_new_violations, 0u);
  EXPECT_EQ(empty_batch->num_updates, 0u);

  // A clean (net-negative) batch: consistent adults, no new violations, no
  // repairs, distance unchanged.
  auto clean = (*session)->ApplyBatch(
      {{"Client", {Value::Int(900001), Value::Int(44), Value::Int(10)}},
       {"Buy", {Value::Int(900001), Value::Int(1), Value::Int(90)}}});
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_EQ(clean->num_rows, 2u);
  EXPECT_EQ(clean->num_new_violations, 0u);
  EXPECT_EQ(clean->num_new_fixes, 0u);
  EXPECT_EQ(clean->num_updates, 0u);
  EXPECT_EQ((*session)->cumulative_distance(), distance_after_open);
  ExpectConsistent((*session)->db(), workload->ics);
}

TEST(SessionTest, BatchValidationIsAtomic) {
  const Database empty(MakeClientBuySchema());
  const auto ics = MakeClientBuyConstraints();
  auto session = RepairSession::Open(empty, ics);
  ASSERT_TRUE(session.ok());

  const std::vector<Value> ok_client = {Value::Int(1), Value::Int(30),
                                        Value::Int(10)};
  // Unknown relation: nothing lands, not even the valid leading row.
  auto unknown = (*session)->ApplyBatch(
      {{"Client", ok_client}, {"Nope", {Value::Int(1)}}});
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
  EXPECT_EQ((*session)->db().TotalTuples(), 0u);

  // Wrong arity and wrong type.
  auto arity =
      (*session)->ApplyBatch({{"Client", {Value::Int(1), Value::Int(30)}}});
  EXPECT_EQ(arity.status().code(), StatusCode::kInvalidArgument);
  auto type = (*session)->ApplyBatch(
      {{"Client", {Value::String("x"), Value::Int(30), Value::Int(10)}}});
  EXPECT_EQ(type.status().code(), StatusCode::kInvalidArgument);

  // Primary key repeated within one batch.
  auto intra_dup = (*session)->ApplyBatch(
      {{"Client", ok_client},
       {"Client", {Value::Int(1), Value::Int(40), Value::Int(20)}}});
  EXPECT_EQ(intra_dup.status().code(), StatusCode::kKeyViolation);
  EXPECT_EQ((*session)->db().TotalTuples(), 0u);

  // A failed validation must not poison the session...
  auto good = (*session)->ApplyBatch({{"Client", ok_client}});
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ((*session)->db().TotalTuples(), 1u);

  // ...and a duplicate against rows already in the instance is caught too.
  auto stored_dup = (*session)->ApplyBatch({{"Client", ok_client}});
  EXPECT_EQ(stored_dup.status().code(), StatusCode::kKeyViolation);
  EXPECT_EQ((*session)->db().TotalTuples(), 1u);

  // Rows land grouped by relation, Client before Buy. A Buy that fails
  // after the batch's Clients were appended must take them back out, key
  // index included.
  const auto client = [](int64_t id) {
    return BatchRow{"Client", {Value::Int(id), Value::Int(30), Value::Int(10)}};
  };
  const auto buy = [](int64_t id, int64_t item) {
    return BatchRow{"Buy", {Value::Int(id), Value::Int(item), Value::Int(5)}};
  };
  ASSERT_TRUE((*session)->ApplyBatch({buy(1, 1)}).ok());
  const size_t stored = (*session)->db().TotalTuples();
  const std::vector<BatchRow> clients = {client(10), client(11), client(12)};
  std::vector<BatchRow> bad_type = clients;
  bad_type.push_back(
      {"Buy", {Value::Int(10), Value::String("x"), Value::Int(5)}});
  auto typed = (*session)->ApplyBatch(bad_type);
  EXPECT_EQ(typed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(typed.status().message().find("Buy"), std::string::npos)
      << typed.status().ToString();
  EXPECT_EQ((*session)->db().TotalTuples(), stored);
  std::vector<BatchRow> bad_key = clients;
  bad_key.push_back(buy(1, 1));  // stored by the earlier batch
  auto keyed = (*session)->ApplyBatch(bad_key);
  EXPECT_EQ(keyed.status().code(), StatusCode::kKeyViolation);
  EXPECT_NE(keyed.status().message().find("Buy"), std::string::npos)
      << keyed.status().ToString();
  EXPECT_EQ((*session)->db().TotalTuples(), stored);
  auto clean = (*session)->ApplyBatch(clients);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_EQ((*session)->db().TotalTuples(), stored + clients.size());

  // A key repeated with rows of another relation between the two copies.
  auto split_dup = (*session)->ApplyBatch(
      {buy(20, 1), client(20), client(21), buy(20, 2), buy(20, 1)});
  EXPECT_EQ(split_dup.status().code(), StatusCode::kKeyViolation);
  EXPECT_NE(split_dup.status().message().find("Buy"), std::string::npos)
      << split_dup.status().ToString();
  EXPECT_EQ((*session)->db().TotalTuples(), stored + clients.size());

  // NULL keys compare equal (Value ==), so two in one batch collide.
  const BatchRow null_client{"Client",
                             {Value(), Value::Int(30), Value::Int(10)}};
  auto null_dup = (*session)->ApplyBatch({null_client, null_client});
  EXPECT_EQ(null_dup.status().code(), StatusCode::kKeyViolation);
  EXPECT_EQ((*session)->db().TotalTuples(), stored + clients.size());

  // The session was never poisoned.
  ASSERT_TRUE((*session)->ApplyBatch({client(20), buy(20, 1)}).ok());
  ExpectConsistent((*session)->db(), ics);
}

TEST(SessionTest, GroupedIngestMatchesPerRowInserts) {
  // Clean rows (adults only), interleaved across relations and shuffled so
  // a Buy may precede its Client: no repair runs, so the session's tables
  // must equal per-row Database::Insert in batch order, row id for row id,
  // and every key must be found at its row.
  Rng rng(7);
  std::vector<BatchRow> rows;
  for (int64_t id = 0; id < 60; ++id) {
    rows.push_back({"Client", {Value::Int(id), Value::Int(20 + id % 50),
                               Value::Int(rng.UniformInRange(0, 100))}});
    for (int64_t item = 0; item < id % 3; ++item) {
      rows.push_back({"Buy", {Value::Int(id), Value::Int(item),
                              Value::Int(rng.UniformInRange(0, 100))}});
    }
  }
  for (size_t i = rows.size(); i > 1; --i) {
    std::swap(rows[i - 1], rows[rng.Uniform(i)]);
  }
  const Database empty(MakeClientBuySchema());
  const auto ics = MakeClientBuyConstraints();
  Database want(empty.schema_ptr());
  for (const BatchRow& row : rows) {
    ASSERT_TRUE(want.Insert(row.relation, row.values).ok());
  }
  auto session = Replay(empty, ics, rows, /*num_batches=*/3, RepairOptions{});
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_EQ((*session)->stats().total_updates, 0u);
  ExpectSameDatabase((*session)->db(), want, "per-row inserts");
  for (uint32_t r = 0; r < want.relation_count(); ++r) {
    const Table& table = (*session)->db().table(r);
    const auto& key_positions = table.schema().key_positions();
    for (size_t row = 0; row < table.size(); ++row) {
      std::vector<Value> key;
      for (const size_t pos : key_positions) {
        key.push_back(table.row(row).value(pos));
      }
      auto found = table.LookupByKey(key);
      ASSERT_TRUE(found.ok()) << "relation " << r << " row " << row;
      EXPECT_EQ(*found, row);
    }
  }
}

TEST(SessionTest, OpenRejectsOptionsTheIncrementalPipelineCannotHonour) {
  const Database empty(MakeClientBuySchema());
  const auto ics = MakeClientBuyConstraints();

  RepairOptions layer;
  layer.solver = SolverKind::kLayer;
  EXPECT_EQ(RepairSession::Open(empty, ics, layer).status().code(),
            StatusCode::kInvalidArgument);

  RepairOptions exact;
  exact.solver = SolverKind::kExact;
  EXPECT_EQ(RepairSession::Open(empty, ics, exact).status().code(),
            StatusCode::kInvalidArgument);

  RepairOptions pruned;
  pruned.prune_cover = true;
  EXPECT_EQ(RepairSession::Open(empty, ics, pruned).status().code(),
            StatusCode::kInvalidArgument);

  RepairOptions non_local;
  non_local.require_local = false;
  EXPECT_EQ(RepairSession::Open(empty, ics, non_local).status().code(),
            StatusCode::kInvalidArgument);

  // RepairOptions::Validate runs too: conflicting build.num_threads.
  RepairOptions conflicting;
  conflicting.num_threads = 2;
  conflicting.build.num_threads = 4;
  EXPECT_EQ(RepairSession::Open(empty, ics, conflicting).status().code(),
            StatusCode::kInvalidArgument);

  // The whole greedy family is accepted (it is what the incremental solver
  // computes).
  for (const SolverKind kind : {SolverKind::kGreedy, SolverKind::kLazyGreedy,
                                SolverKind::kModifiedGreedy}) {
    RepairOptions ok;
    ok.solver = kind;
    EXPECT_TRUE(RepairSession::Open(empty, ics, ok).ok());
  }
}

TEST(SessionTest, ConcurrentApplyBatchFailsCleanlyNotCorruptly) {
  // Two threads hammer ApplyBatch with disjoint valid batches. Overlapping
  // calls must fail with InvalidArgument (never corrupt state); serialized
  // calls succeed. Runs under TSan via the `session` ctest label.
  const Database empty(MakeClientBuySchema());
  const auto ics = MakeClientBuyConstraints();
  RepairOptions options;
  options.num_threads = 1;
  auto session = RepairSession::Open(empty, ics, options);
  ASSERT_TRUE(session.ok());

  constexpr int kIterations = 50;
  std::atomic<int> successes{0};
  std::atomic<int> rejected{0};
  std::atomic<int> start_gate{0};
  auto hammer = [&](int thread_id) {
    start_gate.fetch_add(1);
    while (start_gate.load() < 2) {
    }
    for (int i = 0; i < kIterations; ++i) {
      const int64_t key = thread_id * 1'000'000 + i;
      auto result = (*session)->ApplyBatch(
          {{"Client", {Value::Int(key), Value::Int(15), Value::Int(90)}}});
      if (result.ok()) {
        successes.fetch_add(1);
      } else {
        ASSERT_EQ(result.status().code(), StatusCode::kInvalidArgument)
            << result.status().ToString();
        rejected.fetch_add(1);
      }
    }
  };
  std::thread a(hammer, 1);
  std::thread b(hammer, 2);
  a.join();
  b.join();

  EXPECT_EQ(successes.load() + rejected.load(), 2 * kIterations);
  EXPECT_GT(successes.load(), 0);
  // Every accepted batch inserted exactly one row and was repaired.
  EXPECT_EQ((*session)->db().TotalTuples(),
            static_cast<size_t>(successes.load()));
  ExpectConsistent((*session)->db(), ics);
}

TEST(SessionTest, InconsistencyTrendMatchesOneShotMeasure) {
  // The per-batch inconsistency series must telescope exactly (each record's
  // value is the previous plus its delta), the session-level measure must
  // agree with the last record, and a K=1 replay over an empty base must land
  // bit-equal on the one-shot measure: same cumulative distance, same tuple
  // count, same division.
  ClientBuyOptions gen;
  gen.num_clients = 80;
  gen.inconsistency_ratio = 0.3;
  gen.seed = 11;
  auto workload = GenerateClientBuy(gen);
  ASSERT_TRUE(workload.ok());

  auto one_shot = RepairDatabase(workload->db, workload->ics);
  ASSERT_TRUE(one_shot.ok()) << one_shot.status().ToString();
  auto measured =
      MeasureInconsistency(workload->db, workload->ics, RepairOptions{});
  ASSERT_TRUE(measured.ok()) << measured.status().ToString();
  EXPECT_GT(one_shot->stats.inconsistency, 0.0);
  EXPECT_EQ(one_shot->stats.inconsistency, measured->normalized);

  const Database empty(workload->db.schema_ptr());
  const std::vector<BatchRow> rows = ExtractRows(workload->db, 0);

  auto single = Replay(empty, workload->ics, rows, 1, RepairOptions{});
  ASSERT_TRUE(single.ok()) << single.status().ToString();
  const BatchTelemetry& final_record = (*single)->telemetry().back();
  EXPECT_EQ(final_record.inconsistency, one_shot->stats.inconsistency);
  EXPECT_EQ((*single)->inconsistency().normalized, final_record.inconsistency);

  // Streamed in six batches; after each one the census the session keeps
  // equals a recount from its violation sets.
  auto streamed = RepairSession::Open(empty, workload->ics, RepairOptions{});
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  RepairSession& s = **streamed;
  const size_t chunk = (rows.size() + 5) / 6;
  for (size_t start = 0; start < rows.size(); start += chunk) {
    const std::vector<BatchRow> batch(
        rows.begin() + start,
        rows.begin() + std::min(rows.size(), start + chunk));
    ASSERT_TRUE(s.ApplyBatch(batch).ok());
    std::set<uint64_t> recount;
    for (const ViolationSet& v : s.violations()) {
      for (const TupleRef& t : v.tuples) recount.insert(t.Packed());
    }
    const InconsistencyMeasure census = s.inconsistency();
    EXPECT_EQ(census.inconsistent_tuples, recount.size()) << "row " << start;
    EXPECT_EQ(census.violation_sets, s.violations().size()) << "row " << start;
  }
  ASSERT_GT(s.telemetry().size(), 2u);
  double running = 0.0;
  for (const BatchTelemetry& record : s.telemetry()) {
    EXPECT_EQ(record.inconsistency, running + record.inconsistency_delta)
        << "batch " << record.batch;
    running = record.inconsistency;
  }
  // The last record is the cumulative distance over the final instance size.
  EXPECT_EQ(s.telemetry().back().inconsistency,
            s.cumulative_distance() /
                static_cast<double>(s.db().TotalTuples()));
  const InconsistencyMeasure session_measure = s.inconsistency();
  EXPECT_EQ(session_measure.normalized, running);
  EXPECT_EQ(session_measure.total_tuples, s.db().TotalTuples());
  EXPECT_GT(session_measure.inconsistent_tuples, 0u);
  EXPECT_LE(session_measure.inconsistent_tuples, s.db().TotalTuples());

  // The JSON telemetry carries the trend: every window entry has the pair of
  // fields and the totals block has the headline value.
  const obs::Json json = s.TelemetryToJson();
  for (const obs::Json& entry : json.Find("window")->AsArray()) {
    ASSERT_NE(entry.Find("inconsistency"), nullptr);
    ASSERT_NE(entry.Find("inconsistency_delta"), nullptr);
  }
  EXPECT_DOUBLE_EQ(json.Find("totals")->Find("inconsistency")->AsDouble(),
                   session_measure.normalized);
}

TEST(SessionTest, OpenKeepsTheBuildsEngine) {
  // Open builds its problem on the session's one engine and keeps it, so
  // Open's verify probes the join indexes and reads the planner statistics
  // the build's scan left: two index builds (Client and Buy on the client
  // id, the second one first probed by the verify) and one statistics
  // compute per relation. A second engine would build them all again.
  auto workload = GenerateScenario({"client-buy", 4'000, 5});
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  obs::ObsContext obs;
  const obs::ScopedObs scoped(&obs);
  auto opened = RepairSession::Open(workload->db, workload->ics,
                                    RepairOptions{});
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ASSERT_GT((*opened)->open_updates().size(), 0u);  // so the verify ran
  const auto count = [&obs](const char* name) {
    return obs.metrics.GetCounter(name)->value();
  };
  EXPECT_EQ(count("engine.code_index.builds"), 2u);
  EXPECT_EQ(count("engine.stats.computes"), 2u);
  EXPECT_EQ(count("scan.columnar.snapshots"), 1u);
  EXPECT_EQ(count("scan.columnar.relation_copies"), 0u);
  ExpectConsistent((*opened)->db(), workload->ics);
}

TEST(SessionTest, BatchesGrowCachesInsteadOfRebuildingThem) {
  // 50 batches of 100 rows onto a 20k-row base. Timing-free guard on the
  // per-batch cache work: the engine's join indexes grow by each batch's
  // suffix and fold into a full rebuild only when the relation has grown
  // by 1/kTailFoldShare, so full builds stay logarithmic in the growth
  // (a rebuild per touched relation would be >= 2 per batch); planner
  // statistics follow the same rule. The engine's snapshot is patched cell
  // by cell in place, never copying a relation, and must still equal a
  // fresh build of the session database. The touched scans are driven
  // from row lists, never from a walk over whole relations: the detect
  // from exactly the batch's rows, the verify from those rows plus the
  // distinct older rows its repairs updated.
  auto workload = GenerateScenario({"client-buy", 26'000, 5});
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  // Shuffled, so both relations grow and a Buy may arrive before its
  // Client.
  const std::vector<BatchRow> rows = ExtractRows(workload->db, 3);
  constexpr size_t kBaseRows = 20'000;
  constexpr size_t kBatches = 50;
  ASSERT_GE(rows.size(), kBaseRows + kBatches * 100);
  Database base(workload->db.schema_ptr());
  for (size_t i = 0; i < kBaseRows; ++i) {
    ASSERT_TRUE(base.Insert(rows[i].relation, rows[i].values).ok());
  }

  obs::ObsContext obs;
  const obs::ScopedObs scoped(&obs);
  auto opened = RepairSession::Open(base, workload->ics, RepairOptions{});
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  RepairSession& s = **opened;
  const auto count = [&obs](const char* name) {
    return obs.metrics.GetCounter(name)->value();
  };
  const uint64_t open_builds = count("engine.code_index.builds");
  const uint64_t open_stats = count("engine.stats.computes");
  size_t updates = 0;
  size_t updated_old_rows = 0;
  for (size_t b = 0; b < kBatches; ++b) {
    std::vector<uint32_t> first_new_row;
    for (uint32_t r = 0; r < s.db().relation_count(); ++r) {
      first_new_row.push_back(static_cast<uint32_t>(s.db().table(r).size()));
    }
    const uint64_t dirty_before = count("engine.touching.dirty_rows");
    const auto first = rows.begin() + kBaseRows + b * 100;
    auto batch = s.ApplyBatch(std::vector<BatchRow>(first, first + 100));
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    updates += batch->num_updates;
    std::set<TupleRef> updated;
    for (const AppliedUpdate& update : batch->updates) {
      if (update.tuple.row < first_new_row[update.tuple.relation]) {
        updated.insert(update.tuple);
      }
    }
    EXPECT_EQ(count("engine.touching.dirty_rows") - dirty_before,
              2 * 100 + updated.size())
        << "batch " << b;
    updated_old_rows += updated.size();
  }
  ASSERT_GT(updates, 0u);
  EXPECT_GT(updated_old_rows, 0u);  // both kinds of dirty row occurred
  EXPECT_EQ(count("scan.columnar.patched_cells"),
            s.open_updates().size() + updates);
  EXPECT_EQ(count("scan.columnar.relation_copies"), 0u);

  // Open built the session engine's two join indexes (Client and Buy on
  // the client id) and its statistics; from then on each is rebuilt
  // once per 1/kTailFoldShare of its relation's growth, and at least one
  // fold must have run.
  double growth = 1.0;
  for (uint32_t r = 0; r < base.relation_count(); ++r) {
    growth = std::max(growth, static_cast<double>(s.db().table(r).size()) /
                                  static_cast<double>(base.table(r).size()));
  }
  const auto folds = static_cast<uint64_t>(std::ceil(
      std::log(growth) /
      std::log(1.0 + 1.0 / ViolationEngine::kTailFoldShare)));
  const uint64_t builds = count("engine.code_index.builds") - open_builds;
  const uint64_t stats = count("engine.stats.computes") - open_stats;
  EXPECT_GT(builds, 0u);
  EXPECT_LE(builds, 2 * folds);
  EXPECT_LE(stats, 2 * folds);

  const ColumnSnapshot fresh = ColumnSnapshot::Build(s.db());
  for (uint32_t r = 0; r < s.db().relation_count(); ++r) {
    const RelationColumns& kept = s.snapshot().relation(r);
    ASSERT_EQ(kept.row_count, fresh.relation(r).row_count);
    for (size_t c = 0; c < kept.columns.size(); ++c) {
      EXPECT_EQ(kept.columns[c].ints, fresh.relation(r).columns[c].ints)
          << "relation " << r << " column " << c;
      EXPECT_EQ(kept.columns[c].doubles, fresh.relation(r).columns[c].doubles)
          << "relation " << r << " column " << c;
    }
  }
  ExpectConsistent(s.db(), workload->ics);
}

TEST(SessionTest, RandomWorkloadStreamsMatchOneShot) {
  // The differential_test random shape (two relations, join on G, lower-
  // bounded A / upper-bounded C — local by construction), streamed in one
  // batch: must equal the one-shot repair byte for byte.
  auto schema = std::make_shared<Schema>();
  ASSERT_TRUE(schema
                  ->AddRelation(RelationSchema(
                      "R",
                      {AttributeDef{"K", Type::kInt64, false, 1.0},
                       AttributeDef{"G", Type::kInt64, false, 1.0},
                       AttributeDef{"A", Type::kInt64, true, 1.0}},
                      {"K"}))
                  .ok());
  ASSERT_TRUE(schema
                  ->AddRelation(RelationSchema(
                      "S",
                      {AttributeDef{"K2", Type::kInt64, false, 1.0},
                       AttributeDef{"G2", Type::kInt64, false, 1.0},
                       AttributeDef{"C", Type::kInt64, true, 1.0}},
                      {"K2"}))
                  .ok());
  auto ics = ParseConstraintSet(":- R(k, g, a), S(k2, g, c), a < 30, c > 60\n");
  ASSERT_TRUE(ics.ok()) << ics.status().ToString();

  for (const uint64_t seed : {11ull, 12ull, 13ull, 14ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    Database db(schema);
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(db.Insert("R", {Value::Int(i),
                                  Value::Int(rng.UniformInRange(0, 5)),
                                  Value::Int(rng.UniformInRange(0, 100))})
                      .ok());
      ASSERT_TRUE(db.Insert("S", {Value::Int(i),
                                  Value::Int(rng.UniformInRange(0, 5)),
                                  Value::Int(rng.UniformInRange(0, 100))})
                      .ok());
    }
    auto one_shot = RepairDatabase(db, *ics);
    ASSERT_TRUE(one_shot.ok()) << one_shot.status().ToString();

    const Database empty(db.schema_ptr());
    auto session =
        Replay(empty, *ics, ExtractRows(db, 0), 1, RepairOptions{});
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    ExpectSameDatabase((*session)->db(), one_shot->repaired, "one-shot");
    EXPECT_EQ((*session)->cumulative_distance(), one_shot->stats.distance);

    auto streamed = Replay(empty, *ics, ExtractRows(db, seed), 8,
                           RepairOptions{});
    ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
    ExpectConsistent((*streamed)->db(), *ics);
  }
}

}  // namespace
}  // namespace dbrepair
