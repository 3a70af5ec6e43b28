// The two stream workloads: session-stream (OpenSession, then ApplyBatch in
// a closed loop from one caller) and server-mixed (an in-process
// RepairServer driven over loopback by two closed-loop connections that mix
// BATCH writes with STATS/MEASURE reads and PINGs). Both take their
// per-layer split from outputs the library computes anyway: BatchStats for
// the session, tenant STATS for the server.

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gen/client_buy.h"
#include "gen/scenario.h"
#include "io/snapshot.h"
#include "ledger.h"
#include "repair/api.h"
#include "server/client.h"
#include "server/server.h"

namespace dbrepair::ledger {

namespace {

// Streamed keys start here so they never collide with the base instance.
constexpr int64_t kKeyOffset = 100'000'000;
// How many first/last batches session.late_early_ratio compares.
constexpr size_t kTrendWindow = 100;

/// Rows of a fresh client-buy instance (ratio 0.3, `seed`), keys offset by
/// kKeyOffset, each client followed by its buys; exactly `count` rows.
Result<std::vector<BatchRow>> StreamRows(uint64_t seed, size_t count) {
  ClientBuyOptions gen;
  gen.num_clients = count / 3 + 2;
  gen.inconsistency_ratio = 0.3;
  gen.seed = seed;
  DBREPAIR_ASSIGN_OR_RETURN(GeneratedWorkload source, GenerateClientBuy(gen));
  const Table& clients = *source.db.FindTable("Client");
  const Table& buys = *source.db.FindTable("Buy");
  const auto offset = [](const Tuple& t) {
    std::vector<Value> values = t.values();
    values[0] = Value::Int(values[0].AsInt() + kKeyOffset);
    return values;
  };
  std::vector<BatchRow> rows;
  rows.reserve(count);
  size_t b = 0;
  for (size_t c = 0; c < clients.size() && rows.size() < count; ++c) {
    const Tuple& client = clients.row(c);
    rows.push_back(BatchRow{"Client", offset(client)});
    // The generator appends each client's buys right after it, so the Buy
    // table is grouped by client in client order.
    while (b < buys.size() && rows.size() < count &&
           buys.row(b).value(0) == client.value(0)) {
      rows.push_back(BatchRow{"Buy", offset(buys.row(b))});
      ++b;
    }
  }
  if (rows.size() != count) {
    return Status::Internal("stream generator produced too few rows");
  }
  return rows;
}

/// `base` plus every streamed row inserted unrepaired: the instance the
/// session's cumulative distance is measured against.
Result<Database> InsertedInstance(const Database& base,
                                  const std::vector<BatchRow>& rows) {
  Database inserted = base.Clone();
  for (const BatchRow& row : rows) {
    DBREPAIR_RETURN_IF_ERROR(
        inserted.Insert(row.relation, row.values).status());
  }
  return inserted;
}

/// Checks a final stream instance: SQL-view consistency, row count, and
/// Delta(inserted, final) against the distance the session reported.
void CheckStreamOutput(const std::string& what, const Database& final_db,
                       const Database& base,
                       const std::vector<BatchRow>& streamed,
                       double reported_distance,
                       const std::vector<DenialConstraint>& ics,
                       RunResult* result) {
  CheckConsistentViaSql(final_db, ics, what, result);
  const size_t want = base.TotalTuples() + streamed.size();
  result->AddCheck(what + ".row_count", final_db.TotalTuples() == want,
                   std::to_string(final_db.TotalTuples()) + " vs " +
                       std::to_string(want));
  auto inserted = InsertedInstance(base, streamed);
  if (!inserted.ok()) {
    result->AddCheck(what + ".distance_matches", false,
                     inserted.status().ToString());
    return;
  }
  auto recomputed =
      DistanceFunction(DistanceKind::kL1).DatabaseDistance(*inserted, final_db);
  result->AddCheck(what + ".distance_matches",
                   recomputed.ok() &&
                       NearlyEqual(*recomputed, reported_distance),
                   recomputed.ok() ? std::to_string(*recomputed) + " vs " +
                                         std::to_string(reported_distance)
                                   : recomputed.status().ToString());
}

/// Mean of the last kTrendWindow samples over the mean of the first (a
/// quarter of the samples each when there are fewer than 4 * kTrendWindow).
double LateEarlyRatio(const std::vector<double>& samples) {
  const size_t n =
      std::min(kTrendWindow, std::max<size_t>(1, samples.size() / 4));
  if (samples.size() < 2 * n) return 1.0;
  const std::vector<double> early(samples.begin(), samples.begin() + n);
  const std::vector<double> late(samples.end() - n, samples.end());
  return Mean(late) / Mean(early);
}

/// End-to-end metrics shared by both stream workloads.
void StreamMetrics(const std::vector<double>& batch_seconds, double rows,
                   double loop_cpu, double distance, RunResult* result) {
  result->Metric("latency_p50_ms", Median(batch_seconds) * 1e3, "ms");
  result->Metric("cpu_per_row_us", loop_cpu / rows * 1e6, "us");
  result->Metric("repair_distance", distance, "delta");
}

}  // namespace

// ---------------------------------------------------------------------------
// session-stream: OpenSession on 200k client-buy rows (1 thread), then
// 250-row ApplyBatch calls from a second client-buy instance.

void RunSessionStream(const RunOptions& options, RunResult* result) {
  const size_t base_rows = options.smoke ? 3'000 : 200'000;
  const size_t batch_rows = options.smoke ? 50 : 250;
  // ~40 batches per second on the reference host, so the loop lasts about
  // --seconds; the count depends only on --seconds, never on speed.
  const size_t num_batches =
      options.smoke ? 10
                    : static_cast<size_t>(std::lround(40 * options.seconds));

  std::optional<GeneratedWorkload> base;
  std::vector<BatchRow> stream;
  std::unique_ptr<RepairSession> session;
  const auto setup = [&]() -> Status {
    DBREPAIR_ASSIGN_OR_RETURN(
        base, GenerateScenario({"client-buy", base_rows, options.seed}));
    DBREPAIR_ASSIGN_OR_RETURN(
        stream, StreamRows(options.seed + 1, num_batches * batch_rows));
    RepairRequest request{&base->db, base->ics, RepairOptions{}};
    request.options.num_threads = 1;
    DBREPAIR_ASSIGN_OR_RETURN(session, OpenSession(request));
    return Status::OK();
  };
  const auto teardown = [&] {
    session.reset();
    base.reset();
  };
  if (!TimedSetup(options, setup, teardown, result)) return;
  result->params.Set("base_rows",
                     obs::Json(static_cast<uint64_t>(base_rows)));
  result->params.Set("batch_rows",
                     obs::Json(static_cast<uint64_t>(batch_rows)));
  result->params.Set("batches",
                     obs::Json(static_cast<uint64_t>(num_batches)));
  result->params.Set("num_threads", obs::Json(static_cast<uint64_t>(1)));

  std::vector<double> wall;
  std::vector<double> unphased, detect, patch, solve, apply, verify;
  std::vector<double> new_violations, updates, touched;
  std::vector<BatchRow> batch;
  const double cpu_start = ProcessCpuSeconds();
  for (size_t b = 0; b < num_batches; ++b) {
    batch.assign(stream.begin() + b * batch_rows,
                 stream.begin() + (b + 1) * batch_rows);
    ++result->attempted;
    Timer watch;
    Result<BatchStats> stats = session->ApplyBatch(batch);
    wall.push_back(watch.ElapsedSeconds());
    if (!stats.ok()) {
      result->AddCheck("batch.ok", false, stats.status().ToString());
      return;
    }
    const double phased = stats->detect_seconds + stats->patch_seconds +
                          stats->solve_seconds + stats->apply_seconds +
                          stats->verify_seconds;
    unphased.push_back((stats->total_seconds - phased) * 1e3);
    detect.push_back(stats->detect_seconds * 1e3);
    patch.push_back(stats->patch_seconds * 1e3);
    solve.push_back(stats->solve_seconds * 1e3);
    apply.push_back(stats->apply_seconds * 1e3);
    verify.push_back(stats->verify_seconds * 1e3);
    new_violations.push_back(static_cast<double>(stats->num_new_violations));
    updates.push_back(static_cast<double>(stats->num_updates));
    touched.push_back(static_cast<double>(stats->components_touched));
  }
  const double loop_cpu = ProcessCpuSeconds() - cpu_start;

  if (options.trace == 0) {
    RecordPeakRss(result);
    StreamMetrics(wall, static_cast<double>(num_batches * batch_rows),
                  loop_cpu, session->cumulative_distance(), result);
  } else {
    result->Metric("session.batch_p95_ms", Percentile(wall, 0.95) * 1e3,
                   "ms/batch");
    result->Metric("session.unphased_ms", Mean(unphased), "ms/batch");
    result->Metric("session.detect_ms", Mean(detect), "ms/batch");
    result->Metric("session.patch_ms", Mean(patch), "ms/batch");
    result->Metric("session.solve_ms", Mean(solve), "ms/batch");
    result->Metric("session.apply_ms", Mean(apply), "ms/batch");
    result->Metric("session.verify_ms", Mean(verify), "ms/batch");
    result->Metric("session.new_violations_per_batch", Mean(new_violations),
                   "count");
    result->Metric("session.updates_per_batch", Mean(updates), "count");
    result->Metric("session.components_touched_per_batch", Mean(touched),
                   "count");
    result->Metric("session.late_early_ratio", LateEarlyRatio(wall), "ratio");
  }

  result->digest = DatabaseDigest(session->db());
  CheckStreamOutput("session", session->db(), base->db, stream,
                    session->cumulative_distance(), base->ics, result);
}

// ---------------------------------------------------------------------------
// server-mixed: RepairServer{num_workers=2, max_tenants=2} on loopback; two
// connections, one tenant each (OPEN t<i> GEN client-buy 150000 <seed+1+i>),
// each sending 200-row BATCH frames with a read after every 5th batch
// (alternating MEASURE and STATS) and a PING after every 25th.

namespace {

using server::RepairClient;
using server::RepairServer;
using server::Reply;

constexpr int kConnections = 2;

/// What one connection's closed loop observed.
struct ConnectionLog {
  std::vector<double> batch_seconds;
  std::vector<double> stats_seconds;
  std::vector<double> measure_seconds;
  std::vector<double> ping_seconds;
  double stats_bytes = 0.0;
  uint64_t attempted = 0;
  std::vector<std::string> errors;
};

void DriveConnection(RepairClient* client, const std::string& tenant,
                     const std::vector<std::vector<std::string>>& frames,
                     ConnectionLog* log) {
  // Sends one request, records its round trip, and returns the reply.
  const auto timed = [&](const std::function<Result<Reply>()>& send,
                         std::vector<double>* samples) -> std::optional<Reply> {
    ++log->attempted;
    Timer watch;
    Result<Reply> got = send();
    samples->push_back(watch.ElapsedSeconds());
    if (!got.ok()) {
      log->errors.push_back(got.status().ToString());
      return std::nullopt;
    }
    return std::move(*got);
  };
  bool stats_next = false;
  for (size_t b = 0; b < frames.size(); ++b) {
    if (!timed([&] { return client->SendBatch(tenant, frames[b]); },
               &log->batch_seconds)) {
      return;
    }
    if ((b + 1) % 5 == 0) {
      if (stats_next) {
        const std::optional<Reply> reply = timed(
            [&] { return client->Send("STATS " + tenant); },
            &log->stats_seconds);
        if (reply) log->stats_bytes = static_cast<double>(reply->body.size());
      } else {
        timed([&] { return client->Send("MEASURE " + tenant); },
              &log->measure_seconds);
      }
      stats_next = !stats_next;
    }
    if ((b + 1) % 25 == 0) {
      timed([&] { return client->Send("PING"); }, &log->ping_seconds);
    }
  }
}

/// A number at `path` inside a STATS reply, or nullopt when absent.
std::optional<double> JsonAt(const obs::Json& root,
                             std::initializer_list<std::string_view> path) {
  const obs::Json* node = &root;
  for (const std::string_view key : path) {
    if (!node->is_object()) return std::nullopt;
    node = node->Find(key);
    if (node == nullptr) return std::nullopt;
  }
  if (!node->is_number()) return std::nullopt;
  return node->AsDouble();
}

/// The per-tenant totals read from a STATS reply.
struct TenantStats {
  std::map<std::string, double> histogram_sum_us;  // per session.batch.*_us
  double batches = 0.0;                             // total_us count
  double new_violations = 0.0;
  double updates = 0.0;
  double distance = 0.0;
  std::vector<double> window_verify_ms;
  std::vector<double> window_touched;
};

Result<TenantStats> ReadTenantStats(RepairClient* client,
                                    const std::string& tenant) {
  DBREPAIR_ASSIGN_OR_RETURN(const Reply reply, client->Send("STATS " + tenant));
  DBREPAIR_ASSIGN_OR_RETURN(const obs::Json json, obs::Json::Parse(reply.body));
  TenantStats out;
  for (const char* phase : {"detect", "patch", "solve", "apply", "total"}) {
    const std::string name = std::string("session.batch.") + phase + "_us";
    out.histogram_sum_us[phase] =
        JsonAt(json, {"metrics", "histograms", name, "sum"}).value_or(0.0);
  }
  out.batches = JsonAt(json, {"metrics", "histograms", "session.batch.total_us",
                              "count"})
                    .value_or(0.0);
  out.new_violations =
      JsonAt(json, {"metrics", "counters", "session.batch.new_violations"})
          .value_or(0.0);
  out.updates = JsonAt(json, {"metrics", "counters", "session.batch.updates"})
                    .value_or(0.0);
  const std::optional<double> distance =
      JsonAt(json, {"session", "totals", "cumulative_distance"});
  if (!distance.has_value()) {
    return Status::Internal("STATS " + tenant + " has no session totals");
  }
  out.distance = *distance;
  const obs::Json* window = json.Find("session")->Find("window");
  if (window != nullptr && window->is_array()) {
    for (const obs::Json& entry : window->AsArray()) {
      if (JsonAt(entry, {"batch"}).value_or(0.0) == 0.0) continue;  // Open
      out.window_verify_ms.push_back(
          JsonAt(entry, {"verify_seconds"}).value_or(0.0) * 1e3);
      out.window_touched.push_back(
          JsonAt(entry, {"components_touched"}).value_or(0.0));
    }
  }
  return out;
}

/// One live server with its connections and each tenant's inputs.
struct ServerRig {
  std::unique_ptr<RepairServer> server;
  std::vector<RepairClient> clients;
  std::vector<GeneratedWorkload> bases;
  std::vector<std::vector<BatchRow>> streams;
  std::vector<std::vector<std::vector<std::string>>> frames;
  std::vector<TenantStats> opened;  // STATS right after OPEN (the baseline)
};

std::string TenantName(int i) {
  return std::string("t").append(std::to_string(i));
}

std::string CsvRow(const BatchRow& row) {
  std::string line = row.relation;
  for (const Value& v : row.values) {
    line += ',';
    line += std::to_string(v.AsInt());
  }
  return line;
}

}  // namespace

void RunServerMixed(const RunOptions& options, RunResult* result) {
  const size_t base_rows = options.smoke ? 3'000 : 150'000;
  const size_t batch_rows = options.smoke ? 40 : 200;
  // ~30 batches per second per connection on the reference host; the count
  // depends only on --seconds.
  const size_t num_batches =
      options.smoke ? 10
                    : static_cast<size_t>(std::lround(30 * options.seconds));

  std::optional<ServerRig> rig;
  const auto setup = [&]() -> Status {
    rig.emplace();
    server::ServerOptions server_options;
    server_options.num_workers = 2;
    server_options.max_tenants = kConnections;
    DBREPAIR_ASSIGN_OR_RETURN(rig->server,
                              RepairServer::Start(server_options));
    for (int i = 0; i < kConnections; ++i) {
      const uint64_t tenant_seed = options.seed + 1 + static_cast<uint64_t>(i);
      DBREPAIR_ASSIGN_OR_RETURN(
          RepairClient client,
          RepairClient::Connect("127.0.0.1", rig->server->port()));
      DBREPAIR_ASSIGN_OR_RETURN(
          const Reply opened,
          client.Send("OPEN " + TenantName(i) + " GEN client-buy " +
                      std::to_string(base_rows) + " " +
                      std::to_string(tenant_seed)));
      (void)opened;
      // The same spec the server generated from, for the final checks.
      DBREPAIR_ASSIGN_OR_RETURN(
          GeneratedWorkload base,
          GenerateScenario({"client-buy", base_rows, tenant_seed}));
      DBREPAIR_ASSIGN_OR_RETURN(
          std::vector<BatchRow> stream,
          StreamRows(options.seed + 100 + static_cast<uint64_t>(i),
                     num_batches * batch_rows));
      std::vector<std::vector<std::string>> frames(num_batches);
      for (size_t b = 0; b < num_batches; ++b) {
        for (size_t r = b * batch_rows; r < (b + 1) * batch_rows; ++r) {
          frames[b].push_back(CsvRow(stream[r]));
        }
      }
      DBREPAIR_ASSIGN_OR_RETURN(TenantStats baseline,
                                ReadTenantStats(&client, TenantName(i)));
      rig->clients.push_back(std::move(client));
      rig->bases.push_back(std::move(base));
      rig->streams.push_back(std::move(stream));
      rig->frames.push_back(std::move(frames));
      rig->opened.push_back(std::move(baseline));
    }
    return Status::OK();
  };
  const auto teardown = [&] { rig.reset(); };
  if (!TimedSetup(options, setup, teardown, result)) return;
  result->params.Set("base_rows",
                     obs::Json(static_cast<uint64_t>(base_rows)));
  result->params.Set("batch_rows",
                     obs::Json(static_cast<uint64_t>(batch_rows)));
  result->params.Set("batches_per_connection",
                     obs::Json(static_cast<uint64_t>(num_batches)));
  result->params.Set("connections",
                     obs::Json(static_cast<uint64_t>(kConnections)));
  result->params.Set("num_threads", obs::Json(static_cast<uint64_t>(2)));

  std::vector<ConnectionLog> logs(kConnections);
  const double cpu_start = ProcessCpuSeconds();
  {
    std::vector<std::thread> threads;
    for (int i = 0; i < kConnections; ++i) {
      threads.emplace_back(DriveConnection, &rig->clients[i], TenantName(i),
                           std::cref(rig->frames[i]), &logs[i]);
    }
    for (std::thread& t : threads) t.join();
  }
  const double loop_cpu = ProcessCpuSeconds() - cpu_start;
  if (options.trace == 0) RecordPeakRss(result);

  ConnectionLog all;
  std::vector<double> late_early;
  for (const ConnectionLog& log : logs) {
    result->attempted += log.attempted;
    for (const std::string& error : log.errors) {
      result->AddCheck("request.ok", false, error);
    }
    const auto append = [](std::vector<double>* to,
                           const std::vector<double>& from) {
      to->insert(to->end(), from.begin(), from.end());
    };
    append(&all.batch_seconds, log.batch_seconds);
    append(&all.stats_seconds, log.stats_seconds);
    append(&all.measure_seconds, log.measure_seconds);
    append(&all.ping_seconds, log.ping_seconds);
    all.stats_bytes += log.stats_bytes / kConnections;
    late_early.push_back(LateEarlyRatio(log.batch_seconds));
  }

  // Final tenant totals (minus the post-OPEN baseline), then each tenant's
  // SNAPSHOT read back and checked.
  double distance = 0.0;
  std::map<std::string, double> phase_us;
  double batches = 0.0;
  double new_violations = 0.0;
  double updates = 0.0;
  std::vector<double> verify_ms;
  std::vector<double> touched;
  std::string digest;
  for (int i = 0; i < kConnections; ++i) {
    RepairClient& client = rig->clients[i];
    ++result->attempted;
    auto stats = ReadTenantStats(&client, TenantName(i));
    if (!stats.ok()) {
      result->AddCheck("stats.ok", false, stats.status().ToString());
      continue;
    }
    const TenantStats& opened = rig->opened[i];
    distance += stats->distance;
    for (const auto& [phase, sum] : stats->histogram_sum_us) {
      phase_us[phase] += sum - opened.histogram_sum_us.at(phase);
    }
    batches += stats->batches - opened.batches;
    new_violations += stats->new_violations - opened.new_violations;
    updates += stats->updates - opened.updates;
    verify_ms.insert(verify_ms.end(), stats->window_verify_ms.begin(),
                     stats->window_verify_ms.end());
    touched.insert(touched.end(), stats->window_touched.begin(),
                   stats->window_touched.end());

    ++result->attempted;
    auto snapshot = client.Send("SNAPSHOT " + TenantName(i));
    if (!snapshot.ok()) {
      result->AddCheck("snapshot.ok", false, snapshot.status().ToString());
      continue;
    }
    std::istringstream in(snapshot->body);
    const Database& base = rig->bases[i].db;
    auto final_db = ReadSnapshot(base.schema_ptr(), in);
    if (!final_db.ok()) {
      result->AddCheck("snapshot.ok", false, final_db.status().ToString());
      continue;
    }
    digest += DatabaseDigest(*final_db);
    CheckStreamOutput(TenantName(i), *final_db, base, rig->streams[i],
                      stats->distance, rig->bases[i].ics, result);
  }
  result->digest = digest;
  result->AddCheck("stats.batches_counted",
                   batches == static_cast<double>(kConnections * num_batches),
                   std::to_string(batches));

  if (options.trace == 0) {
    StreamMetrics(all.batch_seconds,
                  static_cast<double>(kConnections * num_batches * batch_rows),
                  loop_cpu, distance, result);
  } else {
    result->Metric("server.batch_p95_ms",
                   Percentile(all.batch_seconds, 0.95) * 1e3, "ms/batch");
    const auto mean_ms = [&](const char* phase) {
      return batches > 0 ? phase_us[phase] / batches / 1e3 : 0.0;
    };
    const double apply_batch_ms = mean_ms("total");
    result->Metric("server.apply_batch_ms", apply_batch_ms, "ms/batch");
    result->Metric("server.overhead_ms",
                   Mean(all.batch_seconds) * 1e3 - apply_batch_ms, "ms/batch");
    result->Metric("server.ping_ms", Median(all.ping_seconds) * 1e3, "ms/req");
    result->Metric("server.stats_ms", Median(all.stats_seconds) * 1e3,
                   "ms/req");
    result->Metric("server.measure_ms", Median(all.measure_seconds) * 1e3,
                   "ms/req");
    std::vector<double> reads = all.stats_seconds;
    reads.insert(reads.end(), all.measure_seconds.begin(),
                 all.measure_seconds.end());
    result->Metric("server.read_p50_ms", Median(reads) * 1e3, "ms/req");
    result->Metric("server.stats_bytes", all.stats_bytes, "bytes");
    result->Metric("session.detect_ms", mean_ms("detect"), "ms/batch");
    result->Metric("session.patch_ms", mean_ms("patch"), "ms/batch");
    result->Metric("session.solve_ms", mean_ms("solve"), "ms/batch");
    result->Metric("session.apply_ms", mean_ms("apply"), "ms/batch");
    result->Metric("session.verify_ms", Mean(verify_ms), "ms/batch");
    result->Metric("session.unphased_ms",
                   apply_batch_ms - mean_ms("detect") - mean_ms("patch") -
                       mean_ms("solve") - mean_ms("apply") - Mean(verify_ms),
                   "ms/batch");
    result->Metric("session.new_violations_per_batch",
                   batches > 0 ? new_violations / batches : 0.0, "count");
    result->Metric("session.updates_per_batch",
                   batches > 0 ? updates / batches : 0.0, "count");
    result->Metric("session.components_touched_per_batch", Mean(touched),
                   "count");
    result->Metric("session.late_early_ratio", Mean(late_early), "ratio");
  }
  for (RepairClient& client : rig->clients) client.Quit();
  rig->server->Stop();
}

}  // namespace dbrepair::ledger
