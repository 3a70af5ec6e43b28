// The two one-shot workloads: oneshot-clientbuy (ExecuteRepair on an
// in-memory Client/Buy instance, thread-pool path) and cli-csv-hotspot (the
// CLI's load -> repair -> export path as library calls, serial). The
// untraced pass times whole ops; the traced pass replays one op as the
// sequence of public calls ExecuteRepair makes internally and times each.

#include <algorithm>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "constraints/locality.h"
#include "constraints/violation_engine.h"
#include "gen/client_buy.h"
#include "io/config.h"
#include "io/csv.h"
#include "io/export.h"
#include "ledger.h"
#include "repair/api.h"
#include "repair/instance_builder.h"
#include "repair/setcover/component_solve.h"
#include "repair/setcover/csr_instance.h"

namespace dbrepair::ledger {

namespace {

// Replays per traced run; the per-layer value is the median over them.
constexpr int kReplays = 5;
constexpr int kMinTimedOps = 3;

/// The input of one op and everything the checks need afterwards.
struct OpOutput {
  const Database* input = nullptr;        // the instance the repair ran on
  std::unique_ptr<Database> owned_input;  // set when the op loaded it
  std::optional<RepairOutcome> outcome;
  size_t export_bytes = 0;
};

/// One op: produces an OpOutput or the library error that ended it.
using OpFn = std::function<Result<OpOutput>(SpanLog* spans)>;

// ---------------------------------------------------------------------------
// The staged replay: the calls RepairDatabase makes internally on its
// default path (columnar scan, component-sharded solve), in order and with
// the same options, each under its own span. BuildRepairProblem recomputes
// the snapshot, scan and fix generation internally, so those three are
// timed separately first and `repair.assemble` is what BuildRepairProblem
// takes beyond them.
Result<RepairOutcome> StagedRepair(const Database& db,
                                   const std::vector<DenialConstraint>& ics,
                                   const RepairOptions& options,
                                   SpanLog* spans, RunResult* counts) {
  std::vector<BoundConstraint> bound;
  {
    ScopedSpan span(spans, "constraints.bind");
    DBREPAIR_ASSIGN_OR_RETURN(bound, BindAll(db.schema(), ics));
    DBREPAIR_RETURN_IF_ERROR(EnsureLocal(db.schema(), bound));
  }
  const DistanceFunction distance(options.distance);
  const size_t num_threads = ResolveNumThreads(options.num_threads);
  std::unique_ptr<ThreadPool> pool;
  if (num_threads > 1) pool = std::make_unique<ThreadPool>(num_threads);

  ColumnSnapshot snapshot;
  {
    ScopedSpan span(spans, "storage.snapshot");
    snapshot = ColumnSnapshot::Build(db, pool.get());
  }
  size_t unclean = 0;
  for (size_t r = 0; r < snapshot.relation_count(); ++r) {
    for (const ColumnData& column : snapshot.relation(r).columns) {
      if (!column.clean()) ++unclean;
    }
  }

  std::vector<ViolationSet> violations;
  {
    ScopedSpan span(spans, "constraints.scan");
    ViolationEngineOptions engine_options = options.build.engine;
    engine_options.num_threads = num_threads;
    engine_options.columnar = &snapshot;
    ViolationEngine engine(db, bound, engine_options);
    DBREPAIR_ASSIGN_OR_RETURN(violations, engine.FindViolations());
  }
  std::vector<CandidateFix> fixes;
  {
    ScopedSpan span(spans, "repair.fixes");
    DBREPAIR_ASSIGN_OR_RETURN(
        fixes, GenerateCandidateFixes(db, bound, distance, violations,
                                      /*vid_offset=*/0, num_threads,
                                      pool.get()));
  }

  BuildOptions build_options = options.build;
  build_options.num_threads = options.num_threads;
  std::optional<RepairProblem> problem;
  {
    ScopedSpan span(spans, "repair.build");
    DBREPAIR_ASSIGN_OR_RETURN(
        problem,
        BuildRepairProblem(db, bound, distance, build_options, pool.get()));
  }

  std::optional<CsrSetCoverInstance> csr;
  {
    ScopedSpan span(spans, "setcover.freeze");
    csr.emplace(CsrSetCoverInstance::Freeze(problem->instance));
  }
  SetCoverSolution cover;
  ShardedSolveStats solve_stats;
  if (SolverShardsByComponent(options.solver)) {
    std::optional<ComponentPartition> partition;
    {
      ScopedSpan span(spans, "setcover.partition");
      partition.emplace(problem->components.Partition());
    }
    ScopedSpan span(spans, "setcover.solve");
    DBREPAIR_ASSIGN_OR_RETURN(
        cover, SolveSetCoverSharded(options.solver, *csr, *partition,
                                    pool.get(), &solve_stats));
  } else {
    ScopedSpan span(spans, "setcover.solve");
    DBREPAIR_ASSIGN_OR_RETURN(cover, SolveSetCover(options.solver, *csr));
  }

  std::vector<AppliedUpdate> updates;
  std::optional<Database> repaired;
  {
    ScopedSpan span(spans, "repair.apply");
    DBREPAIR_ASSIGN_OR_RETURN(repaired,
                              ApplyCover(db, *problem, cover, &updates));
  }
  {
    ScopedSpan span(spans, "repair.verify");
    ViolationEngineOptions verify_options = build_options.engine;
    verify_options.num_threads = options.num_threads;
    std::vector<uint32_t> dirty;
    for (const AppliedUpdate& update : updates) {
      if (std::find(dirty.begin(), dirty.end(), update.tuple.relation) ==
          dirty.end()) {
        dirty.push_back(update.tuple.relation);
      }
    }
    const ColumnSnapshot verify_snapshot =
        problem->snapshot.Rebase(*repaired, dirty);
    verify_options.columnar = &verify_snapshot;
    DBREPAIR_ASSIGN_OR_RETURN(
        const bool consistent,
        ViolationEngine::Satisfies(*repaired, bound, verify_options));
    if (!consistent) return Status::Internal("staged repair left violations");
  }
  RepairOutcome outcome{std::move(*repaired), RepairStats{},
                        std::move(updates)};
  {
    ScopedSpan span(spans, "repair.distance");
    DBREPAIR_ASSIGN_OR_RETURN(outcome.stats.distance,
                              distance.DatabaseDistance(db, outcome.repaired));
  }

  counts->Metric("storage.unclean_columns", static_cast<double>(unclean),
                 "count");
  counts->Metric("constraints.violation_sets",
                 static_cast<double>(violations.size()), "count");
  counts->Metric("repair.candidate_fixes", static_cast<double>(fixes.size()),
                 "count");
  counts->Metric("setcover.components",
                 static_cast<double>(problem->components.num_components()),
                 "count");
  counts->Metric("setcover.max_component_us",
                 static_cast<double>(solve_stats.max_component_us), "us/op");
  counts->Metric("setcover.chosen_sets",
                 static_cast<double>(cover.chosen.size()), "count");
  counts->Metric("repair.updates", static_cast<double>(outcome.updates.size()),
                 "count");
  if (violations.size() != problem->violations.size() ||
      fixes.size() != problem->fixes.size()) {
    return Status::Internal("staged calls disagree with BuildRepairProblem");
  }
  outcome.stats.num_violations = problem->violations.size();
  return outcome;
}

/// A repair op over an in-memory instance: ExecuteRepair untraced, the
/// staged replay when `spans` is set.
Result<OpOutput> RepairOp(const Database& db,
                          const std::vector<DenialConstraint>& ics,
                          const RepairOptions& repair_options, SpanLog* spans,
                          RunResult* counts) {
  OpOutput out;
  out.input = &db;
  if (spans == nullptr) {
    DBREPAIR_ASSIGN_OR_RETURN(RepairResponse response,
                              ExecuteRepair({&db, ics, repair_options}));
    out.outcome.emplace(std::move(response.outcome));
  } else {
    DBREPAIR_ASSIGN_OR_RETURN(
        out.outcome, StagedRepair(db, ics, repair_options, spans, counts));
  }
  return out;
}

/// Checks one op's output against an independent recomputation: zero
/// violation sets under the SQL views, and Delta(input, repaired) equal to
/// the distance the pipeline reported.
void CheckOutput(const OpOutput& out, const std::vector<DenialConstraint>& ics,
                 RunResult* result) {
  const RepairOutcome& outcome = *out.outcome;
  CheckConsistentViaSql(outcome.repaired, ics, "repaired", result);
  const DistanceFunction distance(DistanceKind::kL1);
  auto recomputed = distance.DatabaseDistance(*out.input, outcome.repaired);
  result->AddCheck("distance.matches_stats",
                   recomputed.ok() &&
                       NearlyEqual(*recomputed, outcome.stats.distance),
                   recomputed.ok() ? std::to_string(*recomputed) + " vs " +
                                         std::to_string(outcome.stats.distance)
                                   : recomputed.status().ToString());
}

/// The untraced pass (set-up already done): one warm-up op, then timed ops
/// until the budget is spent (at least kMinTimedOps). Every op's repaired
/// digest must match; the last op's output is checked.
void RunTimedOps(const RunOptions& options, const OpFn& op,
                 const std::vector<DenialConstraint>& ics, RunResult* result) {
  std::vector<double> wall;
  std::vector<double> cpu;
  std::vector<std::string> digests;
  std::optional<OpOutput> last;
  const int max_ops = options.smoke ? 2 : 200;
  Timer budget;
  for (int i = 0; i < max_ops; ++i) {
    if (i > kMinTimedOps && budget.ElapsedSeconds() >= options.seconds) break;
    last.reset();  // one op's output alive at a time, as for a real caller
    ++result->attempted;
    const double cpu_start = ProcessCpuSeconds();
    Timer watch;
    Result<OpOutput> out = op(nullptr);
    const double seconds = watch.ElapsedSeconds();
    const double cpu_seconds = ProcessCpuSeconds() - cpu_start;
    if (!out.ok()) {
      result->AddCheck("op.ok", false, out.status().ToString());
      return;
    }
    digests.push_back(DatabaseDigest(out->outcome->repaired));
    if (i == 0) {
      budget.Reset();  // the warm-up op is not timed
    } else {
      wall.push_back(seconds);
      cpu.push_back(cpu_seconds);
    }
    last = std::move(*out);
  }
  RecordPeakRss(result);

  const double rows = static_cast<double>(last->input->TotalTuples());
  result->Metric("latency_p50_ms", Median(wall) * 1e3, "ms");
  result->Metric("cpu_per_row_us", Median(cpu) / rows * 1e6, "us");
  result->Metric("repair_distance", last->outcome->stats.distance, "delta");
  result->params.Set("timed_ops",
                     obs::Json(static_cast<uint64_t>(wall.size())));
  result->params.Set("rows", obs::Json(static_cast<uint64_t>(rows)));

  bool stable = true;
  for (const std::string& d : digests) stable = stable && d == digests[0];
  result->AddCheck("digest.stable_across_ops", stable,
                   std::to_string(digests.size()) + " ops");
  result->digest = digests.back();
  CheckOutput(*last, ics, result);
}

/// The traced pass (set-up already done): one warm-up op, then kReplays
/// rounds of one timed op followed by one staged replay under spans. Layer
/// values are medians over the replays. repair.unattributed_s is the median
/// over rounds of the op's time minus its replay's staged sum (pairing the
/// two runs of a round keeps host-speed drift out of the difference), and
/// op_s is the median op.
void RunTracedOps(const OpFn& op, const std::vector<DenialConstraint>& ics,
                  SpanLog* spans, RunResult* result) {
  std::string op_digest;
  {
    ++result->attempted;
    Result<OpOutput> warm = op(nullptr);
    if (!warm.ok()) {
      result->AddCheck("op.ok", false, warm.status().ToString());
      return;
    }
    op_digest = DatabaseDigest(warm->outcome->repaired);
  }

  static const char* const kLayers[] = {
      "io.config",        "io.csv_load",      "constraints.bind",
      "storage.snapshot", "constraints.scan", "repair.fixes",
      "repair.assemble",  "setcover.freeze",  "setcover.partition",
      "setcover.solve",   "repair.apply",     "repair.verify",
      "repair.distance",  "io.export"};
  std::map<std::string, std::vector<double>> layers;
  std::vector<double> op_wall;
  std::vector<double> unattributed;
  size_t export_bytes = 0;
  for (int round = 0; round < kReplays; ++round) {
    ++result->attempted;
    {
      Timer watch;
      const Result<OpOutput> timed = op(nullptr);
      op_wall.push_back(watch.ElapsedSeconds());
      if (!timed.ok()) {
        result->AddCheck("op.ok", false, timed.status().ToString());
        return;
      }
    }

    ++result->attempted;
    const size_t root = spans->Begin("replay");
    const Result<OpOutput> replay = op(spans);
    spans->End(root);
    if (!replay.ok()) {
      result->AddCheck("replay.ok", false, replay.status().ToString());
      return;
    }
    std::map<std::string, double> self = spans->SelfByName(root);
    self["repair.assemble"] = self["repair.build"] -
                              self["storage.snapshot"] -
                              self["constraints.scan"] - self["repair.fixes"];
    double sum = 0.0;
    for (const char* layer : kLayers) {
      layers[layer].push_back(self[layer]);
      sum += self[layer];
    }
    unattributed.push_back(op_wall.back() - sum);
    export_bytes = replay->export_bytes;
    result->digest = DatabaseDigest(replay->outcome->repaired);
    result->AddCheck("replay.digest_matches_op", result->digest == op_digest,
                     result->digest + " vs " + op_digest);
    if (round == kReplays - 1) CheckOutput(*replay, ics, result);
  }
  for (const char* layer : kLayers) {
    result->Metric(std::string(layer) + "_s", Median(layers[layer]), "s/op");
  }
  result->Metric("io.export_bytes", static_cast<double>(export_bytes),
                 "bytes");
  result->Metric("repair.unattributed_s", Median(unattributed), "s/op");
  result->Metric("op_s", Median(op_wall), "s");
}

void RunOps(const RunOptions& options, const OpFn& op,
            const std::vector<DenialConstraint>& ics, SpanLog* spans,
            RunResult* result) {
  if (options.trace == 0) {
    RunTimedOps(options, op, ics, result);
  } else {
    RunTracedOps(op, ics, spans, result);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// oneshot-clientbuy: ExecuteRepair on ~1M Client/Buy tuples (ratio 0.3),
// num_threads = min(2, nproc).

void RunOneshotClientBuy(const RunOptions& options, SpanLog* spans,
                         RunResult* result) {
  ClientBuyOptions gen;
  gen.num_clients = options.smoke ? 1'000 : 333'334;  // 3 tuples per client
  gen.inconsistency_ratio = 0.3;
  gen.seed = options.seed;
  std::optional<GeneratedWorkload> workload;
  const auto setup = [&]() -> Status {
    DBREPAIR_ASSIGN_OR_RETURN(workload, GenerateClientBuy(gen));
    return Status::OK();
  };
  if (!TimedSetup(options, setup, [&] { workload.reset(); }, result)) return;
  RepairOptions repair_options;
  repair_options.num_threads = options.threads;
  result->params.Set("clients",
                     obs::Json(static_cast<uint64_t>(gen.num_clients)));
  result->params.Set("num_threads",
                     obs::Json(static_cast<uint64_t>(options.threads)));

  const OpFn op = [&](SpanLog* op_spans) {
    return RepairOp(workload->db, workload->ics, repair_options, op_spans,
                    result);
  };
  RunOps(options, op, workload->ics, spans, result);
}

// ---------------------------------------------------------------------------
// cli-csv-hotspot: LoadConfigFile -> LoadCsvFile x2 -> ExecuteRepair (1
// thread) -> ExportRepair(update statements), over ~400k tuples written to
// CSV at set-up with 1% of Client.C blank (NULL).

namespace {

Status WriteCsvInputs(const Database& db, uint64_t seed,
                      const std::string& dir) {
  Rng rng(seed ^ 0x5eedc0ffeeULL);
  for (size_t r = 0; r < db.relation_count(); ++r) {
    const Table& table = db.table(r);
    const RelationSchema& schema = table.schema();
    std::ofstream out(dir + "/" + schema.name() + ".csv");
    for (size_t a = 0; a < schema.arity(); ++a) {
      out << (a == 0 ? "" : ",") << schema.attribute(a).name;
    }
    out << '\n';
    const bool blank_credit = schema.name() == "Client";
    std::string line;
    for (const Tuple& tuple : table.rows()) {
      line.clear();
      for (size_t a = 0; a < tuple.arity(); ++a) {
        if (a > 0) line += ',';
        // Client.C (attribute 2) is blank in 1% of rows: NULL cells push
        // the scan of that column onto the row-path fallback.
        if (blank_credit && a == 2 && rng.Bernoulli(0.01)) continue;
        line += std::to_string(tuple.value(a).AsInt());
      }
      out << line << '\n';
    }
    if (!out) return Status::IoError("cannot write CSV input in " + dir);
  }
  return Status::OK();
}

Status WriteConfig(const std::string& dir) {
  std::ofstream out(dir + "/repair.conf");
  out << "[relation Client]\n"
         "attribute ID INT key\n"
         "attribute A INT flexible weight=1\n"
         "attribute C INT flexible weight=1\n"
      << "data = " << dir << "/Client.csv\n\n"
      << "[relation Buy]\n"
         "attribute ID INT key\n"
         "attribute I INT key\n"
         "attribute P INT flexible weight=1\n"
      << "data = " << dir << "/Buy.csv\n\n"
      << "[constraints]\n"
         "ic1: :- Buy(id, i, p), Client(id, a, c), a < 18, p > 25\n"
         "ic2: :- Client(id, a, c), a < 18, c > 50\n\n"
         "[repair]\n"
         "solver = modified-greedy\n"
         "mode = update\n";
  return out ? Status::OK() : Status::IoError("cannot write config in " + dir);
}

/// The CLI's path as library calls, each under a span when `spans` is set.
Result<OpOutput> CliOp(const std::string& config_path, SpanLog* spans,
                       RunResult* counts) {
  std::optional<ScopedSpan> span;
  if (spans != nullptr) span.emplace(spans, "io.config");
  DBREPAIR_ASSIGN_OR_RETURN(RepairConfig config, LoadConfigFile(config_path));
  span.reset();

  if (spans != nullptr) span.emplace(spans, "io.csv_load");
  auto db = std::make_unique<Database>(config.schema);
  for (const auto& [relation, path] : config.data_files) {
    DBREPAIR_RETURN_IF_ERROR(LoadCsvFile(db.get(), relation, path).status());
  }
  span.reset();

  RepairOptions repair_options;
  repair_options.solver = config.solver;
  repair_options.distance = config.distance;
  repair_options.num_threads = 1;
  DBREPAIR_ASSIGN_OR_RETURN(
      OpOutput out,
      RepairOp(*db, config.constraints, repair_options, spans, counts));
  out.owned_input = std::move(db);

  if (spans != nullptr) span.emplace(spans, "io.export");
  DBREPAIR_ASSIGN_OR_RETURN(
      const std::string exported,
      ExportRepair(out.outcome->repaired, out.outcome->updates, config.mode));
  span.reset();
  out.export_bytes = exported.size();
  return out;
}

}  // namespace

void RunCliCsvHotspot(const RunOptions& options, SpanLog* spans,
                      RunResult* result) {
  ClientBuyOptions gen;
  gen.num_clients = options.smoke ? 1'000 : 100'000;
  gen.inconsistency_ratio = 0.3;
  gen.hotspot_clients = options.smoke ? 5 : 50;
  gen.hotspot_buys = options.smoke ? 50 : 2'000;
  gen.seed = options.seed;
  const std::string dir = options.workdir;
  size_t generated_tuples = 0;
  const auto setup = [&]() -> Status {
    DBREPAIR_ASSIGN_OR_RETURN(GeneratedWorkload workload,
                              GenerateClientBuy(gen));
    generated_tuples = workload.db.TotalTuples();
    DBREPAIR_RETURN_IF_ERROR(WriteCsvInputs(workload.db, options.seed, dir));
    return WriteConfig(dir);
  };
  if (!TimedSetup(options, setup, [] {}, result)) return;
  result->params.Set("clients",
                     obs::Json(static_cast<uint64_t>(gen.num_clients)));
  result->params.Set("num_threads", obs::Json(static_cast<uint64_t>(1)));

  const std::string config_path = dir + "/repair.conf";
  const OpFn op = [&](SpanLog* op_spans) -> Result<OpOutput> {
    DBREPAIR_ASSIGN_OR_RETURN(OpOutput out,
                              CliOp(config_path, op_spans, result));
    if (out.input->TotalTuples() != generated_tuples) {
      return Status::Internal("CSV load returned " +
                              std::to_string(out.input->TotalTuples()) +
                              " tuples, generated " +
                              std::to_string(generated_tuples));
    }
    return out;
  };
  RunOps(options, op, MakeClientBuyConstraints(), spans, result);
}

}  // namespace dbrepair::ledger
