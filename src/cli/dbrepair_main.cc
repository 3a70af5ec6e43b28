// Command-line repair tool: the end-to-end pipeline of the paper's Figure-1
// architecture driven by a configuration file.
//
// Usage:
//   dbrepair [repair] <config> [--solver S] [--distance L1|L2] [--mode M]
//            [--output PATH] [--metrics-out PATH] [--trace-out PATH]
//            [--threads N] [--trace] [--quiet] [--report]
//   dbrepair check <config> [--quiet]     detect violations; exit 3 if any
//   dbrepair explain <config>             print locality analysis + SQL views
//   dbrepair query <config> <SQL>         run a SELECT against the data
//
// The config declares the schema (flexible attributes + weights), the data
// CSVs, the denial constraints, and defaults for solver/distance/export
// mode; the flags override the config. Incidental output goes through the
// obs logger (severity >= info; --quiet raises the bar to warn), --trace
// prints the span tree to stderr, --metrics-out writes the single-document
// JSON run snapshot (phases, counters, gauges, histograms, trace, workers,
// session telemetry), and --trace-out enables the per-worker event buffers
// and writes a Chrome trace-event JSON (chrome://tracing / Perfetto).

#include <csignal>
#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/strings.h"
#include "constraints/locality.h"
#include "constraints/violation_engine.h"
#include "io/config.h"
#include "io/csv.h"
#include "io/export.h"
#include "io/report.h"
#include "gen/scenario.h"
#include "obs/chrome_trace.h"
#include "obs/context.h"
#include "repair/api.h"
#include "server/client.h"
#include "server/server.h"
#include "sql/executor.h"
#include "sql/views.h"

namespace {

int Fail(const dbrepair::Status& status) {
  std::cerr << "dbrepair: " << status.ToString() << "\n";
  return 1;
}

void PrintUsage() {
  std::cerr
      << "usage: dbrepair [repair] <config> [--solver greedy|modified-greedy"
         "|lazy-greedy|layer|modified-layer|exact]\n"
         "                [--distance L1|L2] [--mode update|insert|dump]\n"
         "                [--output PATH] [--metrics-out PATH]"
         " [--trace-out PATH]\n"
         "                [--threads N]\n"
         "                [--batch-file PATH] [--batch-size N]\n"
         "                [--trace] [--quiet] [--report] [--measure]\n"
         "       dbrepair check <config> [--quiet]\n"
         "       dbrepair explain <config>\n"
         "       dbrepair query <config> <SQL>\n"
         "       dbrepair gen <scenario> [--rows N] [--seed N] [--skew X]\n"
         "                [--ratio X] [--degree N] [--output PATH]\n"
         "                [--mode update|insert|dump] [repair flags...]\n"
         "           scenario: zipf-hotspot | sensor-drift | adversary |\n"
         "                     client-buy | census\n"
         "       dbrepair serve [--host A] [--port N] [--threads N]\n"
         "                [--max-tenants N] [--max-pending N] [--quiet]\n"
         "           run the multi-tenant repair server (dbrepaird); one\n"
         "           named RepairSession per tenant, line protocol over TCP\n"
         "           (OPEN/BATCH/STATS/SNAPSHOT/MEASURE/CLOSE/PING/QUIT)\n"
         "       dbrepair client --port N [--host A] <command...>\n"
         "           send one protocol command; BATCH reads payload rows\n"
         "           from stdin\n"
         "\n"
         "  --measure           print the repair-distance inconsistency\n"
         "                      measure of the input (distance normalized\n"
         "                      by instance size) to stderr\n"
         "  --rows N            approximate generated instance size (gen)\n"
         "  --seed N            generator RNG seed (gen; default 1)\n"
         "  --skew X            Zipf exponent of the hotspot join (gen\n"
         "                      zipf-hotspot; default 1.0)\n"
         "  --ratio X           inconsistency/drift ratio (gen; default 0.3)\n"
         "  --degree N          exact Deg(D, IC) target (gen adversary;\n"
         "                      default 8)\n"
         "  --metrics-out PATH  write the JSON run snapshot (per-phase wall\n"
         "                      times, per-constraint violation counts,\n"
         "                      solver counters, span tree, per-worker\n"
         "                      lanes, session telemetry) to PATH\n"
         "  --trace-out PATH    record per-worker trace events and write a\n"
         "                      Chrome trace-event JSON to PATH (load it in\n"
         "                      chrome://tracing or https://ui.perfetto.dev)\n"
         "  --threads N         worker threads for the build/verify phases\n"
         "                      (0 = one per hardware thread, 1 = serial;\n"
         "                      the repair is identical either way)\n"
         "  --batch-file PATH   after the initial repair, replay PATH's\n"
         "                      'relation,v1,v2,...' lines through a repair\n"
         "                      session: rows are inserted in batches and\n"
         "                      consistency is restored incrementally after\n"
         "                      each one ('#' lines are comments)\n"
         "  --batch-size N      rows per session batch (0 = the whole file\n"
         "                      as one batch)\n"
         "  --trace             print the nested span tree to stderr\n"
         "  --quiet             suppress incidental output (logger severity\n"
         "                      below 'warn')\n";
}

std::string Printf(const char* format, ...) {
  char buffer[512];
  va_list args;
  va_start(args, format);
  vsnprintf(buffer, sizeof(buffer), format, args);
  va_end(args);
  return buffer;
}

}  // namespace

namespace dbrepair {
namespace {

void ConfigureLogger(obs::Logger* logger, bool quiet) {
  logger->set_min_severity(quiet ? obs::LogSeverity::kWarn
                                 : obs::LogSeverity::kInfo);
}

// A flag-parse failure: the error, then the usage text; exit code 2.
int UsageError(const Status& status) {
  std::cerr << "dbrepair: " << status.ToString() << "\n";
  PrintUsage();
  return 2;
}

// The flags `repair` and `gen` share. Each command reads --mode itself:
// `repair` overrides the config's mode with it, `gen` defaults to dump and
// parses it only when --output asks for an export.
struct RunFlags {
  bool quiet = false;
  bool report = false;
  bool measure = false;
  bool trace = false;
  size_t num_threads = 0;
  std::string solver_name;
  std::string distance_name;
  std::string mode_name;
  std::string output_path;
  std::string metrics_out;
  std::string trace_out;

  void Register(FlagSet* flags) {
    flags->AddString(kFlagSolver, &solver_name,
                     "set-cover solver (greedy|modified-greedy|lazy-greedy|"
                     "layer|modified-layer|exact)");
    flags->AddString("--distance", &distance_name, "distance norm (L1|L2)");
    flags->AddString("--mode", &mode_name, "export mode (update|insert|dump)");
    flags->AddString("--output", &output_path, "write the export to PATH");
    flags->AddSize(kFlagThreads, &num_threads,
                   "worker threads (0 = auto, 1 = serial)");
    flags->AddString("--metrics-out", &metrics_out,
                     "write the JSON run snapshot to PATH");
    flags->AddString(kFlagTraceOut, &trace_out,
                     "record worker events; write Chrome trace JSON to PATH");
    flags->AddBool("--trace", &trace, "print the span tree to stderr");
    flags->AddBool("--quiet", &quiet, "suppress incidental output");
    flags->AddBool("--report", &report, "print the repair report to stderr");
    flags->AddBool("--measure", &measure,
                   "print the inconsistency measure to stderr");
  }

  // Overrides `*solver` and `*distance` with --solver and --distance, when
  // given.
  Status ParseSolverAndDistance(SolverKind* solver,
                                DistanceKind* distance) const {
    if (!solver_name.empty()) {
      DBREPAIR_ASSIGN_OR_RETURN(*solver, ParseSolverKind(solver_name));
    }
    if (!distance_name.empty()) {
      DBREPAIR_ASSIGN_OR_RETURN(*distance, ParseDistanceKind(distance_name));
    }
    return Status::OK();
  }

  // --quiet raises the logger's bar. Event recording is off unless a trace
  // is requested: the per-worker buffers are cheap but not free, and
  // nothing would read them.
  void ConfigureObs(obs::ObsContext* obs) const {
    ConfigureLogger(&obs->logger, quiet);
    if (!trace_out.empty()) obs->events.set_enabled(true);
  }

  // Prints the span tree (--trace), then writes the run snapshot with
  // `extra`'s members appended (--metrics-out) and the Chrome trace
  // (--trace-out). Returns the exit code.
  int WriteOutputs(obs::ObsContext& obs, obs::Json::Object extra) const {
    if (trace) {
      std::cerr << obs::FormatSpanTrees(obs.events);
    }
    if (!metrics_out.empty()) {
      obs::Json snapshot = obs::BuildRunSnapshot(obs);
      for (auto& [key, value] : extra) snapshot.Set(key, std::move(value));
      const Status st = WriteTextFile(metrics_out, snapshot.Dump(2) + "\n");
      if (!st.ok()) return Fail(st);
      obs.logger.Info("wrote metrics snapshot to " + metrics_out);
    }
    if (!trace_out.empty()) {
      const Status st =
          WriteTextFile(trace_out, obs::ChromeTraceJson(obs).Dump() + "\n");
      if (!st.ok()) return Fail(st);
      obs.logger.Info("wrote Chrome trace to " + trace_out);
    }
    return 0;
  }
};

Result<Database> LoadData(const RepairConfig& config) {
  obs::Logger& logger = obs::CurrentObs().logger;
  Database db(config.schema);
  for (const auto& [relation, path] : config.data_files) {
    DBREPAIR_ASSIGN_OR_RETURN(const size_t loaded,
                              LoadCsvFile(&db, relation, path));
    logger.Info("loaded " + std::to_string(loaded) + " tuples into " +
                relation + " from " + path);
  }
  return db;
}

int RunCheck(const RepairConfig& config, bool quiet) {
  ConfigureLogger(&obs::CurrentObs().logger, quiet);
  auto db = LoadData(config);
  if (!db.ok()) return Fail(db.status());
  auto bound = BindAll(*config.schema, config.constraints);
  if (!bound.ok()) return Fail(bound.status());
  ViolationEngine engine(*db, *bound);
  auto violations = engine.FindViolations();
  if (!violations.ok()) return Fail(violations.status());
  const DegreeInfo degrees = ComputeDegrees(*violations);
  std::printf("violation sets: %zu, inconsistent tuples: %zu, "
              "Deg(D, IC) = %u\n",
              violations->size(), degrees.per_tuple.size(),
              degrees.max_degree);
  for (const BoundConstraint& ic : *bound) {
    size_t count = 0;
    for (const ViolationSet& v : *violations) {
      if (v.ic_index == ic.ic_index) ++count;
    }
    std::printf("  %-20s %zu\n", ic.name.c_str(), count);
  }
  return violations->empty() ? 0 : 3;
}

int RunExplain(const RepairConfig& config) {
  auto bound = BindAll(*config.schema, config.constraints);
  if (!bound.ok()) return Fail(bound.status());
  const LocalityReport locality = CheckLocality(*config.schema, *bound);
  std::printf("locality: %s\n", locality.local ? "local" : "NOT local");
  for (const std::string& problem : locality.problems) {
    std::printf("  problem: %s\n", problem.c_str());
  }
  for (const BoundConstraint& ic : *bound) {
    auto sql = DenialToSql(*config.schema, ic);
    if (!sql.ok()) return Fail(sql.status());
    std::printf("%s: %s\n  view: %s\n", ic.name.c_str(),
                config.constraints[ic.ic_index].ToString().c_str(),
                sql->c_str());
  }
  std::printf("flexible comparisons (drive the mono-local fixes):\n");
  for (const FlexibleComparison& cmp : locality.flexible_comparisons) {
    const RelationSchema& rel = config.schema->relations()[cmp.relation];
    std::printf("  ic%u: %s.%s %s %lld\n", cmp.ic_index + 1,
                rel.name().c_str(), rel.attribute(cmp.attribute).name.c_str(),
                CompareOpName(cmp.op), static_cast<long long>(cmp.bound));
  }
  return 0;
}

int RunQuery(const RepairConfig& config, const std::string& sql) {
  ConfigureLogger(&obs::CurrentObs().logger, /*quiet=*/true);
  auto db = LoadData(config);
  if (!db.ok()) return Fail(db.status());
  auto result = Query(*db, sql);
  if (!result.ok()) return Fail(result.status());
  for (size_t i = 0; i < result->columns.size(); ++i) {
    std::printf("%s%s", i > 0 ? "\t" : "", result->columns[i].c_str());
  }
  std::printf("\n");
  for (const auto& row : result->rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      std::printf("%s%s", i > 0 ? "\t" : "", row[i].ToString().c_str());
    }
    std::printf("\n");
  }
  return 0;
}

// Parses a --batch-file: each non-empty, non-'#' line is
// `relation,v1,v2,...`, with the values converted to the relation's
// declared column types.
Result<std::vector<BatchRow>> LoadBatchFile(const Database& db,
                                            const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open '" + path + "' for reading");
  std::vector<BatchRow> rows;
  std::string raw;
  size_t line_number = 0;
  while (std::getline(in, raw)) {
    ++line_number;
    std::string_view line = raw;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    line = TrimWhitespace(line);
    if (line.empty() || line.front() == '#') continue;
    auto parsed = ParseTypedCsvRow(db, line);
    if (!parsed.ok()) {
      return Status(parsed.status().code(),
                    "batch line " + std::to_string(line_number) + ": " +
                        parsed.status().message());
    }
    rows.push_back(
        BatchRow{std::move(parsed->relation), std::move(parsed->values)});
  }
  return rows;
}

// The --batch-file path: open a RepairSession over the base data, replay
// the file's rows through it in batches, export the final instance. On
// success `*session_json` receives the session's per-batch telemetry for
// the run snapshot.
int RunSessionReplay(const RepairConfig& config, const Database& db,
                     const RepairOptions& options,
                     const std::string& batch_file, size_t batch_size,
                     bool report, bool measure, obs::ObsContext& obs,
                     obs::Json* session_json) {
  auto rows = LoadBatchFile(db, batch_file);
  if (!rows.ok()) return Fail(rows.status());

  RepairRequest request;
  request.database = &db;
  request.constraints = config.constraints;
  request.options = options;
  auto session = OpenSession(request);
  if (!session.ok()) return Fail(session.status());
  RepairSession& s = **session;
  obs.logger.Info(Printf(
      "session open: violations=%zu fixes=%zu updates=%zu cover_weight=%.6g",
      s.stats().total_violations, s.stats().total_fixes,
      s.stats().total_updates, s.stats().cover_weight));

  std::vector<AppliedUpdate> all_updates = s.open_updates();
  const size_t chunk = batch_size == 0 ? rows->size() : batch_size;
  size_t batch_index = 0;
  for (size_t begin = 0; begin < rows->size(); begin += chunk) {
    const size_t end = std::min(begin + chunk, rows->size());
    const std::vector<BatchRow> batch(rows->begin() + begin,
                                      rows->begin() + end);
    auto stats = s.ApplyBatch(batch);
    if (!stats.ok()) return Fail(stats.status());
    ++batch_index;
    obs.logger.Info(Printf(
        "batch %zu: rows=%zu new_violations=%zu chosen=%zu updates=%zu "
        "detect=%.3fs solve=%.3fs total=%.3fs",
        batch_index, stats->num_rows, stats->num_new_violations,
        stats->num_chosen_fixes, stats->num_updates, stats->detect_seconds,
        stats->solve_seconds, stats->total_seconds));
    all_updates.insert(all_updates.end(), stats->updates.begin(),
                       stats->updates.end());
  }
  obs.logger.Info(Printf(
      "session done: batches=%zu rows=%zu violations=%zu updates=%zu "
      "cover_weight=%.6g distance=%.6g",
      s.stats().num_batches, s.stats().total_rows_inserted,
      s.stats().total_violations, s.stats().total_updates,
      s.stats().cover_weight, s.cumulative_distance()));
  *session_json = s.TelemetryToJson();
  if (measure) {
    std::fprintf(stderr, "%s\n",
                 FormatInconsistencyMeasure(s.inconsistency()).c_str());
  }
  if (report) {
    std::fprintf(stderr,
                 "repair session: %zu batches, %zu rows inserted, "
                 "%zu updates, distance %.6g\n",
                 s.stats().num_batches, s.stats().total_rows_inserted,
                 s.stats().total_updates, s.cumulative_distance());
  }

  auto exported = ExportRepair(s.db(), all_updates, config.mode);
  if (!exported.ok()) return Fail(exported.status());
  if (config.output_path.empty()) {
    std::cout << exported.value();
  } else {
    const Status st = WriteTextFile(config.output_path, exported.value());
    if (!st.ok()) return Fail(st);
    obs.logger.Info("wrote " + std::string(ExportModeName(config.mode)) +
                    " export to " + config.output_path);
  }
  return 0;
}

int RunRepair(RepairConfig config, int argc, char** argv, int arg_start) {
  RunFlags run;
  size_t batch_size = 0;
  std::string batch_file;

  FlagSet flags;
  run.Register(&flags);
  flags.AddString("--batch-file", &batch_file,
                  "replay 'relation,v1,...' rows through a repair session");
  flags.AddSize("--batch-size", &batch_size,
                "rows per session batch (0 = one batch)");
  const Status parsed = flags.Parse(argc, argv, arg_start);
  if (!parsed.ok()) return UsageError(parsed);
  const Status overridden =
      run.ParseSolverAndDistance(&config.solver, &config.distance);
  if (!overridden.ok()) return Fail(overridden);
  if (!run.mode_name.empty()) {
    auto mode = ParseExportMode(run.mode_name);
    if (!mode.ok()) return Fail(mode.status());
    config.mode = mode.value();
  }
  if (!run.output_path.empty()) config.output_path = run.output_path;

  // The run's observability state; everything the pipeline records lands
  // here rather than in the process-wide default registry.
  obs::ObsContext obs;
  obs::ScopedObs scoped_obs(&obs);
  run.ConfigureObs(&obs);

  auto db = LoadData(config);
  if (!db.ok()) return Fail(db.status());

  RepairOptions options;
  options.solver = config.solver;
  options.distance = config.distance;
  options.num_threads = run.num_threads;
  const Status valid = options.Validate();
  if (!valid.ok()) return Fail(valid);

  int exit_code = 0;
  obs::Json session_json;
  if (!batch_file.empty()) {
    exit_code = RunSessionReplay(config, *db, options, batch_file, batch_size,
                                 run.report, run.measure, obs, &session_json);
  } else {
    RepairRequest request;
    request.database = &db.value();
    request.constraints = config.constraints;
    request.options = options;
    auto response = ExecuteRepair(request);
    if (!response.ok()) return Fail(response.status());
    const RepairOutcome& outcome = response->outcome;
    if (run.report) {
      std::cerr << FormatRepairReport(*db, outcome);
    }
    if (run.measure) {
      std::fprintf(stderr, "%s\n",
                   FormatInconsistencyMeasure(response->inconsistency).c_str());
    }
    const RepairStats& stats = outcome.stats;
    obs.logger.Info(Printf(
        "solver=%s violations=%zu candidate_fixes=%zu chosen=%zu "
        "updates=%zu max_degree=%u cover_weight=%.6g "
        "distance=%.6g build=%.3fs solve=%.3fs",
        SolverKindName(config.solver), stats.num_violations,
        stats.num_candidate_fixes, stats.num_chosen_fixes, stats.num_updates,
        stats.max_degree, stats.cover_weight, stats.distance,
        stats.build_seconds, stats.solve_seconds));

    auto exported =
        ExportRepair(outcome.repaired, outcome.updates, config.mode);
    if (!exported.ok()) return Fail(exported.status());
    if (config.output_path.empty()) {
      std::cout << exported.value();
    } else {
      const Status st = WriteTextFile(config.output_path, exported.value());
      if (!st.ok()) return Fail(st);
      obs.logger.Info("wrote " + std::string(ExportModeName(config.mode)) +
                      " export to " + config.output_path);
    }
  }
  if (exit_code != 0) return exit_code;

  if (run.report) {
    std::cerr << FormatHistogramSummaries(obs.metrics);
  }
  obs::Json::Object extra{{"solver", obs::Json(SolverKindName(config.solver))}};
  if (session_json.is_object()) {
    extra.emplace_back("session", std::move(session_json));
  }
  return run.WriteOutputs(obs, std::move(extra));
}

// The `gen` subcommand: build one of the named scenario workloads in
// memory (no config file), repair it, and report. The export is written
// only when --output is given — the primary outputs are the summary line,
// --report, --measure, and --metrics-out.
int RunGenerate(int argc, char** argv, int arg_start) {
  if (arg_start >= argc) {
    PrintUsage();
    return 2;
  }
  const std::string scenario = argv[arg_start];

  RunFlags run;
  size_t rows = 1000;
  size_t seed = 1;
  size_t degree = 8;
  std::string skew_text;
  std::string ratio_text;

  FlagSet flags;
  flags.AddSize("--rows", &rows, "approximate generated instance size");
  flags.AddSize("--seed", &seed, "generator RNG seed");
  flags.AddString("--skew", &skew_text, "Zipf exponent (zipf-hotspot)");
  flags.AddString("--ratio", &ratio_text, "inconsistency/drift ratio");
  flags.AddSize("--degree", &degree, "exact Deg(D, IC) target (adversary)");
  run.Register(&flags);
  const Status parsed = flags.Parse(argc, argv, arg_start + 1);
  if (!parsed.ok()) return UsageError(parsed);
  double skew = 1.0;
  double ratio = 0.3;
  if (!skew_text.empty()) {
    auto v = ParseDouble(skew_text);
    if (!v.ok()) return Fail(v.status());
    skew = v.value();
  }
  if (!ratio_text.empty()) {
    auto v = ParseDouble(ratio_text);
    if (!v.ok()) return Fail(v.status());
    ratio = v.value();
  }

  ScenarioSpec spec;
  spec.name = scenario;
  spec.rows = rows;
  spec.seed = seed;
  spec.ratio = ratio;
  spec.skew = skew;
  spec.degree = degree;
  auto workload = GenerateScenario(spec);
  if (!workload.ok()) return Fail(workload.status());

  obs::ObsContext obs;
  obs::ScopedObs scoped_obs(&obs);
  run.ConfigureObs(&obs);

  RepairOptions options;
  const Status overridden =
      run.ParseSolverAndDistance(&options.solver, &options.distance);
  if (!overridden.ok()) return Fail(overridden);
  options.num_threads = run.num_threads;
  const Status valid = options.Validate();
  if (!valid.ok()) return Fail(valid);

  const Database& db = workload.value().db;
  obs.logger.Info(Printf("generated %s: %zu tuples, %zu constraints, seed %zu",
                         scenario.c_str(), db.TotalTuples(),
                         workload.value().ics.size(), seed));
  RepairRequest request;
  request.database = &db;
  request.constraints = workload.value().ics;
  request.options = options;
  auto response = ExecuteRepair(request);
  if (!response.ok()) return Fail(response.status());
  const RepairOutcome& outcome = response->outcome;
  const RepairStats& stats = outcome.stats;
  if (run.report) {
    std::cerr << FormatRepairReport(db, outcome);
    std::cerr << FormatHistogramSummaries(obs.metrics);
  }
  if (run.measure) {
    std::fprintf(stderr, "%s\n",
                 FormatInconsistencyMeasure(response->inconsistency).c_str());
  }
  obs.logger.Info(Printf(
      "scenario=%s violations=%zu chosen=%zu updates=%zu max_degree=%u "
      "cover_weight=%.6g distance=%.6g inconsistency=%.6g",
      scenario.c_str(), stats.num_violations, stats.num_chosen_fixes,
      stats.num_updates, stats.max_degree, stats.cover_weight, stats.distance,
      stats.inconsistency));

  if (!run.output_path.empty()) {
    ExportMode mode = ExportMode::kDump;
    if (!run.mode_name.empty()) {
      auto parsed_mode = ParseExportMode(run.mode_name);
      if (!parsed_mode.ok()) return Fail(parsed_mode.status());
      mode = parsed_mode.value();
    }
    auto exported = ExportRepair(outcome.repaired, outcome.updates, mode);
    if (!exported.ok()) return Fail(exported.status());
    const Status st = WriteTextFile(run.output_path, exported.value());
    if (!st.ok()) return Fail(st);
    obs.logger.Info("wrote " + std::string(ExportModeName(mode)) +
                    " export to " + run.output_path);
  }
  return run.WriteOutputs(obs, {{"scenario", obs::Json(scenario)}});
}

// The `serve` subcommand: run dbrepaird in the foreground until SIGINT or
// SIGTERM. The signal mask is installed before RepairServer::Start so every
// server thread inherits it and the signal is delivered to sigwait below.
int RunServe(int argc, char** argv, int arg_start) {
  bool quiet = false;
  size_t port = 7433;
  size_t workers = 0;
  size_t max_tenants = 16;
  size_t max_pending = 64;
  std::string host = "127.0.0.1";

  FlagSet flags;
  flags.AddString("--host", &host, "literal IPv4 address to bind");
  flags.AddSize("--port", &port, "TCP port (0 = ephemeral, printed at start)");
  flags.AddSize(kFlagThreads, &workers,
                "repair worker threads (0 = one per hardware thread)");
  flags.AddSize("--max-tenants", &max_tenants, "most tenants live at once");
  flags.AddSize("--max-pending", &max_pending,
                "most queued-or-running requests");
  flags.AddBool("--quiet", &quiet, "suppress incidental output");
  const Status parsed = flags.Parse(argc, argv, arg_start);
  if (!parsed.ok()) return UsageError(parsed);
  if (port > 65535) return Fail(Status::InvalidArgument("port must be <= 65535"));

  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGINT);
  sigaddset(&sigs, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  server::ServerOptions options;
  options.host = host;
  options.port = static_cast<uint16_t>(port);
  options.num_workers = workers;
  options.max_tenants = max_tenants;
  options.max_pending = max_pending;
  auto srv = server::RepairServer::Start(options);
  if (!srv.ok()) return Fail(srv.status());
  // The banner is a tiny protocol of its own: tests and scripts parse the
  // resolved port off this line, so it goes to stdout and is flushed.
  std::printf("dbrepaird listening on %s:%u (workers=%zu max_tenants=%zu "
              "max_pending=%zu)\n",
              host.c_str(), (*srv)->port(), workers, max_tenants, max_pending);
  std::fflush(stdout);
  if (!quiet) {
    std::fprintf(stderr, "send SIGINT or SIGTERM to stop\n");
  }
  int sig = 0;
  sigwait(&sigs, &sig);
  (*srv)->Stop();
  if (!quiet) {
    std::fprintf(stderr, "dbrepaird: stopped (%s)\n", strsignal(sig));
  }
  return 0;
}

// The `client` subcommand: one protocol exchange against a running server.
// A BATCH command reads its payload rows from stdin (the declared count is
// replaced by the number of rows actually read).
int RunClient(int argc, char** argv, int arg_start) {
  std::string host = "127.0.0.1";
  size_t port = 0;
  FlagSet flags;
  flags.AddString("--host", &host, "literal IPv4 address of the server");
  flags.AddSize("--port", &port, "TCP port of the server");
  std::vector<std::string> words;
  const Status parsed = flags.Parse(argc, argv, arg_start, &words);
  if (!parsed.ok()) return UsageError(parsed);
  if (port == 0) {
    return UsageError(Status::InvalidArgument("client needs --port"));
  }
  if (port > 65535) {
    return Fail(Status::InvalidArgument("port must be <= 65535"));
  }
  if (words.empty()) {
    return UsageError(Status::InvalidArgument("client needs a command"));
  }

  auto client = server::RepairClient::Connect(host, static_cast<uint16_t>(port));
  if (!client.ok()) return Fail(client.status());

  Result<server::Reply> reply = Status::Internal("unreachable");
  if (words[0] == "BATCH") {
    if (words.size() < 2) {
      return Fail(Status::InvalidArgument("usage: client ... BATCH <tenant>"));
    }
    std::vector<std::string> rows;
    std::string line;
    while (std::getline(std::cin, line)) {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty() || line.front() == '#') continue;
      rows.push_back(line);
    }
    reply = client->SendBatch(words[1], rows);
  } else {
    reply = client->Send(Join(words, " "));
  }
  if (!reply.ok()) return Fail(reply.status());
  if (reply->kind == server::Reply::Kind::kOk) {
    std::printf("OK %s\n", reply->body.c_str());
  } else {
    std::fwrite(reply->body.data(), 1, reply->body.size(), stdout);
  }
  client->Quit();
  return 0;
}

}  // namespace
}  // namespace dbrepair

int main(int argc, char** argv) {
  using namespace dbrepair;  // NOLINT(build/namespaces): CLI entry point.

  if (argc < 2) {
    PrintUsage();
    return 2;
  }

  // Subcommand dispatch; a path as the first argument means `repair`.
  std::string command = argv[1];
  if (command == "gen") {
    return RunGenerate(argc, argv, 2);
  }
  if (command == "serve") {
    return RunServe(argc, argv, 2);
  }
  if (command == "client") {
    return RunClient(argc, argv, 2);
  }
  int config_arg = 1;
  if (command == "repair" || command == "check" || command == "explain" ||
      command == "query") {
    if (argc < 3) {
      PrintUsage();
      return 2;
    }
    config_arg = 2;
  } else {
    command = "repair";
  }

  auto config = LoadConfigFile(argv[config_arg]);
  if (!config.ok()) return Fail(config.status());

  if (command == "check") {
    bool quiet = false;
    FlagSet flags;
    flags.AddBool("--quiet", &quiet, "suppress incidental output");
    const Status parsed = flags.Parse(argc, argv, config_arg + 1);
    if (!parsed.ok()) return UsageError(parsed);
    return RunCheck(*config, quiet);
  }
  if (command == "explain") {
    if (config_arg + 1 < argc) {
      PrintUsage();
      return 2;
    }
    return RunExplain(*config);
  }
  if (command == "query") {
    if (config_arg + 2 != argc) {
      PrintUsage();
      return 2;
    }
    return RunQuery(*config, argv[config_arg + 1]);
  }
  return RunRepair(std::move(*config), argc, argv, config_arg + 1);
}
