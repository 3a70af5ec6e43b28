// End-to-end test of the dbrepair CLI binary: write a config + CSVs, run
// the tool as a subprocess in every mode, and check outputs and exit codes.
// The binary path is injected by CMake as DBREPAIR_CLI_PATH.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "obs/json.h"

namespace dbrepair {
namespace {

#ifndef DBREPAIR_CLI_PATH
#error "DBREPAIR_CLI_PATH must be defined by the build"
#endif

struct RunResult {
  int exit_code = -1;
  std::string stdout_text;
};

RunResult RunCli(const std::string& args) {
  const std::string command = std::string(DBREPAIR_CLI_PATH) + " " + args +
                              " 2>/dev/null";
  RunResult result;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  char buffer[4096];
  size_t n;
  while ((n = fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    result.stdout_text.append(buffer, n);
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

/// Like RunCli but captures stderr instead of stdout.
RunResult RunCliStderr(const std::string& args) {
  const std::string command = std::string(DBREPAIR_CLI_PATH) + " " + args +
                              " 2>&1 >/dev/null";
  RunResult result;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  char buffer[4096];
  size_t n;
  while ((n = fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    result.stdout_text.append(buffer, n);
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per test: ctest -j runs the discovered tests as
    // concurrent processes, and a shared directory would let one test's
    // SetUp truncate the config while another test's subprocess reads it.
    dir_ = ::testing::TempDir() + "/dbrepair_cli_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    const std::string mkdir = "mkdir -p " + dir_;
    ASSERT_EQ(std::system(mkdir.c_str()), 0);
    WriteFile(dir_ + "/paper.csv",
              "ID,EF,PRC,CF\n"
              "B1,1,40,0\n"
              "C2,1,20,1\n"
              "E3,1,70,1\n");
    WriteFile(dir_ + "/repair.conf",
              "[relation Paper]\n"
              "attribute ID STRING key\n"
              "attribute EF INT flexible weight=1\n"
              "attribute PRC INT flexible weight=0.05\n"
              "attribute CF INT flexible weight=0.5\n"
              "data = " + dir_ + "/paper.csv\n"
              "\n"
              "[constraints]\n"
              "ic1: :- Paper(x, y, z, w), y > 0, z < 50\n"
              "ic2: :- Paper(x, y, z, w), y > 0, w < 1\n"
              "\n"
              "[repair]\n"
              "solver = modified-greedy\n"
              "mode = dump\n");
  }

  void WriteFile(const std::string& path, const std::string& content) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good());
    out << content;
  }

  std::string ReadFile(const std::string& path) {
    std::ifstream in(path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  }

  std::string dir_;
};

TEST_F(CliTest, DumpModeRepairsToStdout) {
  const RunResult result = RunCli(dir_ + "/repair.conf --quiet");
  EXPECT_EQ(result.exit_code, 0);
  // The repair flips EF of B1 and C2 to 0 (the optimal distance-2 repair).
  EXPECT_NE(result.stdout_text.find("Paper('B1', 0, 40, 0)"),
            std::string::npos)
      << result.stdout_text;
  EXPECT_NE(result.stdout_text.find("Paper('C2', 0, 20, 1)"),
            std::string::npos);
  EXPECT_NE(result.stdout_text.find("Paper('E3', 1, 70, 1)"),
            std::string::npos);
}

TEST_F(CliTest, UpdateModeWritesSqlFile) {
  const std::string out_path = dir_ + "/patch.sql";
  const RunResult result = RunCli(dir_ + "/repair.conf --mode update "
                                  "--output " + out_path + " --quiet");
  EXPECT_EQ(result.exit_code, 0);
  const std::string sql = ReadFile(out_path);
  EXPECT_NE(sql.find("UPDATE Paper SET EF = 0 WHERE ID = 'B1';"),
            std::string::npos)
      << sql;
  EXPECT_NE(sql.find("WHERE ID = 'C2'"), std::string::npos);
  EXPECT_EQ(sql.find("E3"), std::string::npos);  // untouched tuple
}

TEST_F(CliTest, SolverOverrideWorks) {
  for (const char* solver : {"greedy", "layer", "modified-layer", "exact"}) {
    const RunResult result = RunCli(dir_ + "/repair.conf --quiet --solver " +
                                    std::string(solver));
    EXPECT_EQ(result.exit_code, 0) << solver;
    EXPECT_NE(result.stdout_text.find("Paper("), std::string::npos);
  }
}

TEST_F(CliTest, ThreadsFlagDoesNotChangeTheRepair) {
  const RunResult serial = RunCli(dir_ + "/repair.conf --quiet --threads 1");
  ASSERT_EQ(serial.exit_code, 0);
  for (const char* threads : {"0", "4"}) {
    const RunResult parallel = RunCli(dir_ + "/repair.conf --quiet --threads " +
                                      std::string(threads));
    EXPECT_EQ(parallel.exit_code, 0) << threads;
    EXPECT_EQ(parallel.stdout_text, serial.stdout_text)
        << "--threads " << threads << " changed the output";
  }
}

TEST_F(CliTest, ThreadsFlagRejectsGarbage) {
  for (const char* bad : {"-1", "two", ""}) {
    const RunResult result =
        RunCli(dir_ + "/repair.conf --threads '" + std::string(bad) + "'");
    EXPECT_NE(result.exit_code, 0) << "--threads " << bad;
  }
}

TEST_F(CliTest, InsertMode) {
  const RunResult result =
      RunCli(dir_ + "/repair.conf --mode insert --quiet");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.stdout_text.find(
                "INSERT INTO Paper (ID, EF, PRC, CF) VALUES ('B1', 0, 40, "
                "0);"),
            std::string::npos)
      << result.stdout_text;
}

TEST_F(CliTest, MissingConfigFails) {
  EXPECT_EQ(RunCli(dir_ + "/nonexistent.conf").exit_code, 1);
}

TEST_F(CliTest, NoArgumentsPrintsUsage) {
  EXPECT_EQ(RunCli("").exit_code, 2);
}

TEST_F(CliTest, BadFlagFails) {
  // Unknown flags and flags missing their value are usage errors (exit 2,
  // FlagSet names the offender); a value the domain parser rejects is a
  // runtime error (exit 1).
  EXPECT_EQ(RunCli(dir_ + "/repair.conf --bogus").exit_code, 2);
  EXPECT_EQ(RunCli(dir_ + "/repair.conf --solver").exit_code, 2);
  EXPECT_EQ(RunCli(dir_ + "/repair.conf --solver quantum").exit_code, 1);
}

TEST_F(CliTest, BatchFileReplaysSessionAndExportsFinalInstance) {
  // Two batches of one row each: Z8 is consistent, Z9 violates ic1 + ic2
  // and must arrive repaired (EF flipped to 0) alongside the base repair.
  WriteFile(dir_ + "/batch.csv",
            "# relation,values...\n"
            "Paper,Z8,0,10,0\n"
            "\n"
            "Paper,Z9,1,30,0\n");
  const RunResult result =
      RunCli(dir_ + "/repair.conf --batch-file " + dir_ +
             "/batch.csv --batch-size 1 --quiet");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.stdout_text.find("Paper('B1', 0, 40, 0)"),
            std::string::npos)
      << result.stdout_text;
  EXPECT_NE(result.stdout_text.find("Paper('Z8', 0, 10, 0)"),
            std::string::npos);
  EXPECT_NE(result.stdout_text.find("Paper('Z9', 0, 30, 0)"),
            std::string::npos);
}

TEST_F(CliTest, BatchFileUpdateModeCoversSessionUpdates) {
  WriteFile(dir_ + "/batch.csv", "Paper,Z9,1,30,0\n");
  const std::string out_path = dir_ + "/patch.sql";
  const RunResult result =
      RunCli(dir_ + "/repair.conf --batch-file " + dir_ +
             "/batch.csv --mode update --output " + out_path + " --quiet");
  EXPECT_EQ(result.exit_code, 0);
  const std::string sql = ReadFile(out_path);
  // Initial repair plus the batch repair, one UPDATE each.
  EXPECT_NE(sql.find("WHERE ID = 'B1'"), std::string::npos) << sql;
  EXPECT_NE(sql.find("UPDATE Paper SET EF = 0 WHERE ID = 'Z9';"),
            std::string::npos)
      << sql;
}

TEST_F(CliTest, BadBatchFileFails) {
  WriteFile(dir_ + "/unknown.csv", "Nope,1,2,3\n");
  EXPECT_EQ(RunCli(dir_ + "/repair.conf --batch-file " + dir_ +
                   "/unknown.csv --quiet")
                .exit_code,
            1);
  WriteFile(dir_ + "/arity.csv", "Paper,Z9,1\n");
  EXPECT_EQ(RunCli(dir_ + "/repair.conf --batch-file " + dir_ +
                   "/arity.csv --quiet")
                .exit_code,
            1);
  EXPECT_EQ(RunCli(dir_ + "/repair.conf --batch-file " + dir_ +
                   "/missing.csv --quiet")
                .exit_code,
            1);
}

TEST_F(CliTest, NonLocalConstraintsFailCleanly) {
  WriteFile(dir_ + "/bad.conf",
            "[relation Paper]\n"
            "attribute ID STRING key\n"
            "attribute EF INT flexible weight=1\n"
            "attribute PRC INT flexible weight=0.05\n"
            "attribute CF INT flexible weight=0.5\n"
            "data = " + dir_ + "/paper.csv\n"
            "[constraints]\n"
            "ic1: :- Paper(x, y, z, w), z < 50\n"
            "ic2: :- Paper(x, y, z, w), z > 90\n");
  EXPECT_EQ(RunCli(dir_ + "/bad.conf --quiet").exit_code, 1);
}

TEST_F(CliTest, CheckSubcommandReportsViolations) {
  const RunResult result = RunCli("check " + dir_ + "/repair.conf --quiet");
  EXPECT_EQ(result.exit_code, 3);  // inconsistent database
  EXPECT_NE(result.stdout_text.find("violation sets: 3"), std::string::npos)
      << result.stdout_text;
  EXPECT_NE(result.stdout_text.find("ic1"), std::string::npos);
  EXPECT_NE(result.stdout_text.find("Deg(D, IC) = 2"), std::string::npos);
}

TEST_F(CliTest, CheckSubcommandCleanDatabaseExitsZero) {
  WriteFile(dir_ + "/clean.csv",
            "ID,EF,PRC,CF\n"
            "E3,1,70,1\n");
  WriteFile(dir_ + "/clean.conf",
            "[relation Paper]\n"
            "attribute ID STRING key\n"
            "attribute EF INT flexible weight=1\n"
            "attribute PRC INT flexible weight=0.05\n"
            "attribute CF INT flexible weight=0.5\n"
            "data = " + dir_ + "/clean.csv\n"
            "[constraints]\n"
            "ic1: :- Paper(x, y, z, w), y > 0, z < 50\n");
  const RunResult result = RunCli("check " + dir_ + "/clean.conf --quiet");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.stdout_text.find("violation sets: 0"), std::string::npos);
}

TEST_F(CliTest, CheckSubcommandRejectsUnknownFlag) {
  const RunResult result = RunCli("check " + dir_ + "/repair.conf --bogus");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_TRUE(result.stdout_text.empty()) << result.stdout_text;
}

// The client fails on its arguments before it opens a connection, so these
// need no server.
TEST_F(CliTest, ClientWithoutPortIsAUsageError) {
  EXPECT_EQ(RunCli("client PING").exit_code, 2);
  EXPECT_EQ(RunCli("client --host 127.0.0.1 PING").exit_code, 2);
  EXPECT_EQ(RunCli("client PING --port").exit_code, 2);
}

TEST_F(CliTest, ClientRejectsOutOfRangePort) {
  const RunResult result = RunCli("client --port 70000 PING");
  EXPECT_NE(result.exit_code, 0);
  EXPECT_TRUE(result.stdout_text.empty()) << result.stdout_text;
}

TEST_F(CliTest, ExplainSubcommandShowsViewsAndLocality) {
  const RunResult result = RunCli("explain " + dir_ + "/repair.conf");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.stdout_text.find("locality: local"), std::string::npos)
      << result.stdout_text;
  EXPECT_NE(result.stdout_text.find(
                "SELECT t0.ID FROM Paper t0 WHERE t0.EF > 0 AND t0.PRC < 50"),
            std::string::npos);
  EXPECT_NE(result.stdout_text.find("Paper.PRC < 50"), std::string::npos);
}

TEST_F(CliTest, ExplicitRepairSubcommand) {
  const RunResult result = RunCli("repair " + dir_ + "/repair.conf --quiet");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.stdout_text.find("Paper('B1', 0, 40, 0)"),
            std::string::npos);
}

TEST_F(CliTest, ReportFlagPrintsSummary) {
  // The report goes to stderr; capture by redirecting in the shell command.
  const std::string command = std::string(DBREPAIR_CLI_PATH) + " " + dir_ +
                              "/repair.conf --quiet --report 2>&1 "
                              ">/dev/null";
  FILE* pipe = popen(command.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string text;
  char buffer[4096];
  size_t n;
  while ((n = fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    text.append(buffer, n);
  }
  pclose(pipe);
  EXPECT_NE(text.find("repair summary"), std::string::npos) << text;
  EXPECT_NE(text.find("updates per attribute"), std::string::npos);
}

TEST_F(CliTest, MetricsOutWritesParseableSnapshot) {
  const std::string path = dir_ + "/metrics.json";
  const RunResult result =
      RunCli(dir_ + "/repair.conf --quiet --metrics-out " + path);
  EXPECT_EQ(result.exit_code, 0);

  auto snapshot = obs::Json::Parse(ReadFile(path));
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();

  ASSERT_NE(snapshot->Find("solver"), nullptr);
  EXPECT_EQ(snapshot->Find("solver")->AsString(), "modified-greedy");

  // Per-phase wall times: the top-level phases sum to at most the root.
  const obs::Json* phases = snapshot->Find("phases");
  ASSERT_NE(phases, nullptr);
  ASSERT_NE(phases->Find("repair"), nullptr);
  double phase_sum = 0.0;
  for (const char* phase : {"repair/bind", "repair/locality", "repair/build",
                            "repair/solve", "repair/apply", "repair/verify"}) {
    const obs::Json* entry = phases->Find(phase);
    ASSERT_NE(entry, nullptr) << phase;
    phase_sum += entry->AsDouble();
  }
  EXPECT_LE(phase_sum, phases->Find("repair")->AsDouble() + 1e-6);

  const obs::Json* metrics = snapshot->Find("metrics");
  ASSERT_NE(metrics, nullptr);
  const obs::Json* counters = metrics->Find("counters");
  ASSERT_NE(counters, nullptr);
  // Per-constraint violation-set counts (2 for ic1, 1 for ic2).
  ASSERT_NE(counters->Find("violations.constraint.ic1"), nullptr);
  EXPECT_EQ(counters->Find("violations.constraint.ic1")->AsInt(), 2);
  EXPECT_EQ(counters->Find("violations.constraint.ic2")->AsInt(), 1);
  // Solver counters for the configured solver.
  ASSERT_NE(counters->Find("solver.modified-greedy.runs"), nullptr);
  EXPECT_GE(counters->Find("solver.modified-greedy.runs")->AsInt(), 1);
  // Deg(D, IC) gauge.
  const obs::Json* gauges = metrics->Find("gauges");
  ASSERT_NE(gauges, nullptr);
  ASSERT_NE(gauges->Find("repair.max_degree"), nullptr);
  EXPECT_DOUBLE_EQ(gauges->Find("repair.max_degree")->AsDouble(), 2.0);

  // The nested span tree rides along.
  const obs::Json* trace = snapshot->Find("trace");
  ASSERT_NE(trace, nullptr);
  ASSERT_EQ(trace->AsArray().size(), 1u);
  EXPECT_EQ(trace->AsArray()[0].Find("name")->AsString(), "repair");
}

TEST_F(CliTest, SolverFlagFlipsCounterBlock) {
  const std::string path = dir_ + "/metrics_greedy.json";
  const RunResult result = RunCli(dir_ + "/repair.conf --quiet "
                                  "--solver greedy --metrics-out " + path);
  EXPECT_EQ(result.exit_code, 0);
  auto snapshot = obs::Json::Parse(ReadFile(path));
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ(snapshot->Find("solver")->AsString(), "greedy");
  const obs::Json* counters = snapshot->Find("metrics")->Find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->Find("solver.greedy.runs"), nullptr);
  EXPECT_GE(counters->Find("solver.greedy.runs")->AsInt(), 1);
  EXPECT_EQ(counters->Find("solver.modified-greedy.runs"), nullptr);
}

TEST_F(CliTest, TraceOutWritesChromeTraceWithWorkerLanes) {
  // A workload big enough that the violation scans (build and verify) fan
  // real shards out over the 4-thread pools: thousands of rows, ~half
  // inconsistent. The scan is the only parallel phase, so six constraints
  // give it twelve fan-outs: which workers take a fan-out's helper tasks is
  // up to the scheduler, and with few fan-outs on a loaded host a worker
  // that wakes late can miss them all.
  std::string csv = "ID,EF,PRC,CF\n";
  for (int i = 0; i < 6000; ++i) {
    csv += "P" + std::to_string(i) + "," + std::to_string(i % 2) + "," +
           std::to_string((i * 37) % 100) + "," + std::to_string(i % 2) +
           "\n";
  }
  WriteFile(dir_ + "/big.csv", csv);
  WriteFile(dir_ + "/big.conf",
            "[relation Paper]\n"
            "attribute ID STRING key\n"
            "attribute EF INT flexible weight=1\n"
            "attribute PRC INT flexible weight=0.05\n"
            "attribute CF INT flexible weight=0.5\n"
            "data = " + dir_ + "/big.csv\n"
            "[constraints]\n"
            "ic1: :- Paper(x, y, z, w), y > 0, z < 50\n"
            "ic2: :- Paper(x, y, z, w), y > 0, w < 1\n"
            "ic3: :- Paper(x, y, z, w), y > 0, z < 30\n"
            "ic4: :- Paper(x, y, z, w), y > 0, z < 70, w < 1\n"
            "ic5: :- Paper(x, y, z, w), y > 0, z < 20\n"
            "ic6: :- Paper(x, y, z, w), y > 0, z < 90, w < 1\n"
            "[repair]\n"
            "solver = modified-greedy\n"
            "mode = update\n");
  const std::string trace_path = dir_ + "/trace.json";
  const std::string metrics_path = dir_ + "/metrics.json";
  const RunResult result = RunCli(
      dir_ + "/big.conf --quiet --threads 4 --output /dev/null "
      "--trace-out " + trace_path + " --metrics-out " + metrics_path);
  ASSERT_EQ(result.exit_code, 0);

  auto trace = obs::Json::Parse(ReadFile(trace_path));
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_EQ(trace->Find("displayTimeUnit")->AsString(), "ms");
  const obs::Json* events = trace->Find("traceEvents");
  ASSERT_NE(events, nullptr);

  // Map tid -> lane label via the thread_name metadata, then require at
  // least 4 distinct worker lanes that carry complete ("X") work spans.
  std::map<int64_t, std::string> lane_names;
  std::map<int64_t, int> x_events;
  bool saw_shard_span = false;
  for (const obs::Json& event : events->AsArray()) {
    const std::string& ph = event.Find("ph")->AsString();
    if (ph == "M" && event.Find("name")->AsString() == "thread_name") {
      lane_names[event.Find("tid")->AsInt()] =
          event.Find("args")->Find("name")->AsString();
    }
    if (ph == "X") {
      ++x_events[event.Find("tid")->AsInt()];
      const std::string& name = event.Find("name")->AsString();
      if (name == "scan.shard") saw_shard_span = true;
    }
  }
  int worker_lanes_with_spans = 0;
  for (const auto& [tid, label] : lane_names) {
    if (label.rfind("worker-", 0) == 0 && x_events[tid] > 0) {
      ++worker_lanes_with_spans;
    }
  }
  EXPECT_GE(worker_lanes_with_spans, 4) << ReadFile(trace_path).substr(0, 500);
  EXPECT_TRUE(saw_shard_span);

  // The run snapshot merged the same lanes: a workers section exists and
  // attributes worker time to build phases without exceeding
  // threads * phase wall time.
  auto snapshot = obs::Json::Parse(ReadFile(metrics_path));
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  const obs::Json* workers = snapshot->Find("workers");
  ASSERT_NE(workers, nullptr);
  EXPECT_GE(workers->Find("lanes")->AsArray().size(), 5u);  // main + 4
  const obs::Json* phases = snapshot->Find("phases");
  const obs::Json* merged = workers->Find("phases");
  ASSERT_NE(merged, nullptr);
  for (const auto& [phase, work] : merged->AsObject()) {
    const obs::Json* wall = phases->Find(phase);
    ASSERT_NE(wall, nullptr) << phase;
    EXPECT_LE(work.Find("worker_busy_seconds")->AsDouble(),
              4.0 * wall->AsDouble() + 1e-6)
        << phase;
  }
}

TEST_F(CliTest, ReportIncludesHistogramPercentiles) {
  const RunResult result =
      RunCliStderr(dir_ + "/repair.conf --quiet --report --output /dev/null");
  EXPECT_EQ(result.exit_code, 0);
  const std::string& text = result.stdout_text;  // captured stderr
  EXPECT_NE(text.find("histograms (count / mean / p50 / p95 / p99)"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("build.fix_set_size"), std::string::npos) << text;
}

TEST_F(CliTest, TraceFlagPrintsSpanTreeToStderr) {
  const RunResult result =
      RunCliStderr(dir_ + "/repair.conf --quiet --trace");
  EXPECT_EQ(result.exit_code, 0);
  const std::string& text = result.stdout_text;  // captured stderr
  EXPECT_NE(text.find("repair"), std::string::npos) << text;
  EXPECT_NE(text.find("build"), std::string::npos) << text;
  EXPECT_NE(text.find("solve"), std::string::npos) << text;
  EXPECT_NE(text.find("ms"), std::string::npos) << text;
}

TEST_F(CliTest, QuietSilencesIncidentalStderr) {
  const RunResult result = RunCliStderr(dir_ + "/repair.conf --quiet");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_EQ(result.stdout_text, "") << result.stdout_text;
}

TEST_F(CliTest, DefaultVerbosityLogsLoadsAndSummary) {
  const RunResult result = RunCliStderr(dir_ + "/repair.conf");
  EXPECT_EQ(result.exit_code, 0);
  const std::string& text = result.stdout_text;  // captured stderr
  EXPECT_NE(text.find("loaded 3 tuples into Paper"), std::string::npos)
      << text;
  EXPECT_NE(text.find("solver=modified-greedy"), std::string::npos) << text;
}

TEST_F(CliTest, MeasureFlagPrintsInconsistency) {
  const RunResult result =
      RunCliStderr(dir_ + "/repair.conf --quiet --measure --output /dev/null");
  EXPECT_EQ(result.exit_code, 0);
  const std::string& text = result.stdout_text;  // captured stderr
  EXPECT_NE(text.find("inconsistency"), std::string::npos) << text;
  EXPECT_NE(text.find("tuples"), std::string::npos) << text;
}

TEST_F(CliTest, GenSubcommandRepairsScenario) {
  // --quiet silences the logger; --report and --measure still write their
  // blocks to stderr. The adversary must hit its degree target exactly.
  const RunResult result = RunCliStderr(
      "gen adversary --rows 60 --degree 5 --seed 3 --quiet --report "
      "--measure");
  EXPECT_EQ(result.exit_code, 0);
  const std::string& text = result.stdout_text;  // captured stderr
  EXPECT_NE(text.find("repair summary"), std::string::npos) << text;
  EXPECT_NE(text.find("degree Deg(D, IC): 5"), std::string::npos) << text;
  EXPECT_NE(text.find("inconsistency"), std::string::npos) << text;
}

TEST_F(CliTest, GenSubcommandEveryScenarioRuns) {
  for (const char* scenario : {"zipf-hotspot", "sensor-drift", "adversary",
                               "client-buy", "census"}) {
    const RunResult result = RunCli(
        std::string("gen ") + scenario + " --rows 50 --seed 2 --quiet");
    EXPECT_EQ(result.exit_code, 0) << scenario;
  }
}

TEST_F(CliTest, GenSubcommandWritesExportAndMetrics) {
  const std::string dump_path = dir_ + "/zipf_dump.txt";
  const std::string metrics_path = dir_ + "/zipf_metrics.json";
  const RunResult result = RunCli(
      "gen zipf-hotspot --rows 50 --seed 4 --skew 1.5 --quiet --output " +
      dump_path + " --metrics-out " + metrics_path);
  EXPECT_EQ(result.exit_code, 0);
  const std::string dump = ReadFile(dump_path);
  EXPECT_NE(dump.find("Hub("), std::string::npos) << dump.substr(0, 200);
  EXPECT_NE(dump.find("Spoke("), std::string::npos);

  auto snapshot = obs::Json::Parse(ReadFile(metrics_path));
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  ASSERT_NE(snapshot->Find("scenario"), nullptr);
  EXPECT_EQ(snapshot->Find("scenario")->AsString(), "zipf-hotspot");
  const obs::Json* gauges = snapshot->Find("metrics")->Find("gauges");
  ASSERT_NE(gauges, nullptr);
  ASSERT_NE(gauges->Find("repair.inconsistency"), nullptr);
}

TEST_F(CliTest, GenTraceFlagPrintsSpanTreeToStderr) {
  const RunResult result =
      RunCliStderr("gen client-buy --rows 200 --seed 2 --quiet --trace");
  EXPECT_EQ(result.exit_code, 0);
  const std::string& text = result.stdout_text;  // captured stderr
  EXPECT_EQ(text.rfind("repair ", 0), 0u) << text;  // the tree's root
  for (const char* phase : {"build", "violations", "solve", "verify"}) {
    EXPECT_NE(text.find(phase), std::string::npos) << phase << "\n" << text;
  }
  EXPECT_EQ(text.find("repair summary"), std::string::npos) << text;
}

TEST_F(CliTest, GenTraceOutWritesChromeTrace) {
  const std::string trace_path = dir_ + "/gen_trace.json";
  const RunResult result =
      RunCli("gen client-buy --rows 200 --seed 2 --quiet --threads 2 "
             "--trace-out " + trace_path);
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_EQ(result.stdout_text, "");  // no --output: no export
  auto trace = obs::Json::Parse(ReadFile(trace_path));
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_EQ(trace->Find("displayTimeUnit")->AsString(), "ms");
  std::map<std::string, int> main_spans;
  for (const obs::Json& event : trace->Find("traceEvents")->AsArray()) {
    if (event.Find("ph")->AsString() == "X" && event.Find("tid")->AsInt() == 0) {
      ++main_spans[event.Find("name")->AsString()];
    }
  }
  for (const char* span : {"repair", "build", "snapshot", "violations",
                           "solve", "apply", "verify"}) {
    EXPECT_EQ(main_spans[span], 1) << span;
  }
}

TEST_F(CliTest, GenReportPrintsSummaryThenHistograms) {
  const RunResult result =
      RunCliStderr("gen client-buy --rows 200 --seed 2 --quiet --report");
  EXPECT_EQ(result.exit_code, 0);
  const std::string& text = result.stdout_text;  // captured stderr
  const size_t summary = text.find("repair summary");
  const size_t histograms =
      text.find("histograms (count / mean / p50 / p95 / p99)");
  ASSERT_NE(summary, std::string::npos) << text;
  ASSERT_NE(histograms, std::string::npos) << text;
  EXPECT_LT(summary, histograms);
  EXPECT_NE(text.find("build.fix_set_size"), std::string::npos) << text;
  EXPECT_EQ(text.find("(distance "), std::string::npos) << text;  // --measure
}

TEST_F(CliTest, GenMeasurePrintsInconsistency) {
  const RunResult result =
      RunCliStderr("gen client-buy --rows 200 --seed 2 --quiet --measure");
  EXPECT_EQ(result.exit_code, 0);
  const std::string& text = result.stdout_text;  // captured stderr
  EXPECT_EQ(text.rfind("inconsistency ", 0), 0u) << text;
  EXPECT_NE(text.find("(distance "), std::string::npos) << text;
  EXPECT_NE(text.find(" tuples, "), std::string::npos) << text;
  EXPECT_EQ(text.find("repair summary"), std::string::npos) << text;
}

TEST_F(CliTest, GenStderrBlocksKeepTheirOrder) {
  // Report and histograms, then the measure line, then the span tree.
  const RunResult result = RunCliStderr(
      "gen client-buy --rows 200 --seed 2 --quiet --trace --measure "
      "--report");
  EXPECT_EQ(result.exit_code, 0);
  const std::string& text = result.stdout_text;  // captured stderr
  const size_t summary = text.find("repair summary");
  const size_t histograms = text.find("histograms (count");
  const size_t measure = text.find("\ninconsistency ");
  const size_t tree = text.find("\nrepair ");
  ASSERT_NE(tree, std::string::npos) << text;
  EXPECT_LT(summary, histograms) << text;
  EXPECT_LT(histograms, measure) << text;
  EXPECT_LT(measure, tree) << text;
}

TEST_F(CliTest, GenSubcommandErrors) {
  // Unknown scenario is a runtime error; unknown flag is a usage error; a
  // missing scenario prints usage.
  EXPECT_EQ(RunCli("gen warehouse --quiet").exit_code, 1);
  EXPECT_EQ(RunCli("gen adversary --bogus").exit_code, 2);
  EXPECT_EQ(RunCli("gen").exit_code, 2);
  EXPECT_EQ(RunCli("gen zipf-hotspot --skew nope --quiet").exit_code, 1);
}

TEST_F(CliTest, QuerySubcommand) {
  const RunResult result = RunCli(
      "query " + dir_ + "/repair.conf \"SELECT ID, PRC FROM Paper WHERE "
      "PRC < 50 ORDER BY PRC\"");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.stdout_text.find("ID\tPRC"), std::string::npos)
      << result.stdout_text;
  EXPECT_NE(result.stdout_text.find("'C2'\t20"), std::string::npos);
  EXPECT_NE(result.stdout_text.find("'B1'\t40"), std::string::npos);
}

TEST_F(CliTest, QuerySubcommandAggregates) {
  const RunResult result = RunCli(
      "query " + dir_ + "/repair.conf \"SELECT COUNT(*), SUM(PRC) FROM "
      "Paper\"");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.stdout_text.find("3\t130"), std::string::npos)
      << result.stdout_text;
}

TEST_F(CliTest, QuerySubcommandErrors) {
  EXPECT_EQ(RunCli("query " + dir_ + "/repair.conf").exit_code, 2);
  EXPECT_EQ(RunCli("query " + dir_ + "/repair.conf \"SELECT broken\"")
                .exit_code,
            1);
}

}  // namespace
}  // namespace dbrepair
