// dbrepair_ledger: runs one workload of the end-to-end repair ledger and
// prints one JSON object (metrics, checks, op counts, digest) on stdout.
// benchmark/run.py builds and drives it; see benchmark/README.md.
//
//   dbrepair_ledger --workload oneshot-clientbuy --seed 1 --seconds 15
//                   --trace 0 [--smoke] [--workdir DIR] [--spans-out FILE]

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "common/flags.h"
#include "ledger.h"

namespace dbrepair::ledger {
namespace {

constexpr const char* kWorkloads =
    "oneshot-clientbuy, cli-csv-hotspot, session-stream, server-mixed";

// Fills `options` from argv; false (after printing usage) on bad input.
bool ParseArgs(int argc, char** argv, RunOptions* options) {
  size_t seed = 1;
  size_t seconds = 0;
  size_t trace = 0;
  FlagSet flags;
  flags.AddString("--workload", &options->workload, kWorkloads);
  flags.AddSize("--seed", &seed, "drives every generator");
  flags.AddSize("--seconds", &seconds, "measurement budget, whole seconds");
  flags.AddSize("--trace", &trace, "0: end-to-end pass, 1: per-layer pass");
  flags.AddBool("--smoke", &options->smoke, "tiny sizes, same code paths");
  flags.AddString("--workdir", &options->workdir, "scratch directory");
  flags.AddString("--spans-out", &options->spans_out,
                  "write the traced pass's spans here at exit");
  const Status parsed = flags.Parse(argc, argv, 1);
  options->seed = seed;
  options->seconds = static_cast<double>(seconds);
  options->trace = static_cast<int>(trace);
  if (parsed.ok() && !options->workload.empty() && seconds > 0 && trace <= 1) {
    return true;
  }
  std::fprintf(stderr, "%s\nusage: dbrepair_ledger\n%s",
               parsed.ok() ? "--workload and --seconds are required; "
                             "--trace is 0 or 1"
                           : parsed.ToString().c_str(),
               flags.Usage().c_str());
  return false;
}

obs::Json ToJson(const RunOptions& options, const RunResult& result) {
  obs::Json metrics = obs::Json::MakeObject();
  for (const auto& [name, value] : result.metrics) {
    obs::Json metric = obs::Json::MakeObject();
    metric.Set("value", obs::Json(value.first));
    metric.Set("unit", obs::Json(value.second));
    metrics.Set(name, std::move(metric));
  }
  obs::Json checks = obs::Json::MakeArray();
  for (const RunResult::Check& check : result.checks) {
    obs::Json entry = obs::Json::MakeObject();
    entry.Set("name", obs::Json(check.name));
    entry.Set("ok", obs::Json(check.ok));
    entry.Set("detail", obs::Json(check.detail));
    checks.Append(std::move(entry));
  }
  obs::Json out = obs::Json::MakeObject();
  out.Set("workload", obs::Json(options.workload));
  out.Set("seed", obs::Json(options.seed));
  out.Set("trace", obs::Json(options.trace));
  out.Set("smoke", obs::Json(options.smoke));
  out.Set("attempted", obs::Json(result.attempted));
  out.Set("failed", obs::Json(result.failed));
  out.Set("digest", obs::Json(result.digest));
  out.Set("params", result.params);
  out.Set("checks", std::move(checks));
  out.Set("metrics", std::move(metrics));
  return out;
}

int Main(int argc, char** argv) {
  RunOptions options;
  if (!ParseArgs(argc, argv, &options)) return 2;
  const unsigned hardware = std::thread::hardware_concurrency();
  options.threads = hardware >= 2 ? 2 : 1;

  RunResult result;
  SpanLog spans;
  const std::string& w = options.workload;
  if (w == "oneshot-clientbuy") {
    RunOneshotClientBuy(options, &spans, &result);
  } else if (w == "cli-csv-hotspot") {
    RunCliCsvHotspot(options, &spans, &result);
  } else if (w == "session-stream") {
    RunSessionStream(options, &result);
  } else if (w == "server-mixed") {
    RunServerMixed(options, &result);
  } else {
    std::fprintf(stderr, "unknown workload '%s'; one of %s\n", w.c_str(),
                 kWorkloads);
    return 2;
  }
  if (!options.spans_out.empty()) {
    std::ofstream out(options.spans_out);
    out << spans.ToJson().Dump() << '\n';
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", options.spans_out.c_str());
      return 1;
    }
  }
  std::cout << ToJson(options, result).Dump() << std::endl;
  return 0;
}

}  // namespace
}  // namespace dbrepair::ledger

int main(int argc, char** argv) { return dbrepair::ledger::Main(argc, argv); }
