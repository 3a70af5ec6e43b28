#ifndef DBREPAIR_BENCHMARK_LEDGER_H_
#define DBREPAIR_BENCHMARK_LEDGER_H_

// Shared pieces of the dbrepair_ledger driver: run options, the result
// record each workload fills, the in-memory span log of the traced pass,
// and the clock/rusage/digest helpers. The driver only calls the library's
// public functions; every timing here is taken from outside those calls.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/timer.h"
#include "constraints/ast.h"
#include "obs/json.h"
#include "storage/database.h"

namespace dbrepair::ledger {

/// Command-line options shared by every workload.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  /// Measurement budget of the timed loop, in seconds.
  double seconds = 0.0;
  /// 0: untraced pass (end-to-end metrics). 1: traced pass (per-layer split).
  int trace = 0;
  /// Tiny sizes for the smoke test; same code paths.
  bool smoke = false;
  /// Scratch directory for files a workload writes (CSV inputs).
  std::string workdir = ".";
  /// Where the traced pass writes its spans at exit ("" = nowhere).
  std::string spans_out;
  /// Threads the one-shot pool path uses: min(2, nproc).
  size_t threads = 1;
};

/// Everything one workload run reports. Metrics are (value, unit) pairs
/// keyed by name; checks are named pass/fail records; attempted/failed
/// count the operations the run issued.
struct RunResult {
  std::map<std::string, std::pair<double, std::string>> metrics;
  struct Check {
    std::string name;
    bool ok = false;
    std::string detail;
  };
  std::vector<Check> checks;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Digest of the final repaired instance(s); equal across passes of one
  /// seed.
  std::string digest;
  /// Sizes and knobs worth recording next to the metrics.
  obs::Json params = obs::Json::MakeObject();

  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void AddCheck(std::string name, bool ok, std::string detail = "");
};

/// One span per timed public call: name, parent, start and end on the
/// steady clock (seconds since the log was created). Spans live in memory
/// and are written out once, at exit.
class SpanLog {
 public:
  static constexpr int64_t kNoParent = -1;

  struct Span {
    std::string name;
    int64_t parent = kNoParent;
    double start = 0.0;
    double end = 0.0;
  };

  /// Opens a span as a child of the innermost open span.
  size_t Begin(std::string_view name);
  /// Closes span `id`, the innermost open one.
  void End(size_t id);

  /// Duration of `id` minus the durations of its direct children.
  double SelfSeconds(size_t id) const;

  /// Sums the self time of every descendant of `root` by span name
  /// (the root itself excluded).
  std::map<std::string, double> SelfByName(size_t root) const;

  /// {"spans": [{"id", "name", "parent", "start_s", "end_s"}, ...]}.
  obs::Json ToJson() const;

 private:
  Timer clock_;  // span times are seconds since the log was created
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

/// RAII span over one call: opened on construction, closed at scope exit.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string_view name)
      : log_(log), id_(log->Begin(name)) {}
  ~ScopedSpan() { log_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  size_t id_;
};

/// User + system CPU time of the whole process, in seconds.
double ProcessCpuSeconds();

/// Records peak_rss_mb: the process's peak resident set size (ru_maxrss)
/// so far. Workloads call it right after the measured loop, so the
/// correctness checks that follow do not count.
void RecordPeakRss(RunResult* result);

/// 64-bit FNV-1a digest of the database's lossless binary snapshot
/// (io/snapshot.h), as hex: equal iff every cell of every relation is.
std::string DatabaseDigest(const Database& db);

/// Nearest-rank percentile (q in [0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// Runs `setup` five times in an untraced full-size run (once otherwise),
/// calling `teardown` and handing freed memory back to the OS between
/// repetitions so earlier set-ups do not inflate peak_rss_mb. Records the
/// median as setup_s; false (with a failed check) when a set-up failed.
bool TimedSetup(const RunOptions& options, const std::function<Status()>& setup,
                const std::function<void()>& teardown, RunResult* result);

/// Zero violation sets under the SQL-view enumerator (src/sql), which is
/// separate code from the ViolationEngine the pipeline itself uses.
void CheckConsistentViaSql(const Database& db,
                           const std::vector<DenialConstraint>& ics,
                           const std::string& what, RunResult* result);

/// |a - b| within a relative 1e-9 (the two sides sum in different orders).
bool NearlyEqual(double a, double b);

// Workloads. Each fills `result` and returns normally even when a check
// fails; a thrown/returned library error is recorded as a failed op.
void RunOneshotClientBuy(const RunOptions& options, SpanLog* spans,
                         RunResult* result);
void RunCliCsvHotspot(const RunOptions& options, SpanLog* spans,
                      RunResult* result);
void RunSessionStream(const RunOptions& options, RunResult* result);
void RunServerMixed(const RunOptions& options, RunResult* result);

}  // namespace dbrepair::ledger

#endif  // DBREPAIR_BENCHMARK_LEDGER_H_
