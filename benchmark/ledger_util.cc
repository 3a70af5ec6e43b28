#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <sstream>

#include "io/snapshot.h"
#include "ledger.h"
#include "sql/views.h"

namespace dbrepair::ledger {

void RunResult::AddCheck(std::string name, bool ok, std::string detail) {
  if (!ok) ++failed;
  checks.push_back(Check{std::move(name), ok, std::move(detail)});
}

size_t SpanLog::Begin(std::string_view name) {
  const int64_t parent =
      open_.empty() ? kNoParent : static_cast<int64_t>(open_.back());
  spans_.push_back(
      Span{std::string(name), parent, clock_.ElapsedSeconds(), 0.0});
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanLog::End(size_t id) {
  spans_[id].end = clock_.ElapsedSeconds();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

double SpanLog::SelfSeconds(size_t id) const {
  double self = spans_[id].end - spans_[id].start;
  for (size_t c = id + 1; c < spans_.size(); ++c) {
    if (spans_[c].parent == static_cast<int64_t>(id)) {
      self -= spans_[c].end - spans_[c].start;
    }
  }
  return self;
}

std::map<std::string, double> SpanLog::SelfByName(size_t root) const {
  // Spans are appended in begin order, so every descendant of `root` has a
  // larger id and its parent chain reaches `root`.
  std::vector<bool> inside(spans_.size(), false);
  inside[root] = true;
  std::map<std::string, double> self;
  for (size_t id = root + 1; id < spans_.size(); ++id) {
    const int64_t parent = spans_[id].parent;
    if (parent == kNoParent || !inside[static_cast<size_t>(parent)]) continue;
    inside[id] = true;
    self[spans_[id].name] += SelfSeconds(id);
  }
  return self;
}

obs::Json SpanLog::ToJson() const {
  obs::Json list = obs::Json::MakeArray();
  for (size_t id = 0; id < spans_.size(); ++id) {
    obs::Json span = obs::Json::MakeObject();
    span.Set("id", obs::Json(static_cast<uint64_t>(id)));
    span.Set("name", obs::Json(spans_[id].name));
    span.Set("parent", obs::Json(spans_[id].parent));
    span.Set("start_s", obs::Json(spans_[id].start));
    span.Set("end_s", obs::Json(spans_[id].end));
    list.Append(std::move(span));
  }
  obs::Json out = obs::Json::MakeObject();
  out.Set("spans", std::move(list));
  return out;
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

void RecordPeakRss(RunResult* result) {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  // ru_maxrss is in KiB on Linux.
  result->Metric("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0,
                 "MB");
}

std::string DatabaseDigest(const Database& db) {
  std::ostringstream bytes;
  if (!WriteSnapshot(db, bytes).ok()) return "unwritable";
  uint64_t h = 1469598103934665603ULL;
  for (const char c : bytes.str()) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ULL;
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(h));
  return hex;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

bool TimedSetup(const RunOptions& options, const std::function<Status()>& setup,
                const std::function<void()>& teardown, RunResult* result) {
  const int reps = options.trace == 0 && !options.smoke ? 5 : 1;
  std::vector<double> seconds;
  for (int i = 0; i < reps; ++i) {
    if (i > 0) {
      teardown();
      malloc_trim(0);
    }
    Timer watch;
    const Status status = setup();
    seconds.push_back(watch.ElapsedSeconds());
    if (!status.ok()) {
      result->AddCheck("setup.ok", false, status.ToString());
      return false;
    }
  }
  if (options.trace == 0) result->Metric("setup_s", Median(seconds), "s");
  return true;
}

void CheckConsistentViaSql(const Database& db,
                           const std::vector<DenialConstraint>& ics,
                           const std::string& what, RunResult* result) {
  auto bound = BindAll(db.schema(), ics);
  if (!bound.ok()) {
    result->AddCheck(what + ".sql_consistent", false,
                     bound.status().ToString());
    return;
  }
  auto violations = FindViolationsViaSql(db, *bound);
  if (!violations.ok()) {
    result->AddCheck(what + ".sql_consistent", false,
                     violations.status().ToString());
    return;
  }
  result->AddCheck(what + ".sql_consistent", violations->empty(),
                   std::to_string(violations->size()) + " violation sets");
}

bool NearlyEqual(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max({1.0, std::fabs(a), std::fabs(b)});
}

}  // namespace dbrepair::ledger
