#include "obs/context.h"

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/thread_pool.h"

namespace dbrepair::obs {

namespace {

ObsContext*& CurrentObsSlot() {
  thread_local ObsContext* current = nullptr;
  return current;
}

// ---------------------------------------------------------------------------
// ThreadPool context propagation: capture the submitting thread's ObsContext
// at Submit() and install it around the task on the worker, bracketed by a
// "pool.task" event so every worker that executed anything owns a lane in
// the trace. Registered once at load time; common/ knows only the opaque
// hook signatures.

void* CapturePoolContext() { return &CurrentObs(); }

void* InstallPoolContext(void* context) {
  ObsContext*& slot = CurrentObsSlot();
  ObsContext* previous = slot;
  auto* installed = static_cast<ObsContext*>(context);
  slot = installed;
  installed->events.RecordBegin("pool.task");
  return previous;
}

void RestorePoolContext(void* previous) {
  CurrentObs().events.RecordEnd("pool.task");
  CurrentObsSlot() = static_cast<ObsContext*>(previous);
}

[[maybe_unused]] const bool g_pool_hooks_registered = [] {
  SetThreadContextHooks(
      {&CapturePoolContext, &InstallPoolContext, &RestorePoolContext});
  return true;
}();

// The '/'-joined path of every span of a SpanForest, e.g.
// "repair/build/fixes", index-aligned with the forest.
std::vector<std::string> SpanPaths(const std::vector<LaneInterval>& forest) {
  std::vector<std::string> paths;
  paths.reserve(forest.size());
  std::vector<size_t> ancestors;  // forest indices of the enclosing spans
  for (size_t i = 0; i < forest.size(); ++i) {
    ancestors.resize(forest[i].depth);
    paths.push_back(ancestors.empty()
                        ? forest[i].name
                        : paths[ancestors.back()] + "/" + forest[i].name);
    ancestors.push_back(i);
  }
  return paths;
}

// Renders forest[*next] and its descendants as one "trace" tree, recording
// each span's duration under its path in `phases`; advances *next past the
// subtree.
Json SpanTreeJson(const std::vector<LaneInterval>& forest,
                  const std::vector<std::string>& paths, size_t* next,
                  Json* phases) {
  const size_t index = (*next)++;
  const LaneInterval& span = forest[index];
  const double seconds = span.end_seconds - span.begin_seconds;
  phases->Set(paths[index], Json(seconds));
  Json out = Json::MakeObject();
  out.Set("name", Json(span.name));
  out.Set("start_s", Json(span.begin_seconds));
  out.Set("duration_s", Json(seconds));
  if (span.open) out.Set("open", Json(true));
  Json children = Json::MakeArray();
  while (*next < forest.size() && forest[*next].depth > span.depth) {
    children.Append(SpanTreeJson(forest, paths, next, phases));
  }
  if (!children.AsArray().empty()) out.Set("children", std::move(children));
  return out;
}

// The forest index of the deepest span whose window contains `work`: the
// last containing span, in preorder, of the first root that contains it.
// npos when no span does (work recorded outside any traced span).
size_t DeepestContainingSpan(const std::vector<LaneInterval>& forest,
                             const LaneInterval& work) {
  // Clock reads on different threads interleave at ~ns scale; a hair of
  // slack keeps boundary shards attributed to the phase that ran them.
  constexpr double kSlack = 1e-9;
  size_t best = std::string::npos;
  for (size_t i = 0; i < forest.size(); ++i) {
    const LaneInterval& span = forest[i];
    if (span.depth == 0 && best != std::string::npos) break;
    if (work.begin_seconds + kSlack >= span.begin_seconds &&
        work.end_seconds <= span.end_seconds + kSlack) {
      best = i;
    }
  }
  return best;
}

Json BuildWorkersSection(const std::vector<LaneSnapshot>& lanes,
                         const std::vector<LaneInterval>& forest,
                         const std::vector<std::string>& paths) {
  Json lanes_json = Json::MakeArray();
  struct PhaseWork {
    size_t spans = 0;
    double busy_seconds = 0.0;
  };
  std::map<std::string, PhaseWork> per_phase;
  for (const LaneSnapshot& lane : lanes) {
    if (lane.events.empty()) continue;  // a lane holding only spans
    Json entry = Json::MakeObject();
    entry.Set("label", Json(lane.label));
    entry.Set("id", Json(static_cast<uint64_t>(lane.id)));
    entry.Set("worker", Json(lane.worker));
    entry.Set("events", Json(static_cast<uint64_t>(lane.events.size())));
    entry.Set("spans", Json(static_cast<uint64_t>(lane.intervals.size())));
    entry.Set("busy_seconds", Json(lane.busy_seconds));
    lanes_json.Append(std::move(entry));

    for (const LaneInterval& interval : lane.intervals) {
      if (interval.depth != 0) continue;  // children are inside a counted span
      const size_t span = DeepestContainingSpan(forest, interval);
      if (span == std::string::npos) continue;
      PhaseWork& work = per_phase[paths[span]];
      ++work.spans;
      work.busy_seconds += interval.end_seconds - interval.begin_seconds;
    }
  }

  Json phases_json = Json::MakeObject();
  for (const auto& [path, work] : per_phase) {
    Json entry = Json::MakeObject();
    entry.Set("worker_spans", Json(static_cast<uint64_t>(work.spans)));
    entry.Set("worker_busy_seconds", Json(work.busy_seconds));
    phases_json.Set(path, std::move(entry));
  }

  Json out = Json::MakeObject();
  out.Set("lanes", std::move(lanes_json));
  out.Set("phases", std::move(phases_json));
  return out;
}

}  // namespace

ObsContext& DefaultObs() {
  // Leaked singleton: usable during static destruction (atexit snapshots).
  static ObsContext* context = new ObsContext();
  return *context;
}

ObsContext& CurrentObs() {
  ObsContext* current = CurrentObsSlot();
  return current != nullptr ? *current : DefaultObs();
}

ScopedObs::ScopedObs(ObsContext* context) : previous_(CurrentObsSlot()) {
  CurrentObsSlot() = context;
}

ScopedObs::~ScopedObs() { CurrentObsSlot() = previous_; }

Json BuildRunSnapshot(const ObsContext& context) {
  const double now = context.clock.SecondsSinceEpoch();
  const std::vector<LaneSnapshot> lanes = SnapshotLanes(context.events, now);
  const std::vector<LaneInterval> forest = SpanForest(lanes);
  const std::vector<std::string> paths = SpanPaths(forest);
  Json phases = Json::MakeObject();
  Json trace = Json::MakeArray();
  for (size_t next = 0; next < forest.size();) {
    trace.Append(SpanTreeJson(forest, paths, &next, &phases));
  }
  Json out = Json::MakeObject();
  out.Set("schema_version", Json(2));
  out.Set("phases", std::move(phases));
  out.Set("metrics", context.metrics.Snapshot());
  out.Set("trace", std::move(trace));
  if (std::any_of(lanes.begin(), lanes.end(), [](const LaneSnapshot& lane) {
        return !lane.events.empty();
      })) {
    out.Set("workers", BuildWorkersSection(lanes, forest, paths));
  }
  return out;
}

}  // namespace dbrepair::obs
