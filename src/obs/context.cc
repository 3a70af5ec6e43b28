#include "obs/context.h"

#include <map>

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

void FlattenPhases(const SpanNode& node, const std::string& prefix,
                   double now_seconds, Json* phases) {
  const std::string path =
      prefix.empty() ? node.name : prefix + "/" + node.name;
  phases->Set(path, Json(EffectiveDurationSeconds(node, now_seconds)));
  for (const auto& child : node.children) {
    FlattenPhases(*child, path, now_seconds, phases);
  }
}

// Walks the span tree for the deepest span whose [start, end] window
// contains [begin, end]; returns its '/'-joined path (empty when no span
// contains the interval — e.g. events recorded outside any traced run).
void DeepestContainingSpan(const SpanNode& node, const std::string& prefix,
                           double begin, double end, double now_seconds,
                           std::string* best) {
  const double span_end =
      node.start_seconds + EffectiveDurationSeconds(node, now_seconds);
  // Clock reads on different threads interleave at ~ns scale; a hair of
  // slack keeps boundary shards attributed to the phase that ran them.
  constexpr double kSlack = 1e-9;
  if (begin + kSlack < node.start_seconds || end > span_end + kSlack) return;
  const std::string path =
      prefix.empty() ? node.name : prefix + "/" + node.name;
  *best = path;
  for (const auto& child : node.children) {
    DeepestContainingSpan(*child, path, begin, end, now_seconds, best);
  }
}

Json BuildWorkersSection(const ObsContext& context, double now_seconds) {
  const std::vector<LaneSnapshot> lanes =
      SnapshotLanes(context.events, now_seconds);
  const auto roots = context.tracer.roots();

  Json lanes_json = Json::MakeArray();
  struct PhaseWork {
    size_t spans = 0;
    double busy_seconds = 0.0;
  };
  std::map<std::string, PhaseWork> per_phase;
  for (const LaneSnapshot& lane : lanes) {
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
      std::string phase;
      for (const auto& root : roots) {
        DeepestContainingSpan(*root, "", interval.begin_seconds,
                              interval.end_seconds, now_seconds, &phase);
        if (!phase.empty()) break;
      }
      if (phase.empty()) continue;
      PhaseWork& work = per_phase[phase];
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
  Json phases = Json::MakeObject();
  Json trace = Json::MakeArray();
  for (const auto& root : context.tracer.roots()) {
    FlattenPhases(*root, "", now, &phases);
    trace.Append(SpanTreeToJson(*root, now));
  }
  Json out = Json::MakeObject();
  out.Set("schema_version", Json(2));
  out.Set("phases", std::move(phases));
  out.Set("metrics", context.metrics.Snapshot());
  out.Set("trace", std::move(trace));
  if (context.events.num_lanes() > 0) {
    out.Set("workers", BuildWorkersSection(context, now));
  }
  return out;
}

}  // namespace dbrepair::obs
