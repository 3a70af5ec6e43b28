#include "obs/chrome_trace.h"

#include <string>
#include <utility>
#include <vector>

namespace dbrepair::obs {

namespace {

constexpr int64_t kPid = 0;

double ToMicros(double seconds) { return seconds * 1e6; }

Json EventBase(std::string_view name, const char* phase, int64_t tid,
               double ts_seconds) {
  Json event = Json::MakeObject();
  event.Set("name", Json(name));
  event.Set("ph", Json(phase));
  event.Set("pid", Json(kPid));
  event.Set("tid", Json(tid));
  event.Set("ts", Json(ToMicros(ts_seconds)));
  return event;
}

Json MetadataEvent(const char* name, int64_t tid, Json args) {
  Json event = Json::MakeObject();
  event.Set("name", Json(name));
  event.Set("ph", Json("M"));
  event.Set("pid", Json(kPid));
  event.Set("tid", Json(tid));
  event.Set("args", std::move(args));
  return event;
}

void AppendIntervals(const std::vector<LaneInterval>& intervals, int64_t tid,
                     Json* events) {
  for (const LaneInterval& interval : intervals) {
    Json event = EventBase(interval.name, "X", tid, interval.begin_seconds);
    event.Set("dur", Json(ToMicros(interval.end_seconds -
                                   interval.begin_seconds)));
    if (interval.open) {
      Json args = Json::MakeObject();
      args.Set("open", Json(true));
      event.Set("args", std::move(args));
    }
    events->Append(std::move(event));
  }
}

void AppendLaneEvents(const LaneSnapshot& lane, int64_t tid, Json* events) {
  AppendIntervals(lane.spans, tid, events);
  AppendIntervals(lane.intervals, tid, events);
  for (const TraceEvent& raw : lane.events) {
    if (raw.kind == EventKind::kInstant) {
      Json event = EventBase(raw.name, "i", tid, raw.ts_seconds);
      event.Set("s", Json("t"));  // thread-scoped instant
      if (raw.value != 0.0) {
        Json args = Json::MakeObject();
        args.Set("value", Json(raw.value));
        event.Set("args", std::move(args));
      }
      events->Append(std::move(event));
    } else if (raw.kind == EventKind::kCounter) {
      Json event = EventBase(raw.name, "C", tid, raw.ts_seconds);
      Json args = Json::MakeObject();
      args.Set("value", Json(raw.value));
      event.Set("args", std::move(args));
      events->Append(std::move(event));
    }
  }
}

}  // namespace

Json ChromeTraceJson(const ObsContext& context) {
  const double now = context.clock.SecondsSinceEpoch();
  Json events = Json::MakeArray();

  {
    Json args = Json::MakeObject();
    args.Set("name", Json("dbrepair"));
    events.Append(MetadataEvent("process_name", /*tid=*/0, std::move(args)));
  }

  // The pipeline thread's lane ("main") is tid 0, so its phase spans and
  // the shards it ran itself nest.
  const std::vector<LaneSnapshot> lanes = SnapshotLanes(context.events, now);
  std::vector<std::pair<const LaneSnapshot*, int64_t>> lane_tids;
  int64_t next_tid = 1;
  bool main_taken = false;
  for (const LaneSnapshot& lane : lanes) {
    int64_t tid;
    if (!lane.worker && !main_taken) {
      tid = 0;
      main_taken = true;
    } else {
      tid = next_tid++;
    }
    lane_tids.emplace_back(&lane, tid);
  }

  {
    Json args = Json::MakeObject();
    args.Set("name", Json("main"));
    events.Append(MetadataEvent("thread_name", /*tid=*/0, std::move(args)));
  }
  for (const auto& [lane, tid] : lane_tids) {
    if (tid == 0) continue;
    Json args = Json::MakeObject();
    args.Set("name", Json(lane->label));
    events.Append(MetadataEvent("thread_name", tid, std::move(args)));
    Json sort = Json::MakeObject();
    sort.Set("sort_index", Json(tid));
    events.Append(MetadataEvent("thread_sort_index", tid, std::move(sort)));
  }

  for (const auto& [lane, tid] : lane_tids) {
    AppendLaneEvents(*lane, tid, &events);
  }

  // Final registry values as one counter sample each, so every metric has
  // a counter track even if nothing sampled it mid-run.
  const Json metrics = context.metrics.Snapshot();
  for (const char* section : {"counters", "gauges"}) {
    const Json* block = metrics.Find(section);
    if (block == nullptr || !block->is_object()) continue;
    for (const auto& [name, value] : block->AsObject()) {
      Json event = EventBase(name, "C", /*tid=*/0, now);
      Json args = Json::MakeObject();
      args.Set("value", Json(value.AsDouble()));
      event.Set("args", std::move(args));
      events.Append(std::move(event));
    }
  }

  Json out = Json::MakeObject();
  out.Set("traceEvents", std::move(events));
  out.Set("displayTimeUnit", Json("ms"));
  return out;
}

}  // namespace dbrepair::obs
