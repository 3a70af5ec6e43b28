#include "obs/events.h"

#include <algorithm>
#include <utility>

#include "common/thread_pool.h"
#include "obs/context.h"

namespace dbrepair::obs {

namespace {

/// Monotonic id source for collector registration serials. Serials are
/// never reused, so the thread-local cache entry of a destroyed (or
/// Clear()ed) collector can never match again.
std::atomic<uint64_t> g_next_collector_serial{1};

/// The lane this thread last recorded into, keyed by its collector's
/// serial. One entry: a thread that switches collectors (a server worker
/// serving another tenant) misses once and finds its lane again by thread
/// id, so the cache never grows with the collectors a thread has seen.
struct LaneCacheEntry {
  uint64_t serial = 0;
  EventLane* lane = nullptr;
};
thread_local LaneCacheEntry t_lane_cache;

}  // namespace

size_t EventLane::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

void EventLane::PushLocked(EventKind kind, std::string_view name,
                           double ts_seconds, double value) {
  TraceEvent& event = events_.emplace_back();
  event.ts_seconds = ts_seconds;
  event.value = value;
  event.kind = kind;
  event.name.assign(name.data(), name.size());
}

void EventLane::Append(EventKind kind, std::string_view name,
                       double ts_seconds, double value) {
  const std::lock_guard<std::mutex> lock(mu_);
  PushLocked(kind, name, ts_seconds, value);
}

uint64_t EventLane::BeginSpan(std::string_view name, double ts_seconds) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (open_spans_.empty() && root_ends_.size() >= kMaxRoots) {
    // A root opens: drop the oldest closed root and everything before its
    // end.
    const uint64_t keep_from = root_ends_.front() + 1;
    root_ends_.pop_front();
    const auto kept = static_cast<ptrdiff_t>(keep_from - dropped_);
    events_.erase(events_.begin(), events_.begin() + kept);
    dropped_ = keep_from;
  }
  open_spans_.push_back(dropped_ + events_.size());
  PushLocked(EventKind::kSpanBegin, name, ts_seconds, 0.0);
  return open_spans_.back();
}

void EventLane::EndSpan(uint64_t begin, double ts_seconds) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = std::find(open_spans_.begin(), open_spans_.end(), begin);
  if (it == open_spans_.end()) return;
  // End the spans left open inside this one first, so the lane's span
  // events stay strictly nested. (A deque keeps references to its elements
  // valid across emplace_back, so the begin's name can be read in place.)
  const size_t depth = static_cast<size_t>(it - open_spans_.begin());
  while (open_spans_.size() > depth) {
    PushLocked(EventKind::kSpanEnd, events_[open_spans_.back() - dropped_].name,
               ts_seconds, 0.0);
    open_spans_.pop_back();
  }
  if (open_spans_.empty()) root_ends_.push_back(dropped_ + events_.size() - 1);
}

std::vector<TraceEvent> EventLane::Events() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return {events_.begin(), events_.end()};
}

EventCollector::EventCollector(TraceClock* clock)
    : clock_(clock != nullptr ? clock : &own_clock_),
      serial_(g_next_collector_serial.fetch_add(1, std::memory_order_relaxed)) {
}

EventLane* EventCollector::LaneForThisThread() {
  if (t_lane_cache.serial == serial_.load(std::memory_order_relaxed)) {
    return t_lane_cache.lane;
  }
  const std::lock_guard<std::mutex> lock(mu_);
  const std::thread::id self = std::this_thread::get_id();
  EventLane* lane = nullptr;
  for (const auto& candidate : lanes_) {
    if (candidate->owner() == self) {
      lane = candidate.get();
      break;
    }
  }
  if (lane == nullptr) {
    const int worker_index = ThreadPool::CurrentWorkerIndex();
    std::string label;
    bool worker = false;
    if (worker_index >= 0) {
      worker = true;
      label = "worker-" + std::to_string(++worker_lanes_);
    } else {
      ++main_lanes_;
      label =
          main_lanes_ == 1 ? "main" : "thread-" + std::to_string(main_lanes_);
    }
    lanes_.push_back(std::make_unique<EventLane>(
        static_cast<uint32_t>(lanes_.size() + retired_.size()),
        std::move(label), worker, self));
    lane = lanes_.back().get();
  }
  t_lane_cache = {serial_.load(std::memory_order_relaxed), lane};
  return lane;
}

void EventCollector::Record(EventKind kind, std::string_view name,
                            double value) {
  if (!enabled()) return;
  LaneForThisThread()->Append(kind, name, clock_->SecondsSinceEpoch(), value);
}

void EventCollector::RecordBegin(std::string_view name) {
  Record(EventKind::kBegin, name, 0.0);
}

void EventCollector::RecordEnd(std::string_view name) {
  Record(EventKind::kEnd, name, 0.0);
}

void EventCollector::RecordInstant(std::string_view name, double value) {
  Record(EventKind::kInstant, name, value);
}

void EventCollector::RecordCounter(std::string_view name, double value) {
  Record(EventKind::kCounter, name, value);
}

std::vector<const EventLane*> EventCollector::lanes() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<const EventLane*> out;
  out.reserve(lanes_.size());
  for (const auto& lane : lanes_) out.push_back(lane.get());
  return out;
}

size_t EventCollector::num_lanes() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return lanes_.size();
}

void EventCollector::Clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  // Keep the lanes alive (an open Span still points at its lane) but take a
  // fresh serial so every thread re-registers, landing in a fresh lane on
  // its next record.
  for (auto& lane : lanes_) retired_.push_back(std::move(lane));
  lanes_.clear();
  worker_lanes_ = 0;
  main_lanes_ = 0;
  serial_.store(g_next_collector_serial.fetch_add(1, std::memory_order_relaxed),
                std::memory_order_relaxed);
}

std::vector<LaneSnapshot> SnapshotLanes(const EventCollector& events,
                                        double now_seconds) {
  std::vector<LaneSnapshot> out;
  for (const EventLane* lane : events.lanes()) {
    LaneSnapshot snap;
    snap.id = lane->id();
    snap.label = lane->label();
    snap.worker = lane->worker();

    std::vector<size_t> open_spans;  // indices into snap.spans, innermost last
    std::vector<size_t> open_work;   // indices into snap.intervals
    for (TraceEvent& event : lane->Events()) {
      switch (event.kind) {
        case EventKind::kSpanBegin:
          open_spans.push_back(snap.spans.size());
          snap.spans.push_back({std::move(event.name), event.ts_seconds, 0.0,
                                open_spans.size() - 1, /*open=*/true});
          continue;
        case EventKind::kSpanEnd:
          // Span events nest strictly on a lane (EventLane::EndSpan).
          if (!open_spans.empty()) {
            LaneInterval& span = snap.spans[open_spans.back()];
            span.end_seconds = event.ts_seconds;
            span.open = false;
            open_spans.pop_back();
          }
          continue;
        case EventKind::kBegin:
          open_work.push_back(snap.intervals.size());
          snap.intervals.push_back(
              {event.name, event.ts_seconds, 0.0, open_work.size() - 1,
               /*open=*/true});
          break;
        case EventKind::kEnd:
          // Close the innermost open region with this name (normally the
          // top of the stack; tolerate interleaved ends from error paths).
          for (size_t i = open_work.size(); i-- > 0;) {
            LaneInterval& interval = snap.intervals[open_work[i]];
            if (interval.name == event.name) {
              interval.end_seconds = event.ts_seconds;
              interval.open = false;
              open_work.erase(open_work.begin() + static_cast<ptrdiff_t>(i));
              break;
            }
          }
          break;
        case EventKind::kInstant:
        case EventKind::kCounter:
          break;
      }
      snap.events.push_back(std::move(event));
    }
    // A begin stamped after `now_seconds` was read still ends no earlier
    // than it began.
    for (const size_t i : open_spans) {
      snap.spans[i].end_seconds =
          std::max(now_seconds, snap.spans[i].begin_seconds);
    }
    for (const size_t i : open_work) {
      snap.intervals[i].end_seconds =
          std::max(now_seconds, snap.intervals[i].begin_seconds);
    }
    for (const LaneInterval& interval : snap.intervals) {
      if (interval.depth == 0) {
        snap.busy_seconds += interval.end_seconds - interval.begin_seconds;
      }
    }
    out.push_back(std::move(snap));
  }
  return out;
}

ScopedWorkEvent::ScopedWorkEvent(std::string_view name)
    : events_(&CurrentObs().events) {
  if (events_->enabled()) {
    active_ = true;
    name_.assign(name.data(), name.size());
    events_->RecordBegin(name_);
  }
}

ScopedWorkEvent::~ScopedWorkEvent() {
  if (active_) events_->RecordEnd(name_);
}

}  // namespace dbrepair::obs
