#ifndef DBREPAIR_OBS_EVENTS_H_
#define DBREPAIR_OBS_EVENTS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/clock.h"

namespace dbrepair::obs {

/// What one trace event records. Span begin/end pairs bracket a pipeline
/// phase (obs::Span, always recorded); work begin/end pairs bracket a
/// region of work on one thread (a shard scan, a pool task); instants mark
/// a point in time (a CSR freeze); counters sample a time-series value
/// (cumulative repair distance after each session batch). Work events,
/// instants and counters are recorded only while the collector is enabled.
enum class EventKind : uint8_t {
  kBegin,
  kEnd,
  kInstant,
  kCounter,
  kSpanBegin,
  kSpanEnd
};

/// One event, stamped against the collector's shared TraceClock epoch.
struct TraceEvent {
  double ts_seconds = 0.0;
  double value = 0.0;  ///< counter sample / instant payload
  EventKind kind = EventKind::kInstant;
  std::string name;
};

/// One thread's event buffer. The owning thread appends; snapshot readers
/// copy. A mutex guards the buffer: it is uncontended except while a
/// snapshot copies the lane, and it lets the lane trim its front (below)
/// while a reader could otherwise be walking it.
///
/// Span events always nest on a lane: ending a span first ends every span
/// opened inside it and still open, at the same time stamp, so a reader
/// pairs them with a plain stack. A root span is one opened while no span
/// is open on the lane. The history is bounded: opening a root while the
/// lane holds kMaxRoots closed roots drops the oldest closed root and every
/// event recorded before its end.
class EventLane {
 public:
  static constexpr size_t kMaxRoots = 64;

  EventLane(uint32_t id, std::string label, bool worker,
            std::thread::id owner = {})
      : id_(id), label_(std::move(label)), worker_(worker), owner_(owner) {}

  EventLane(const EventLane&) = delete;
  EventLane& operator=(const EventLane&) = delete;

  uint32_t id() const { return id_; }
  const std::string& label() const { return label_; }
  /// True when the owning thread was a ThreadPool worker at registration.
  bool worker() const { return worker_; }
  /// The thread this lane records for.
  std::thread::id owner() const { return owner_; }

  /// Events currently held (after any trimming).
  size_t size() const;

  /// Appends one work event, instant or counter.
  void Append(EventKind kind, std::string_view name, double ts_seconds,
              double value);

  /// Records a span begin and returns its sequence number, the handle
  /// EndSpan takes.
  uint64_t BeginSpan(std::string_view name, double ts_seconds);
  /// Records the end of the span `begin` (and of any span still open inside
  /// it). A no-op when an enclosing span's end already closed it.
  void EndSpan(uint64_t begin, double ts_seconds);

  /// Copies the held events, in record order.
  std::vector<TraceEvent> Events() const;

 private:
  void PushLocked(EventKind kind, std::string_view name, double ts_seconds,
                  double value);

  const uint32_t id_;
  const std::string label_;
  const bool worker_;
  const std::thread::id owner_;
  mutable std::mutex mu_;
  std::deque<TraceEvent> events_;
  uint64_t dropped_ = 0;             ///< events trimmed off the front
  std::vector<uint64_t> open_spans_;  ///< sequence numbers, innermost last
  std::deque<uint64_t> root_ends_;   ///< end sequence numbers of closed roots
};

/// A begin/end pair resolved into one interval (what the exporters and the
/// phase-attribution pass consume). `depth` is the nesting level among
/// intervals of the same kind on the lane — spans among spans, work among
/// work (0 = top-level); `open` marks a begin whose end had not been
/// recorded when the snapshot was taken — its end_seconds is "now".
struct LaneInterval {
  std::string name;
  double begin_seconds = 0.0;
  double end_seconds = 0.0;
  size_t depth = 0;
  bool open = false;
};

/// Read-only copy of one lane at snapshot time.
struct LaneSnapshot {
  uint32_t id = 0;
  std::string label;
  bool worker = false;
  std::vector<TraceEvent> events;       ///< work events, instants, counters
  std::vector<LaneInterval> intervals;  ///< paired work begin/end regions
  std::vector<LaneInterval> spans;      ///< span intervals, in begin order
  double busy_seconds = 0.0;  ///< sum of depth-0 work interval durations
};

/// Owner of all per-thread event lanes of one run. A thread's first event
/// registers its lane under the mutex; after that a one-entry thread-local
/// cache finds it, and a thread that alternates between collectors looks
/// its lane up again by thread id (under the same mutex) on each switch.
/// Work events are off by default; while disabled every Record call is a
/// single relaxed load and branch. Spans record regardless. Lanes live
/// until the collector is destroyed; Clear() retires them.
class EventCollector {
 public:
  explicit EventCollector(TraceClock* clock = nullptr);

  EventCollector(const EventCollector&) = delete;
  EventCollector& operator=(const EventCollector&) = delete;

  /// Work-event recording is off by default; the CLI's --trace-out flag (or
  /// DBREPAIR_TRACE_EVENTS=1 for the benchmarks) turns it on.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  const TraceClock& clock() const { return *clock_; }

  /// Opens a region on the calling thread's lane (no-ops when disabled).
  void RecordBegin(std::string_view name);
  /// Closes the innermost open region of the same name on this lane.
  void RecordEnd(std::string_view name);
  /// A point event, optionally carrying a payload value.
  void RecordInstant(std::string_view name, double value = 0.0);
  /// Samples a counter track (one time-series per distinct name).
  void RecordCounter(std::string_view name, double value);

  /// The calling thread's lane, registered on first use.
  EventLane* LaneForThisThread();

  /// Stable lane pointers, in registration order. Lanes may still be
  /// written concurrently; read them via EventLane::Events()/size().
  std::vector<const EventLane*> lanes() const;

  size_t num_lanes() const;

  /// Retires all lanes: the next event of every thread lands in a fresh
  /// lane. A Span still open keeps writing to its retired lane.
  void Clear();

 private:
  void Record(EventKind kind, std::string_view name, double value);

  TraceClock own_clock_;
  TraceClock* clock_;
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  /// Cache key for the thread-local lane lookup; unique ever.
  std::atomic<uint64_t> serial_;
  std::vector<std::unique_ptr<EventLane>> lanes_;
  std::vector<std::unique_ptr<EventLane>> retired_;  ///< lanes from before Clear()
  size_t worker_lanes_ = 0;
  size_t main_lanes_ = 0;
};

/// Copies every lane as of `now_seconds` (the collector's clock), pairing
/// its begin/end events into intervals (open ones end at `now_seconds`) and
/// computing busy time. Lanes are returned in registration order.
std::vector<LaneSnapshot> SnapshotLanes(const EventCollector& events,
                                        double now_seconds);

/// RAII work begin/end pair on the calling thread's current ObsContext
/// event collector. Safe (and free) when event recording is disabled.
class ScopedWorkEvent {
 public:
  explicit ScopedWorkEvent(std::string_view name);
  ~ScopedWorkEvent();

  ScopedWorkEvent(const ScopedWorkEvent&) = delete;
  ScopedWorkEvent& operator=(const ScopedWorkEvent&) = delete;

 private:
  EventCollector* events_;
  std::string name_;
  bool active_ = false;
};

}  // namespace dbrepair::obs

#endif  // DBREPAIR_OBS_EVENTS_H_
