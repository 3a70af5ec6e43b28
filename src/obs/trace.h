#ifndef DBREPAIR_OBS_TRACE_H_
#define DBREPAIR_OBS_TRACE_H_

#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/clock.h"
#include "obs/json.h"

namespace dbrepair::obs {

/// One completed (or still open) region of the pipeline. Spans nest:
/// `repair -> bind/locality/build{violations,fixes,setcover}/solve/apply/
/// verify`. Times are seconds on one steady clock, relative to the tracer's
/// epoch, so phase attribution never double-counts.
struct SpanNode {
  std::string name;
  double start_seconds = 0.0;
  double duration_seconds = 0.0;
  bool open = true;
  std::vector<std::unique_ptr<SpanNode>> children;
};

/// Records a tree of scoped spans. Open/close follows stack discipline on
/// the instrumented (pipeline) thread; the structure itself is mutex-guarded
/// so concurrent readers (snapshots) are safe. Worker-side work inside a
/// phase is recorded into the EventCollector's per-thread lanes and merged
/// back against this tree at snapshot time.
///
/// The history is bounded: a long-lived tracer (one per server tenant)
/// keeps the kMaxRoots most recent root trees. Opening a root when that
/// many are held evicts the oldest; a root opens only when no span is
/// open, so every root it can evict is closed. Readers and Spans hold
/// shared ownership, so an eviction never frees a tree still in use.
class Tracer {
 public:
  static constexpr size_t kMaxRoots = 64;

  /// Standalone tracer with its own epoch.
  Tracer() : clock_(&own_clock_) {}

  /// Tracer stamping against a shared clock (the ObsContext wires its
  /// tracer and event collector to one TraceClock so both merge cleanly).
  explicit Tracer(TraceClock* clock)
      : clock_(clock != nullptr ? clock : &own_clock_) {}

  /// The clock this tracer stamps spans against.
  const TraceClock& clock() const { return *clock_; }

  /// Opens a span as a child of the innermost open span (or a new root).
  /// The pointer shares ownership of the span's root tree.
  std::shared_ptr<SpanNode> OpenSpan(std::string_view name);

  /// Closes `node` (and any deeper spans left open) and returns its
  /// duration in seconds. A span already closed keeps its duration.
  double CloseSpan(SpanNode* node);

  /// The held root spans (completed, then at most one open), in open
  /// order.
  std::vector<std::shared_ptr<const SpanNode>> roots() const;

  /// Looks a span up by '/'-separated path, e.g. "repair/build/setcover".
  /// Searches every held root; returns nullptr when absent. The pointer
  /// shares ownership of the span's root tree.
  std::shared_ptr<const SpanNode> FindSpan(std::string_view path) const;

  /// Drops all recorded spans and resets the epoch.
  void Clear();

 private:
  double Now() const { return clock_->SecondsSinceEpoch(); }

  mutable std::mutex mu_;
  TraceClock own_clock_;
  TraceClock* clock_;
  std::vector<std::shared_ptr<SpanNode>> roots_;
  std::vector<SpanNode*> stack_;
};

/// RAII scope: opens a span on construction, closes it on destruction (or
/// earlier via Finish(), which returns the measured duration — the single
/// clock source for RepairStats phase times).
class Span {
 public:
  /// Opens on the calling thread's current ObsContext tracer.
  explicit Span(std::string_view name);
  Span(Tracer* tracer, std::string_view name);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Closes the span now; further calls return the same duration.
  double Finish();

 private:
  Tracer* tracer_;
  std::shared_ptr<SpanNode> node_;
  bool finished_ = false;
  double duration_seconds_ = 0.0;
};

/// Indented human-readable rendering of one span tree, one line per span
/// with wall time in ms and the share of its parent. Spans still open are
/// marked "(open)" and, when `now_seconds` (on the tracer's clock) is
/// non-negative, show elapsed-so-far instead of 0.
std::string FormatSpanTree(const SpanNode& root, double now_seconds = -1.0);

/// All root span trees of `tracer`, concatenated (open spans show
/// elapsed-so-far against the tracer's clock).
std::string FormatSpanTrees(const Tracer& tracer);

/// {"name": ..., "start_s": ..., "duration_s": ..., "children": [...]}.
/// A span still open when the snapshot is taken additionally carries
/// "open": true, and its duration_s reports elapsed time up to
/// `now_seconds` (when non-negative) instead of 0.
Json SpanTreeToJson(const SpanNode& root, double now_seconds = -1.0);

/// The duration to report for `node`: its measured duration when closed,
/// elapsed time up to `now_seconds` while still open (0 when now_seconds
/// is negative, i.e. unknown).
double EffectiveDurationSeconds(const SpanNode& node, double now_seconds);

}  // namespace dbrepair::obs

#endif  // DBREPAIR_OBS_TRACE_H_
