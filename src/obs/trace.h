#ifndef DBREPAIR_OBS_TRACE_H_
#define DBREPAIR_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/clock.h"
#include "obs/events.h"

namespace dbrepair::obs {

/// RAII phase span: a span-begin event on the calling thread's event lane
/// at construction and the matching span-end at destruction (or earlier via
/// Finish()). Spans record whether or not work events are enabled, and
/// nest by lane: a span opened while another is open on the same thread is
/// its child. `repair -> bind/locality/build{violations,fixes,setcover}/
/// solve/apply/verify` is one tree per run. Times are seconds on the
/// collector's clock, so phase attribution never double-counts.
class Span {
 public:
  /// Opens on the calling thread's current ObsContext event collector.
  explicit Span(std::string_view name);
  Span(EventCollector* events, std::string_view name);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Closes the span now and returns end - begin from the two stamps the
  /// lane records (the single clock source for RepairStats phase times);
  /// further calls return the same duration. Finishing a span also ends
  /// the spans still open inside it; their own later Finish() records
  /// nothing more.
  double Finish();

 private:
  const TraceClock* clock_;
  EventLane* lane_;
  double begin_seconds_;
  uint64_t begin_;
  bool finished_ = false;
  double duration_seconds_ = 0.0;
};

/// The span trees of a snapshot: the newest EventLane::kMaxRoots root spans
/// across `lanes`, ordered by start time, each followed by its descendants
/// in begin order. That is a preorder walk of the forest: a span's parent
/// is the nearest earlier span one level shallower.
std::vector<LaneInterval> SpanForest(const std::vector<LaneSnapshot>& lanes);

/// Indented human-readable rendering of the collector's span trees, one
/// line per span with wall time in ms and the share of its parent. Spans
/// still open are marked "(open)" and show elapsed-so-far.
std::string FormatSpanTrees(const EventCollector& events);

}  // namespace dbrepair::obs

#endif  // DBREPAIR_OBS_TRACE_H_
