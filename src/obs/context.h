#ifndef DBREPAIR_OBS_CONTEXT_H_
#define DBREPAIR_OBS_CONTEXT_H_

#include "obs/clock.h"
#include "obs/events.h"
#include "obs/json.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dbrepair::obs {

/// One run's observability state: the metrics registry, the per-thread
/// event collector (which also records the phase spans), and the logger.
/// The pipeline reads it through CurrentObs(), so library code needs no
/// plumbed-through parameters and uninstrumented callers pay only a
/// thread-local load. ThreadPool workers inherit the submitting thread's
/// context (the pool's context hooks install it around every task), so
/// worker-side events and metrics land in the same run. Every lane stamps
/// against `clock`, so spans and work events of different threads compare
/// directly at merge time.
struct ObsContext {
  TraceClock clock;
  MetricsRegistry metrics;
  EventCollector events{&clock};
  Logger logger;
};

/// The process-wide fallback context (always valid; what benchmarks and
/// plain library calls record into).
ObsContext& DefaultObs();

/// The calling thread's installed context, or DefaultObs().
ObsContext& CurrentObs();

/// Installs `context` as the calling thread's current ObsContext for the
/// scope's lifetime (re-entrant; restores the previous one on destruction).
class ScopedObs {
 public:
  explicit ScopedObs(ObsContext* context);
  ~ScopedObs();

  ScopedObs(const ScopedObs&) = delete;
  ScopedObs& operator=(const ScopedObs&) = delete;

 private:
  ObsContext* previous_;
};

/// The single-document JSON snapshot of a run:
///   {"schema_version": 2,
///    "phases": {"repair": s, "repair/build": s, ...},   // from span paths
///    "metrics": {"counters": ..., "gauges": ..., "histograms": ...},
///    "trace": [<span tree>, ...],
///    "workers": {"lanes": [...], "phases": {...}}}      // when events on
///
/// The span trees are built from the lanes' span intervals: the newest
/// EventLane::kMaxRoots roots across all lanes, by start time. Spans still
/// open at snapshot time are marked "open": true and report elapsed-so-far
/// (both in "phases" and in "trace"), so a mid-run snapshot is
/// distinguishable from instant spans. When any lane holds a work event,
/// "workers" lists one entry per such lane (label, work event and interval
/// counts, busy seconds) plus per-phase worker-time attribution: each
/// completed top-level work interval is charged to the deepest span whose
/// window contains it.
Json BuildRunSnapshot(const ObsContext& context);

}  // namespace dbrepair::obs

#endif  // DBREPAIR_OBS_CONTEXT_H_
