#ifndef DBREPAIR_OBS_CHROME_TRACE_H_
#define DBREPAIR_OBS_CHROME_TRACE_H_

#include "obs/context.h"
#include "obs/json.h"

namespace dbrepair::obs {

/// Renders one run as a Chrome trace-event document (the JSON object
/// format: {"traceEvents": [...], "displayTimeUnit": "ms"}), loadable in
/// Perfetto (ui.perfetto.dev) or chrome://tracing.
///
/// Layout:
///  - every event lane gets its own tid: the first non-worker lane (the
///    pipeline thread, "main") is tid 0, the others follow in registration
///    order ("worker-1", "worker-2", ... for pool workers). A lane shows
///    its spans and its work regions (pool tasks, shards) as complete
///    ("X") events, so phase spans and the shards a thread ran nest
///    visually, plus "i" instants (CSR freeze, epoch-append) and "C"
///    counter samples recorded on that thread.
///  - the metrics registry's counters and gauges are emitted as one final
///    counter sample each at export time, so every registry metric appears
///    as a counter track.
///
/// Timestamps are microseconds on the context's shared TraceClock epoch;
/// spans still open at export report elapsed-so-far and carry
/// {"open": true} args.
Json ChromeTraceJson(const ObsContext& context);

}  // namespace dbrepair::obs

#endif  // DBREPAIR_OBS_CHROME_TRACE_H_
