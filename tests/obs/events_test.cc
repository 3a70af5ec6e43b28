// Per-thread event lanes: lane registration and labels, growth, the
// one-entry lane cache, enabled gating, begin/end pairing (including open
// intervals), the snapshot "workers" section, and the Chrome trace-event
// exporter.

#include "obs/events.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "obs/chrome_trace.h"
#include "obs/context.h"
#include "obs/json.h"
#include "obs/trace.h"

namespace dbrepair::obs {
namespace {

TEST(EventLaneTest, AppendAndReadBack) {
  EventLane lane(/*id=*/0, "main", /*worker=*/false);
  lane.Append(EventKind::kBegin, "work", 1.0, 0.0);
  lane.Append(EventKind::kEnd, "work", 2.0, 0.0);
  lane.Append(EventKind::kCounter, "distance", 2.5, 42.0);
  ASSERT_EQ(lane.size(), 3u);
  const std::vector<TraceEvent> events = lane.Events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, EventKind::kBegin);
  EXPECT_EQ(events[0].name, "work");
  EXPECT_DOUBLE_EQ(events[0].ts_seconds, 1.0);
  EXPECT_EQ(events[2].kind, EventKind::kCounter);
  EXPECT_DOUBLE_EQ(events[2].value, 42.0);
}

TEST(EventLaneTest, GrowsPastOneChunkInOrder) {
  EventLane lane(/*id=*/0, "main", /*worker=*/false);
  const size_t n = 3 * 128 + 17;
  for (size_t i = 0; i < n; ++i) {
    lane.Append(EventKind::kInstant, "tick", static_cast<double>(i), 0.0);
  }
  ASSERT_EQ(lane.size(), n);
  const std::vector<TraceEvent> events = lane.Events();
  ASSERT_EQ(events.size(), n);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(events[i].ts_seconds, static_cast<double>(i)) << i;
  }
}

TEST(EventLaneTest, ConcurrentReaderSeesPrefix) {
  // A reader snapshotting mid-write must always see a clean prefix: size()
  // events, each fully written.
  EventLane lane(/*id=*/0, "main", /*worker=*/false);
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      const std::vector<TraceEvent> events = lane.Events();
      for (size_t i = 0; i < events.size(); ++i) {
        ASSERT_DOUBLE_EQ(events[i].ts_seconds, static_cast<double>(i));
        ASSERT_EQ(events[i].name, "tick");
      }
    }
  });
  for (size_t i = 0; i < 1024; ++i) {
    lane.Append(EventKind::kInstant, "tick", static_cast<double>(i), 0.0);
  }
  done.store(true, std::memory_order_release);
  reader.join();
}

TEST(EventCollectorTest, DisabledRecordsNothing) {
  EventCollector collector;
  ASSERT_FALSE(collector.enabled());  // off by default
  collector.RecordBegin("work");
  collector.RecordEnd("work");
  collector.RecordInstant("tick");
  collector.RecordCounter("distance", 1.0);
  EXPECT_EQ(collector.num_lanes(), 0u);
}

TEST(EventCollectorTest, MainThreadLaneIsLabelledMain) {
  EventCollector collector;
  collector.set_enabled(true);
  collector.RecordInstant("tick");
  ASSERT_EQ(collector.num_lanes(), 1u);
  const EventLane* lane = collector.lanes()[0];
  EXPECT_EQ(lane->label(), "main");
  EXPECT_FALSE(lane->worker());
  EXPECT_EQ(lane->size(), 1u);
}

TEST(EventCollectorTest, OneLanePerThread) {
  EventCollector collector;
  collector.set_enabled(true);
  collector.RecordInstant("main-tick");
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&collector] {
      for (int i = 0; i < 100; ++i) collector.RecordInstant("tick");
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_EQ(collector.num_lanes(), 1u + kThreads);
  size_t total = 0;
  std::set<uint32_t> ids;
  for (const EventLane* lane : collector.lanes()) {
    ids.insert(lane->id());
    total += lane->size();
  }
  EXPECT_EQ(ids.size(), 1u + kThreads);  // distinct lane ids
  EXPECT_EQ(total, 1u + kThreads * 100u);
}

TEST(EventCollectorTest, ClearRetiresLanesAndReRegisters) {
  EventCollector collector;
  collector.set_enabled(true);
  collector.RecordInstant("before");
  ASSERT_EQ(collector.num_lanes(), 1u);
  collector.Clear();
  EXPECT_EQ(collector.num_lanes(), 0u);
  // The calling thread's cached lane must not resurrect: a fresh record
  // registers a fresh lane holding only the new event.
  collector.RecordInstant("after");
  ASSERT_EQ(collector.num_lanes(), 1u);
  const std::vector<TraceEvent> events = collector.lanes()[0]->Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "after");
}

TEST(EventCollectorTest, AlternatingCollectorsKeepOneLaneEach) {
  // The lane cache holds one entry: a thread switching collectors finds its
  // lane again by thread id instead of registering another one.
  EventCollector first;
  EventCollector second;
  first.set_enabled(true);
  second.set_enabled(true);
  constexpr int kRounds = 1000;
  for (int i = 0; i < kRounds; ++i) {
    first.RecordCounter("first", i);
    second.RecordCounter("second", i);
  }
  for (const EventCollector* collector : {&first, &second}) {
    ASSERT_EQ(collector->num_lanes(), 1u);
    const std::vector<TraceEvent> events = collector->lanes()[0]->Events();
    ASSERT_EQ(events.size(), static_cast<size_t>(kRounds));
    for (int i = 0; i < kRounds; ++i) {
      EXPECT_EQ(events[i].name, collector == &first ? "first" : "second");
      EXPECT_DOUBLE_EQ(events[i].value, i);
    }
  }
}

TEST(SnapshotLanesTest, PairsNestedAndOpenIntervals) {
  TraceClock clock;
  EventCollector collector(&clock);
  collector.set_enabled(true);
  collector.RecordBegin("outer");
  collector.RecordBegin("inner");
  collector.RecordEnd("inner");
  collector.RecordBegin("dangling");  // never ended

  const double now = clock.SecondsSinceEpoch();
  const std::vector<LaneSnapshot> lanes = SnapshotLanes(collector, now);
  ASSERT_EQ(lanes.size(), 1u);
  const LaneSnapshot& lane = lanes[0];
  ASSERT_EQ(lane.intervals.size(), 3u);

  // Intervals surface in begin order: outer, inner, dangling.
  EXPECT_EQ(lane.intervals[0].name, "outer");
  EXPECT_EQ(lane.intervals[0].depth, 0u);
  const LaneInterval& inner = lane.intervals[1];
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(inner.depth, 1u);
  EXPECT_FALSE(inner.open);
  // "dangling" began while only "outer" was still open.
  EXPECT_EQ(lane.intervals[2].name, "dangling");
  EXPECT_EQ(lane.intervals[2].depth, 1u);

  size_t open_count = 0;
  double top_level_busy = 0.0;
  for (const LaneInterval& interval : lane.intervals) {
    EXPECT_LE(interval.begin_seconds, interval.end_seconds);
    EXPECT_LE(interval.end_seconds, now);
    if (interval.open) {
      ++open_count;
      EXPECT_DOUBLE_EQ(interval.end_seconds, now);
    }
    if (interval.depth == 0) {
      top_level_busy += interval.end_seconds - interval.begin_seconds;
    }
  }
  EXPECT_EQ(open_count, 2u);  // "outer" and "dangling"
  EXPECT_DOUBLE_EQ(lane.busy_seconds, top_level_busy);
}

TEST(ScopedWorkEventTest, RecordsBeginEndPair) {
  ObsContext context;
  ScopedObs scoped(&context);
  context.events.set_enabled(true);
  { const ScopedWorkEvent event("unit.work"); }
  ASSERT_EQ(context.events.num_lanes(), 1u);
  const std::vector<TraceEvent> events = context.events.lanes()[0]->Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, EventKind::kBegin);
  EXPECT_EQ(events[1].kind, EventKind::kEnd);
  EXPECT_EQ(events[0].name, "unit.work");
  EXPECT_LE(events[0].ts_seconds, events[1].ts_seconds);
}

TEST(PoolIntegrationTest, WorkersGetLabelledLanes) {
  ObsContext context;
  ScopedObs scoped(&context);
  context.events.set_enabled(true);
  constexpr size_t kWorkers = 4;
  std::atomic<int> done{0};
  {
    // The pool destructor drains the queue and joins every worker.
    ThreadPool pool(kWorkers);
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&done] {
        const ScopedWorkEvent event("task.body");
        done.fetch_add(1, std::memory_order_relaxed);
      });
    }
  }
  ASSERT_EQ(done.load(), 64);
  // Every worker that ran a task owns a "worker-*" lane with pool.task
  // intervals (recorded by the context-propagation hooks); the task bodies
  // land on the same lanes.
  size_t worker_lanes = 0;
  size_t task_intervals = 0;
  for (const LaneSnapshot& lane :
       SnapshotLanes(context.events, context.clock.SecondsSinceEpoch())) {
    if (!lane.worker) continue;
    ++worker_lanes;
    EXPECT_EQ(lane.label.rfind("worker-", 0), 0u) << lane.label;
    for (const LaneInterval& interval : lane.intervals) {
      EXPECT_FALSE(interval.open) << interval.name;
      if (interval.name == "task.body") ++task_intervals;
    }
  }
  EXPECT_GE(worker_lanes, 1u);
  EXPECT_LE(worker_lanes, kWorkers);
  EXPECT_EQ(task_intervals, 64u);
}

TEST(PoolIntegrationTest, PoolMayOutliveEachFanOutsContext) {
  // One pool, a fresh context per fan-out: each helper's pool.task end is
  // written into the context before ParallelFor returns, never after it is
  // gone (a use-after-scope under ASan otherwise).
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    ObsContext context;
    const ScopedObs scoped(&context);
    context.events.set_enabled(true);
    ParallelFor(&pool, 16, [](size_t) {
      const ScopedWorkEvent event("fan.out");
    });
    for (const LaneSnapshot& lane :
         SnapshotLanes(context.events, context.clock.SecondsSinceEpoch())) {
      for (const LaneInterval& interval : lane.intervals) {
        EXPECT_FALSE(interval.open) << interval.name << " round " << round;
      }
    }
  }
}

TEST(RunSnapshotTest, WorkersSectionListsLanes) {
  ObsContext context;
  ScopedObs scoped(&context);
  context.events.set_enabled(true);
  Span phase(&context.events, "phase");
  {
    const ScopedWorkEvent event("phase.shard");
  }
  phase.Finish();

  const Json snapshot = BuildRunSnapshot(context);
  EXPECT_EQ(snapshot.Find("schema_version")->AsInt(), 2);
  const Json* workers = snapshot.Find("workers");
  ASSERT_NE(workers, nullptr);
  const Json* lanes = workers->Find("lanes");
  ASSERT_NE(lanes, nullptr);
  ASSERT_EQ(lanes->AsArray().size(), 1u);
  const Json& lane = lanes->AsArray()[0];
  EXPECT_EQ(lane.Find("label")->AsString(), "main");
  EXPECT_EQ(lane.Find("spans")->AsInt(), 1);
  EXPECT_GE(lane.Find("busy_seconds")->AsDouble(), 0.0);
  // The shard interval falls inside the "phase" span, so the phase map
  // attributes it there.
  const Json* phases = workers->Find("phases");
  ASSERT_NE(phases, nullptr);
  const Json* entry = phases->Find("phase");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->Find("worker_spans")->AsInt(), 1);
}

TEST(RunSnapshotTest, NoWorkersSectionWhenNoEvents) {
  ObsContext context;
  ScopedObs scoped(&context);
  Span(&context.events, "phase").Finish();
  const Json snapshot = BuildRunSnapshot(context);
  EXPECT_EQ(snapshot.Find("workers"), nullptr);
}

TEST(ChromeTraceTest, ExportsLanesSpansAndCounters) {
  ObsContext context;
  ScopedObs scoped(&context);
  context.events.set_enabled(true);
  Span root(&context.events, "repair");
  {
    const ScopedWorkEvent event("scan.shard");
  }
  context.events.RecordInstant("csr.freeze", 0.001);
  context.events.RecordCounter("session.distance", 12.5);
  context.metrics.GetCounter("engine.rows_scanned")->Add(100);
  root.Finish();

  const Json trace = ChromeTraceJson(context);
  EXPECT_EQ(trace.Find("displayTimeUnit")->AsString(), "ms");
  const Json* events = trace.Find("traceEvents");
  ASSERT_NE(events, nullptr);

  bool saw_span = false, saw_shard = false, saw_instant = false;
  bool saw_counter = false, saw_process_name = false, saw_metric = false;
  for (const Json& event : events->AsArray()) {
    const std::string& ph = event.Find("ph")->AsString();
    const std::string& name = event.Find("name")->AsString();
    // Every event sits in the one dbrepair process.
    EXPECT_EQ(event.Find("pid")->AsInt(), 0);
    if (ph == "X" && name == "repair") {
      saw_span = true;
      EXPECT_EQ(event.Find("tid")->AsInt(), 0);  // span lane
      EXPECT_GE(event.Find("dur")->AsDouble(), 0.0);
    }
    if (ph == "X" && name == "scan.shard") saw_shard = true;
    if (ph == "i" && name == "csr.freeze") {
      saw_instant = true;
      EXPECT_EQ(event.Find("s")->AsString(), "t");
    }
    if (ph == "C" && name == "session.distance") {
      saw_counter = true;
      EXPECT_DOUBLE_EQ(event.Find("args")->Find("value")->AsDouble(), 12.5);
    }
    if (ph == "C" && name == "engine.rows_scanned") saw_metric = true;
    if (ph == "M" && name == "process_name") {
      saw_process_name = true;
      EXPECT_EQ(event.Find("args")->Find("name")->AsString(), "dbrepair");
    }
  }
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_shard);
  EXPECT_TRUE(saw_instant);
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_metric);
  EXPECT_TRUE(saw_process_name);

  // Valid JSON document end to end.
  auto reparsed = Json::Parse(trace.Dump());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
}

}  // namespace
}  // namespace dbrepair::obs
