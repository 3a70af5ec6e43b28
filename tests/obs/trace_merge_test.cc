// Randomized multi-thread trace merge: ThreadPool workers record shard
// events into their per-thread lanes while the pipeline thread records its
// phase spans into its own, and the snapshot-time merge must account for
// every event exactly once, inside its enclosing phase, with per-phase busy
// times that agree with a serial run of the same work. Also: threads that
// share one context keep separate span stacks. Runs under TSan via
// tools/check_concurrency.sh (labels: obs, concurrency).

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <chrono>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "obs/context.h"
#include "obs/events.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "obs_testing.h"

namespace dbrepair::obs {
namespace {

// A few microseconds of real work so shard intervals have width.
void SpinABit(uint32_t iterations) {
  volatile uint64_t sink = 0;
  for (uint32_t i = 0; i < iterations; ++i) sink = sink + i * i;
}

TEST(TraceMergeTest, RandomizedRoundsAccountForEveryShardOnce) {
  std::mt19937 rng(20260808);
  for (int trial = 0; trial < 3; ++trial) {
    ObsContext context;
    ScopedObs scoped(&context);
    context.events.set_enabled(true);

    const size_t num_threads = 2 + rng() % 7;  // 2..8
    const size_t num_rounds = 2 + rng() % 4;   // 2..5
    std::vector<size_t> shards_per_round(num_rounds);
    std::vector<std::string> round_names(num_rounds);
    std::atomic<size_t> executed{0};
    {
      ThreadPool pool(num_threads);
      for (size_t round = 0; round < num_rounds; ++round) {
        shards_per_round[round] = 1 + rng() % 97;
        round_names[round] = "round-" + std::to_string(round);
        Span span(round_names[round]);
        ParallelFor(&pool, shards_per_round[round], [&](size_t) {
          const ScopedWorkEvent shard("merge.shard");
          SpinABit(500);
          executed.fetch_add(1, std::memory_order_relaxed);
        });
        span.Finish();
      }
    }
    size_t expected = 0;
    for (const size_t n : shards_per_round) expected += n;
    ASSERT_EQ(executed.load(), expected);

    const double now = context.clock.SecondsSinceEpoch();
    const std::vector<LaneSnapshot> lanes = SnapshotLanes(context.events, now);
    const Json snapshot = BuildRunSnapshot(context);

    // Every shard event landed in exactly one lane: lanes partition the
    // events by construction (one lane per thread, single-writer), so the
    // totals must add up exactly — nothing lost, nothing duplicated.
    size_t total_shards = 0;
    size_t total_tasks = 0;
    for (const LaneSnapshot& lane : lanes) {
      size_t begins = 0, ends = 0;
      for (const TraceEvent& event : lane.events) {
        begins += event.kind == EventKind::kBegin ? 1 : 0;
        ends += event.kind == EventKind::kEnd ? 1 : 0;
      }
      EXPECT_EQ(begins, ends) << lane.label;  // pool drained: all closed
      for (const LaneInterval& interval : lane.intervals) {
        EXPECT_FALSE(interval.open) << interval.name;
        EXPECT_LE(interval.begin_seconds, interval.end_seconds);
        EXPECT_LE(interval.end_seconds, now + 1e-9);
        if (interval.name == "merge.shard") ++total_shards;
        if (interval.name == "pool.task") ++total_tasks;
      }
    }
    EXPECT_EQ(total_shards, expected)
        << "threads=" << num_threads << " rounds=" << num_rounds;
    EXPECT_GE(total_tasks, 1u);

    // Each round's shard intervals fall inside that round's span window,
    // and each shard falls in exactly one round (rounds are sequential).
    for (size_t round = 0; round < num_rounds; ++round) {
      const Json* span = FindSpan(snapshot, round_names[round]);
      ASSERT_NE(span, nullptr);
      const double begin = span->Find("start_s")->AsDouble();
      const double end = begin + SpanSeconds(span);
      size_t inside = 0;
      for (const LaneSnapshot& lane : lanes) {
        for (const LaneInterval& interval : lane.intervals) {
          if (interval.name != "merge.shard") continue;
          // ParallelFor returns only after every shard ran, so the whole
          // interval sits inside the span (small slack for clock reads).
          if (interval.begin_seconds >= begin - 1e-9 &&
              interval.end_seconds <= end + 1e-9) {
            ++inside;
          }
        }
      }
      EXPECT_EQ(inside, shards_per_round[round]) << round_names[round];
    }

    // The snapshot merge attributes every worker task to some round, and a
    // lane's busy time within one round cannot exceed the round's wall time.
    const Json* phases = snapshot.Find("workers")->Find("phases");
    ASSERT_NE(phases, nullptr);
    for (size_t round = 0; round < num_rounds; ++round) {
      const Json* span = FindSpan(snapshot, round_names[round]);
      const Json* entry = phases->Find(round_names[round]);
      ASSERT_NE(entry, nullptr) << round_names[round];
      const double busy = entry->Find("worker_busy_seconds")->AsDouble();
      EXPECT_GE(busy, 0.0);
      EXPECT_LE(busy,
                static_cast<double>(num_threads) * SpanSeconds(span) +
                    1e-6)
          << round_names[round];
    }
  }
}

TEST(TraceMergeTest, MergedPhaseTimesMatchSerialTracer) {
  // The same deterministic workload, once on a pool and once serially with
  // the work timed by the phase span alone. The parallel run's merged
  // per-phase worker busy time must agree with the serial span's measured
  // work time (same shard count, same spin) within a generous
  // scheduling tolerance.
  constexpr size_t kShards = 64;
  constexpr uint32_t kSpin = 2000;

  // Serial reference: total work time measured by the span alone.
  double serial_work = 0.0;
  {
    ObsContext context;
    ScopedObs scoped(&context);
    Span phase(&context.events, "work");
    for (size_t i = 0; i < kShards; ++i) SpinABit(kSpin);
    serial_work = phase.Finish();
  }

  // Parallel run: same shards through a pool, merged at snapshot time.
  ObsContext context;
  ScopedObs scoped(&context);
  context.events.set_enabled(true);
  double parallel_wall = 0.0;
  {
    ThreadPool pool(4);
    Span phase(&context.events, "work");
    ParallelFor(&pool, kShards, [&](size_t) {
      const ScopedWorkEvent shard("merge.shard");
      SpinABit(kSpin);
    });
    parallel_wall = phase.Finish();
  }
  double merged_shard_seconds = 0.0;
  size_t merged_shards = 0;
  for (const LaneSnapshot& lane :
       SnapshotLanes(context.events, context.clock.SecondsSinceEpoch())) {
    for (const LaneInterval& interval : lane.intervals) {
      if (interval.name != "merge.shard") continue;
      ++merged_shards;
      merged_shard_seconds += interval.end_seconds - interval.begin_seconds;
    }
  }
  ASSERT_EQ(merged_shards, kShards);
  // The summed shard time is the same CPU work the serial span measured;
  // scheduling noise (and TSan) can only make either side slower, so agree
  // within a factor rather than an absolute delta.
  EXPECT_GT(merged_shard_seconds, 0.0);
  EXPECT_LT(merged_shard_seconds, serial_work * 50 + 0.5);
  EXPECT_GT(merged_shard_seconds, serial_work / 50 - 0.5);
  // And the merge cannot manufacture time: per-lane busy time within the
  // phase is bounded by the phase's wall clock.
  const Json snapshot = BuildRunSnapshot(context);
  const Json* entry = snapshot.Find("workers")->Find("phases")->Find("work");
  ASSERT_NE(entry, nullptr);
  EXPECT_LE(entry->Find("worker_busy_seconds")->AsDouble(),
            4.0 * parallel_wall + 1e-6);
}

TEST(TraceMergeTest, ThreadsSharingOneContextKeepSeparateSpanStacks) {
  // Two threads record spans into one context (as any two library callers
  // without a ScopedObs do through DefaultObs()). Each thread's spans nest
  // only among themselves: A closing its span must not close B's, and B's
  // spans must not become children of A's.
  ObsContext context;
  std::barrier sync(2);
  double b_outer = 0.0;
  double b_inner = 0.0;
  std::thread a([&] {
    Span repair(&context.events, "a.repair");
    sync.arrive_and_wait();  // 1: A's span is open
    sync.arrive_and_wait();  // 2: B's spans are open
    repair.Finish();
    sync.arrive_and_wait();  // 3: A's span is closed
  });
  std::thread b([&] {
    sync.arrive_and_wait();  // 1
    Span repair(&context.events, "b.repair");
    Span solve(&context.events, "b.solve");
    sync.arrive_and_wait();  // 2
    sync.arrive_and_wait();  // 3
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    b_inner = solve.Finish();
    b_outer = repair.Finish();
  });
  a.join();
  b.join();
  EXPECT_GE(b_outer, 0.05);
  EXPECT_GE(b_inner, 0.05);

  const Json snapshot = BuildRunSnapshot(context);
  const Json::Array& roots = SpanRoots(snapshot);
  ASSERT_EQ(roots.size(), 2u);
  EXPECT_EQ(roots[0].Find("name")->AsString(), "a.repair");
  EXPECT_EQ(roots[0].Find("children"), nullptr);
  EXPECT_EQ(roots[1].Find("name")->AsString(), "b.repair");
  const Json* solve = FindSpan(snapshot, "b.repair/b.solve");
  ASSERT_NE(solve, nullptr);
  EXPECT_DOUBLE_EQ(SpanSeconds(solve), b_inner);
  EXPECT_DOUBLE_EQ(SpanSeconds(&roots[1]), b_outer);
}

}  // namespace
}  // namespace dbrepair::obs
