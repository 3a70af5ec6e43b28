#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

namespace dbrepair {
namespace {

TEST(ResolveNumThreadsTest, LiteralValuesPassThrough) {
  EXPECT_EQ(ResolveNumThreads(1), 1u);
  EXPECT_EQ(ResolveNumThreads(7), 7u);
}

TEST(ResolveNumThreadsTest, ZeroMeansAtLeastOne) {
  EXPECT_GE(ResolveNumThreads(0), 1u);
}

TEST(ShardRangesTest, PartitionsExactlyAndNonEmpty) {
  for (const size_t total : {1u, 2u, 7u, 64u, 1000u, 1001u}) {
    for (const size_t max_shards : {1u, 2u, 3u, 16u, 2000u}) {
      const auto ranges = ShardRanges(total, max_shards);
      ASSERT_FALSE(ranges.empty());
      EXPECT_LE(ranges.size(), max_shards);
      EXPECT_LE(ranges.size(), total);
      size_t expected_begin = 0;
      for (const auto& [begin, end] : ranges) {
        EXPECT_EQ(begin, expected_begin);
        EXPECT_LT(begin, end) << "empty shard";
        expected_begin = end;
      }
      EXPECT_EQ(expected_begin, total);
      // Near-equal: sizes differ by at most one.
      size_t min_size = total, max_size = 0;
      for (const auto& [begin, end] : ranges) {
        min_size = std::min(min_size, end - begin);
        max_size = std::max(max_size, end - begin);
      }
      EXPECT_LE(max_size - min_size, 1u);
    }
  }
}

TEST(ShardRangesTest, EmptyInputYieldsNoShards) {
  EXPECT_TRUE(ShardRanges(0, 4).empty());
}

TEST(ParallelForTest, NullPoolRunsSeriallyInOrder) {
  std::vector<size_t> order;
  ParallelFor(nullptr, 10, [&](size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 10u);
  for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelForTest, SingleWorkerPoolRunsSeriallyInOrder) {
  ThreadPool pool(1);
  std::vector<size_t> order;
  ParallelFor(&pool, 10, [&](size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 10u);
  for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelForTest, ZeroCountIsANoOp) {
  ThreadPool pool(4);
  ParallelFor(&pool, 0, [](size_t) { FAIL() << "body must not run"; });
}

TEST(ParallelForTest, EveryIndexVisitedExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kCount = 10000;
  // One slot per index: each i is claimed by exactly one thread, so the
  // per-slot increment is race-free if (and only if) claiming works.
  std::vector<int> visits(kCount, 0);
  std::atomic<size_t> total{0};
  ParallelFor(&pool, kCount, [&](size_t i) {
    ++visits[i];
    total.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(), kCount);
  for (size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(visits[i], 1) << "index " << i;
  }
}

TEST(ParallelForTest, PropagatesExceptionFromWorkerIteration) {
  ThreadPool pool(4);
  std::atomic<size_t> ran{0};
  EXPECT_THROW(
      ParallelFor(&pool, 1000,
                  [&](size_t i) {
                    if (i == 57) throw std::runtime_error("boom");
                    ran.fetch_add(1, std::memory_order_relaxed);
                  }),
      std::runtime_error);
  // Unclaimed iterations are skipped once the failure flag is up; at the
  // very least the throwing iteration itself never counts.
  EXPECT_LT(ran.load(), 1000u);
}

TEST(ParallelForTest, PropagatesExceptionWithoutPool) {
  EXPECT_THROW(ParallelFor(nullptr, 10,
                           [](size_t i) {
                             if (i == 3) throw std::runtime_error("boom");
                           }),
               std::runtime_error);
}

TEST(ParallelForTest, NestedFanOutRunsInlineWithoutDeadlock) {
  ThreadPool pool(3);
  constexpr size_t kOuter = 20;
  constexpr size_t kInner = 50;
  std::vector<std::atomic<size_t>> inner_counts(kOuter);
  ParallelFor(&pool, kOuter, [&](size_t o) {
    // A worker thread re-entering ParallelFor on the same pool must not
    // block on its own queue; the nested loop runs inline.
    ParallelFor(&pool, kInner, [&](size_t) {
      inner_counts[o].fetch_add(1, std::memory_order_relaxed);
    });
  });
  for (size_t o = 0; o < kOuter; ++o) {
    EXPECT_EQ(inner_counts[o].load(), kInner) << "outer " << o;
  }
}

TEST(ParallelForTest, NestedExceptionPropagatesToCaller) {
  ThreadPool pool(2);
  EXPECT_THROW(ParallelFor(&pool, 8,
                           [&](size_t o) {
                             ParallelFor(&pool, 8, [&](size_t i) {
                               if (o == 3 && i == 3) {
                                 throw std::runtime_error("nested boom");
                               }
                             });
                           }),
               std::runtime_error);
}

TEST(ThreadPoolTest, SubmittedTasksAllRunBeforeDestruction) {
  std::atomic<size_t> ran{0};
  {
    ThreadPool pool(4);
    for (size_t i = 0; i < 100; ++i) {
      pool.Submit([&] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    // The destructor lets queued tasks finish before joining.
  }
  EXPECT_EQ(ran.load(), 100u);
}

TEST(ThreadPoolTest, OnWorkerThreadDistinguishesWorkers) {
  EXPECT_FALSE(ThreadPool::OnWorkerThread());
  std::atomic<bool> seen_on_worker{false};
  {
    ThreadPool pool(2);
    pool.Submit([&] { seen_on_worker.store(ThreadPool::OnWorkerThread()); });
  }
  EXPECT_TRUE(seen_on_worker.load());
  EXPECT_FALSE(ThreadPool::OnWorkerThread());
}

// Stress target for `ctest -L concurrency` under -DDBREPAIR_SANITIZE=thread:
// repeated fan-outs sharing read state and per-slot outputs, the exact
// access pattern the pipeline's sharded phases use.
// Context hooks whose `restore` writes into the captured context late, as
// the obs layer's does when it records a pool task's end event.
struct RestoreProbe {
  std::atomic<int> restored{0};
};
RestoreProbe* g_restore_probe = nullptr;

void* CaptureProbe() { return g_restore_probe; }
void* InstallProbe(void* context) { return context; }
void RestoreLate(void* context) {
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  static_cast<RestoreProbe*>(context)->restored.fetch_add(1);
}

TEST(ParallelForTest, ReturnsOnlyAfterEveryHelperRestoredItsContext) {
  RestoreProbe probe;
  // Declared after the probe, so at worst its workers finish with the probe
  // before it goes.
  ThreadPool pool(4);
  g_restore_probe = &probe;
  const ThreadContextHooks previous =
      SetThreadContextHooks({&CaptureProbe, &InstallProbe, &RestoreLate});
  // 64 iterations on 4 workers: 4 helper tasks, each restored after a sleep.
  ParallelFor(&pool, 64, [](size_t) {});
  const int restored = probe.restored.load();
  SetThreadContextHooks(previous);
  EXPECT_EQ(restored, 4);
}

TEST(ParallelForTest, StressRepeatedFanOutsAreRaceFree) {
  ThreadPool pool(8);
  constexpr size_t kRounds = 50;
  constexpr size_t kCount = 2000;
  const std::vector<size_t> input = [] {
    std::vector<size_t> v(kCount);
    for (size_t i = 0; i < kCount; ++i) v[i] = i * 3 + 1;
    return v;
  }();
  for (size_t round = 0; round < kRounds; ++round) {
    std::vector<size_t> out(kCount, 0);
    std::atomic<size_t> sum{0};
    ParallelFor(&pool, kCount, [&](size_t i) {
      out[i] = input[i] * 2;  // shared read, private write
      sum.fetch_add(input[i], std::memory_order_relaxed);
    });
    size_t expected = 0;
    for (size_t i = 0; i < kCount; ++i) {
      ASSERT_EQ(out[i], input[i] * 2);
      expected += input[i];
    }
    ASSERT_EQ(sum.load(), expected);
  }
}

}  // namespace
}  // namespace dbrepair
