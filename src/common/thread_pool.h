#ifndef DBREPAIR_COMMON_THREAD_POOL_H_
#define DBREPAIR_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

namespace dbrepair {

/// Resolves a requested worker count: 0 means auto (one per hardware
/// thread, at least 1); any other value is taken literally.
size_t ResolveNumThreads(size_t requested);

/// Hooks that propagate a per-thread context (the observability context)
/// from the submitting thread onto pool workers: `capture` runs on the
/// submitting thread inside Submit(), `install` runs on the worker before
/// the task (returning whatever was installed before), `restore` runs on
/// the worker after the task. Registered once at startup by the obs layer;
/// common/ stays free of any dependency on it. All three must be set
/// together; all three unset means no hooks.
struct ThreadContextHooks {
  void* (*capture)() = nullptr;
  void* (*install)(void* context) = nullptr;
  void (*restore)(void* previous) = nullptr;
};

/// Installs the process-wide context-propagation hooks and returns the ones
/// they replace. Call while no pool work is queued; tasks submitted
/// afterwards use the new hooks. All-unset hooks clear them; a partly set
/// value is ignored (and the current hooks are returned).
ThreadContextHooks SetThreadContextHooks(const ThreadContextHooks& hooks);

/// A fixed-size FIFO thread pool — no work stealing, one shared queue.
/// `Submit` enqueues a task; workers drain the queue in submission order.
/// Submitted tasks must not throw (ParallelFor is the exception-safe
/// fan-out primitive built on top). The destructor stops accepting work,
/// lets already-queued tasks finish, and joins every worker.
class ThreadPool {
 public:
  /// Spawns ResolveNumThreads(num_threads) workers.
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Enqueues `task` for execution by some worker. When context hooks are
  /// registered, the submitting thread's context is captured here and
  /// installed around the task on the worker, so pool work observes the
  /// same ObsContext as the thread that fanned it out. `done`, when set,
  /// runs on the worker after the hooks' `restore`: the last point at which
  /// the task touches the captured context, so a submitter that waits for
  /// `done` may then destroy that context.
  void Submit(std::function<void()> task, std::function<void()> done = {});

  /// True when the calling thread is a worker of *any* ThreadPool.
  /// ParallelFor uses this to run nested fan-outs inline on the worker
  /// instead of deadlocking waiting for its own pool.
  static bool OnWorkerThread();

  /// The calling worker's index within its pool ([0, num_threads)), or -1
  /// when the caller is not a pool worker. Stable for the thread's
  /// lifetime; used to label per-worker trace lanes.
  static int CurrentWorkerIndex();

 private:
  void WorkerLoop(size_t worker_index);

  std::mutex mu_;
  std::condition_variable cv_;
  std::queue<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// Runs `body(i)` for every i in [0, count), fanning the iterations out
/// across `pool`'s workers with the calling thread participating. Iterations
/// are claimed from an atomic counter, so no iteration runs twice and no
/// ordering between iterations may be assumed — callers that need
/// deterministic output give each iteration its own output slot and merge
/// in index order afterwards.
///
/// Degenerate cases run serially inline, in index order: `pool == nullptr`,
/// a pool with <= 1 workers, `count <= 1`, or a caller that is itself a pool
/// worker (nested fan-out).
///
/// If any iteration throws, later unclaimed iterations are skipped and the
/// first exception (in completion order) is rethrown on the calling thread
/// after all in-flight iterations finish.
///
/// Returns only after every helper task has also left the caller's context
/// (its `restore` hook has run), so the caller may destroy its ObsContext
/// as soon as ParallelFor returns, even while the pool lives on.
void ParallelFor(ThreadPool* pool, size_t count,
                 const std::function<void(size_t)>& body);

/// Splits [0, total) into at most `max_shards` contiguous, near-equal,
/// non-empty ranges covering it exactly; empty when total == 0. The shard
/// plan feeds ParallelFor(pool, ranges.size(), ...) with one output slot per
/// shard, merged in shard order — the scheme every parallel pipeline phase
/// uses to stay byte-identical to its serial run.
std::vector<std::pair<size_t, size_t>> ShardRanges(size_t total,
                                                   size_t max_shards);

}  // namespace dbrepair

#endif  // DBREPAIR_COMMON_THREAD_POOL_H_
