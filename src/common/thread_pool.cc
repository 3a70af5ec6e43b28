#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

namespace dbrepair {

namespace {

thread_local bool t_on_pool_worker = false;
thread_local int t_pool_worker_index = -1;

// Context-propagation hooks (see ThreadContextHooks). Stored as individual
// atomics so Submit can read them without a lock; `capture` is published
// last with release order and read first with acquire, making the other
// two visible whenever it is. Submit copies all three into the task, so a
// queued task never sees a later replacement.
std::atomic<void* (*)()> g_hook_capture{nullptr};
std::atomic<void* (*)(void*)> g_hook_install{nullptr};
std::atomic<void (*)(void*)> g_hook_restore{nullptr};

}  // namespace

size_t ResolveNumThreads(size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ThreadContextHooks SetThreadContextHooks(const ThreadContextHooks& hooks) {
  const ThreadContextHooks previous{
      g_hook_capture.load(std::memory_order_acquire),
      g_hook_install.load(std::memory_order_relaxed),
      g_hook_restore.load(std::memory_order_relaxed)};
  const bool unset = hooks.capture == nullptr;
  if ((hooks.install == nullptr) != unset ||
      (hooks.restore == nullptr) != unset) {
    return previous;  // partly set: ignored
  }
  g_hook_install.store(hooks.install, std::memory_order_relaxed);
  g_hook_restore.store(hooks.restore, std::memory_order_relaxed);
  g_hook_capture.store(hooks.capture, std::memory_order_release);
  return previous;
}

ThreadPool::ThreadPool(size_t num_threads) {
  const size_t n = ResolveNumThreads(num_threads);
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task,
                        std::function<void()> done) {
  if (auto* capture = g_hook_capture.load(std::memory_order_acquire)) {
    void* context = capture();
    task = [context, install = g_hook_install.load(std::memory_order_relaxed),
            restore = g_hook_restore.load(std::memory_order_relaxed),
            inner = std::move(task)] {
      void* previous = install(context);
      inner();
      restore(previous);
    };
  }
  if (done) {
    task = [inner = std::move(task), done = std::move(done)] {
      inner();
      done();
    };
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push(std::move(task));
  }
  cv_.notify_one();
}

bool ThreadPool::OnWorkerThread() { return t_on_pool_worker; }

int ThreadPool::CurrentWorkerIndex() { return t_pool_worker_index; }

void ThreadPool::WorkerLoop(size_t worker_index) {
  t_on_pool_worker = true;
  t_pool_worker_index = static_cast<int>(worker_index);
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to run
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

void ParallelFor(ThreadPool* pool, size_t count,
                 const std::function<void(size_t)>& body) {
  if (count == 0) return;
  const size_t pool_workers = pool == nullptr ? 0 : pool->num_threads();
  if (pool_workers <= 1 || count == 1 || ThreadPool::OnWorkerThread()) {
    for (size_t i = 0; i < count; ++i) body(i);
    return;
  }

  struct Shared {
    std::atomic<size_t> next{0};
    std::atomic<bool> failed{false};
    std::mutex mu;
    std::condition_variable cv;
    size_t active_helpers = 0;
    std::exception_ptr error;
  };
  // Helpers hold the state via shared_ptr; `body` is captured by reference,
  // which is safe because the caller blocks until every helper finished.
  auto shared = std::make_shared<Shared>();
  auto run_iterations = [&shared, &body, count] {
    while (!shared->failed.load(std::memory_order_relaxed)) {
      const size_t i = shared->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) break;
      try {
        body(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(shared->mu);
        if (shared->error == nullptr) {
          shared->error = std::current_exception();
        }
        shared->failed.store(true, std::memory_order_relaxed);
      }
    }
  };

  const size_t helpers = std::min(pool_workers, count - 1);
  {
    std::lock_guard<std::mutex> lock(shared->mu);
    shared->active_helpers = helpers;
  }
  // A helper counts itself done only after the pool has restored the
  // worker's context, so nothing it records outlives this call.
  for (size_t h = 0; h < helpers; ++h) {
    pool->Submit([&run_iterations] { run_iterations(); },
                 [shared] {
                   std::lock_guard<std::mutex> lock(shared->mu);
                   if (--shared->active_helpers == 0) shared->cv.notify_all();
                 });
  }
  run_iterations();  // the calling thread claims iterations too
  std::unique_lock<std::mutex> lock(shared->mu);
  shared->cv.wait(lock, [&shared] { return shared->active_helpers == 0; });
  if (shared->error != nullptr) std::rethrow_exception(shared->error);
}

std::vector<std::pair<size_t, size_t>> ShardRanges(size_t total,
                                                   size_t max_shards) {
  std::vector<std::pair<size_t, size_t>> ranges;
  if (total == 0) return ranges;
  const size_t shards = std::min(std::max<size_t>(max_shards, 1), total);
  ranges.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    const size_t begin = total * s / shards;
    const size_t end = total * (s + 1) / shards;
    ranges.emplace_back(begin, end);
  }
  return ranges;
}

}  // namespace dbrepair
