// thread_pool.hpp — cached-growth thread pool with one FIFO task queue.
//
// Pipe producers block on a bounded queue for most of their lifetime, so
// a fixed-size pool would deadlock nested pipelines (a stage waiting for
// a worker that is itself blocked producing for it). Like Java's cached
// executor — which the paper's implementation leans on ("thread creation
// and allocation leverage Java's facilities for thread pool management")
// — this pool grows a worker whenever a task is submitted and no worker
// is idle, and parks idle workers for reuse.
//
// Task storage is one deque under the pool mutex that growth, parking
// and shutdown already take once per task: submit pushes in the same
// lock hold that decides growth, and a worker pops in the same hold that
// ends its wait, so the growth accounting is exact (a burst of B blocked
// tasks grows the pool by exactly B).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace congen {

class ThreadPool {
 public:
  using Task = std::function<void()>;

  /// maxThreads is a runaway-safety cap, far above any sane pipeline depth.
  explicit ThreadPool(std::size_t maxThreads = 4096);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Process-wide pool used by pipes unless one is passed explicitly.
  static ThreadPool& global();

  /// Enqueue a task; grows the pool whenever the idle workers cannot
  /// cover the pending tasks (so a blocked task can never strand a later
  /// one). Throws std::runtime_error after shutdown or at the thread
  /// cap; a rejected task is NOT enqueued (submit is all-or-nothing).
  void submit(Task task);

  /// Stop accepting work, drain queued tasks, and join all workers.
  /// Idempotent, and safe to race with concurrent submit() calls (they
  /// throw once the flag is set). Must not be called from a pool task —
  /// a worker joining itself would deadlock. The destructor calls this.
  void shutdown();

  /// Statistics (for tests and the ablation benches). threadsCreated
  /// counts workers spawned over the pool's lifetime (it does not drop
  /// at shutdown).
  [[nodiscard]] std::size_t threadsCreated() const;
  [[nodiscard]] std::size_t tasksCompleted() const;
  [[nodiscard]] std::size_t idleThreads() const;

 private:
  /// A queued task plus its enqueue timestamp. The stamp is taken only
  /// while metrics are enabled (default time_point otherwise), feeding
  /// the pool.queue_latency_micros histogram at dequeue.
  struct Entry {
    Task fn;
    std::chrono::steady_clock::time_point enqueued{};
  };

  void workerLoop();

  // All pool state — the task queue, growth, parking, shutdown, and the
  // deterministic idle/completed accounting — lives under m_.
  mutable std::mutex m_;
  std::condition_variable cv_;
  std::vector<std::thread> workers_;
  std::size_t maxThreads_;
  std::size_t created_ = 0;
  std::size_t idle_ = 0;
  std::size_t completed_ = 0;
  bool shutdown_ = false;
  std::deque<Entry> tasks_;
};

}  // namespace congen
