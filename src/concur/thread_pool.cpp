#include "concur/thread_pool.hpp"

#include <stdexcept>
#include <utility>

#include "concur/fault_injection.hpp"
#include "obs/runtime_stats.hpp"

namespace congen {

ThreadPool::ThreadPool(std::size_t maxThreads) : maxThreads_(maxThreads) {}

ThreadPool::~ThreadPool() { shutdown(); }

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::submit(Task task) {
  CONGEN_FAULT_POINT(PoolSubmit);
  const bool metrics = obs::metricsEnabled();
  std::unique_lock lock(m_);
  if (shutdown_) throw std::runtime_error("ThreadPool: submit after shutdown");
  // Grow whenever the idle workers cannot cover every pending task, not
  // merely when idle_ == 0: a parked worker counted "idle" here may
  // dequeue an *older* task and block in it, and a task stranded that
  // way would have no later growth trigger (deadlock). The invariant
  // after every submit — idle workers >= pending tasks — is what makes
  // nested blocked producers safe. Workers claim tasks under m_ too, so
  // the decision is exact.
  const bool needWorker = idle_ < tasks_.size() + 1;
  // Decide growth before enqueueing: a cap rejection must leave the pool
  // exactly as it found it, or the "failed" task would still run later.
  if (needWorker && workers_.size() >= maxThreads_) {
    throw std::runtime_error("ThreadPool: thread cap reached");
  }
  // Spawn before enqueueing: if thread creation throws (std::system_error
  // on resource exhaustion), the pool is left exactly as found. The
  // reverse order would strand an already-queued task with no grown
  // worker — a silently-broken submit that can deadlock a blocked
  // producer chain. If the enqueue below throws instead, the surplus
  // worker just parks idle, which is harmless.
  if (needWorker) {
    workers_.emplace_back([this] { workerLoop(); });
    ++created_;
    if (metrics) obs::PoolStats::get().threadsCreated.add(1);
  }
  Entry entry{std::move(task), {}};
  if (metrics) entry.enqueued = std::chrono::steady_clock::now();
  tasks_.push_back(std::move(entry));
  lock.unlock();
  cv_.notify_one();
}

void ThreadPool::shutdown() {
  // Swap the workers out under the lock so concurrent shutdown() calls
  // (or shutdown racing the destructor) each join a disjoint set, then
  // join outside the lock so retiring workers can reacquire it.
  std::vector<std::thread> workers;
  {
    std::lock_guard lock(m_);
    shutdown_ = true;
    workers.swap(workers_);
  }
  cv_.notify_all();
  for (auto& w : workers) {
    if (w.joinable()) w.join();
  }
}

void ThreadPool::workerLoop() {
  // The live gauge is updated unconditionally (worker birth/death is far
  // off any hot path) so toggling metrics mid-run can't unbalance it.
  obs::PoolStats::get().threadsLive.add(1);
  std::unique_lock lock(m_);
  while (true) {
    ++idle_;
    cv_.wait(lock, [&] { return shutdown_ || !tasks_.empty(); });
    --idle_;
    // Shutdown still runs every accepted task before the worker retires.
    if (tasks_.empty()) break;
    // Claimed in the lock hold that ended the wait: a woken worker never
    // comes up dry, and idle_ never counts a worker that holds a task.
    Entry entry = std::move(tasks_.front());
    tasks_.pop_front();
    lock.unlock();
    if (obs::metricsEnabled()) [[unlikely]] {
      auto& s = obs::PoolStats::get();
      if (entry.enqueued != std::chrono::steady_clock::time_point{}) {
        const auto waited = std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - entry.enqueued);
        s.queueLatencyMicros.record(static_cast<std::uint64_t>(waited.count()));
      }
      s.tasksRun.add(1);
    }
    CONGEN_FAULT_POINT(PoolTaskRun);  // delay-only site: shuffles scheduling
    entry.fn();  // exceptions from pipe bodies are caught in the pipe itself
    // Destroy the task before re-locking: a captured pipe body's
    // destructor closes queues and releases upstream pipes, and must
    // not run under the pool mutex.
    entry.fn = nullptr;
    lock.lock();
    // Incremented under the same lock hold that parks the worker idle
    // again (the loop head's ++idle_), so a tasksCompleted() reader that
    // observes the count is guaranteed the worker is reusable.
    ++completed_;
  }
  lock.unlock();
  obs::PoolStats::get().threadsLive.sub(1);
}

std::size_t ThreadPool::threadsCreated() const {
  std::lock_guard lock(m_);
  return created_;
}

std::size_t ThreadPool::tasksCompleted() const {
  std::lock_guard lock(m_);
  return completed_;
}

std::size_t ThreadPool::idleThreads() const {
  std::lock_guard lock(m_);
  return idle_;
}

}  // namespace congen
