// pool_test.cpp — the cached-growth thread pool.
#include "concur/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <thread>

namespace congen {
namespace {

void waitFor(const std::function<bool()>& cond, int ms = 2000) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  while (!cond() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(PoolBasics, RunsTasks) {
  ThreadPool pool;
  std::atomic<int> ran{0};
  for (int i = 0; i < 10; ++i) pool.submit([&ran] { ++ran; });
  // A task's body finishes before its worker re-locks to count it, so
  // wait on the count itself.
  waitFor([&] { return pool.tasksCompleted() == 10u; });
  EXPECT_EQ(ran.load(), 10);
  EXPECT_EQ(pool.tasksCompleted(), 10u);
}

TEST(PoolBasics, WorkersAreReused) {
  ThreadPool pool;
  std::atomic<int> ran{0};
  for (int i = 0; i < 50; ++i) {
    pool.submit([&ran] { ++ran; });
    waitFor([&] { return ran.load() == i + 1; });
  }
  // Sequential submissions with idle workers available must not grow the
  // pool by one thread per task.
  EXPECT_LT(pool.threadsCreated(), 10u);
}

TEST(PoolGrowth, GrowsWhenAllWorkersBlocked) {
  // This is the property that makes nested pipelines deadlock-free: a
  // task blocked on a queue must not starve later submissions.
  std::latch gate(1);
  ThreadPool pool;
  constexpr int kBlocked = 6;
  std::atomic<int> started{0};
  for (int i = 0; i < kBlocked; ++i) {
    pool.submit([&] {
      ++started;
      gate.wait();  // blocks until the gate opens
    });
  }
  waitFor([&] { return started.load() == kBlocked; });
  EXPECT_EQ(started.load(), kBlocked) << "all blocked tasks started concurrently";
  EXPECT_GE(pool.threadsCreated(), static_cast<std::size_t>(kBlocked));

  std::atomic<bool> extraRan{false};
  pool.submit([&] { extraRan = true; });
  waitFor([&] { return extraRan.load(); });
  EXPECT_TRUE(extraRan.load()) << "new work proceeds while others block";
  gate.count_down();
}

TEST(PoolShutdown, SubmitAfterDestructionScopeIsSafe) {
  auto pool = std::make_unique<ThreadPool>();
  std::atomic<int> ran{0};
  pool->submit([&ran] { ++ran; });
  pool.reset();  // joins
  EXPECT_EQ(ran.load(), 1) << "destructor drains accepted work";
}

TEST(PoolShutdown, ThreadCapIsEnforced) {
  std::latch gate(1);
  ThreadPool pool(/*maxThreads=*/2);
  pool.submit([&] { gate.wait(); });
  pool.submit([&] { gate.wait(); });
  waitFor([&] { return pool.idleThreads() == 0; });
  EXPECT_THROW(pool.submit([] {}), std::runtime_error);
  gate.count_down();
}

TEST(PoolShutdown, ExplicitShutdownIsIdempotent) {
  ThreadPool pool;
  std::atomic<int> ran{0};
  for (int i = 0; i < 5; ++i) pool.submit([&ran] { ++ran; });
  pool.shutdown();
  EXPECT_EQ(ran.load(), 5) << "shutdown drains accepted work before joining";
  pool.shutdown();  // second call is a no-op
  EXPECT_THROW(pool.submit([] {}), std::runtime_error) << "pool stays closed";
  EXPECT_EQ(pool.tasksCompleted(), 5u);
}

TEST(PoolShutdown, CapRejectionDoesNotEnqueueTheTask) {
  // Regression: submit() used to push the task *before* the cap check,
  // so a "rejected" task was still queued and ran later anyway.
  std::latch gate(1);
  ThreadPool pool(/*maxThreads=*/1);
  pool.submit([&] { gate.wait(); });  // occupies the only worker
  waitFor([&] { return pool.idleThreads() == 0; });
  std::atomic<bool> phantomRan{false};
  EXPECT_THROW(pool.submit([&] { phantomRan = true; }), std::runtime_error);
  gate.count_down();  // release the worker; it would now drain any stale queue
  waitFor([&] { return pool.tasksCompleted() == 1u; });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(phantomRan.load()) << "a rejected task must never run";
  EXPECT_EQ(pool.tasksCompleted(), 1u);
}

TEST(PoolStats, ThreadsCreatedCountsGrowthNotChurn) {
  ThreadPool pool;
  EXPECT_EQ(pool.threadsCreated(), 0u) << "no eager workers";
  std::atomic<int> ran{0};
  pool.submit([&ran] { ++ran; });
  // tasksCompleted is incremented under the same lock hold that parks
  // the worker idle again, so waiting on it (unlike on `ran`) guarantees
  // the next submit sees an idle worker and reuses it.
  waitFor([&] { return pool.tasksCompleted() == 1u; });
  EXPECT_EQ(pool.threadsCreated(), 1u) << "first submit spawns exactly one";
  for (std::size_t i = 0; i < 20; ++i) {
    pool.submit([&ran] { ++ran; });
    waitFor([&] { return pool.tasksCompleted() == i + 2; });
  }
  EXPECT_EQ(ran.load(), 21);
  EXPECT_EQ(pool.threadsCreated(), 1u) << "sequential load never grows the pool";
}

TEST(PoolStats, ThreadsCreatedSurvivesShutdown) {
  // threadsCreated is a lifetime statistic: it reports workers spawned,
  // not workers currently alive, so it must not drop to zero after the
  // workers are joined.
  ThreadPool pool;
  std::atomic<int> ran{0};
  for (int i = 0; i < 3; ++i) pool.submit([&ran] { ++ran; });
  waitFor([&] { return ran.load() == 3; });
  const auto created = pool.threadsCreated();
  EXPECT_GE(created, 1u);
  pool.shutdown();
  EXPECT_EQ(pool.threadsCreated(), created) << "accounting survives the join";
  EXPECT_EQ(pool.idleThreads(), 0u) << "no workers remain parked";
}

TEST(PoolStats, BurstGrowthMatchesBlockedWorkers) {
  std::latch gate(1);
  ThreadPool pool;
  constexpr int kBlocked = 4;
  std::atomic<int> started{0};
  for (int i = 0; i < kBlocked; ++i) {
    pool.submit([&] {
      ++started;
      gate.wait();
    });
  }
  waitFor([&] { return started.load() == kBlocked; });
  EXPECT_EQ(pool.threadsCreated(), static_cast<std::size_t>(kBlocked))
      << "every burst submit outran the blocked/parked workers, so each grew the pool";
  gate.count_down();
}

TEST(PoolGlobal, SingletonIsStable) {
  EXPECT_EQ(&ThreadPool::global(), &ThreadPool::global());
}

}  // namespace
}  // namespace congen
