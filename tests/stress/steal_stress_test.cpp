// steal_stress_test.cpp — the work-stealing thread pool.
//
// The pool's correctness story has three load-bearing invariants:
// (1) liveness — a queued task is always claimable by *some* worker, no
//     matter which shard it landed on (the stealing sweep);
// (2) growth — the idle >= pending invariant survives sharding, so a
//     blocked worker can never strand a later submission;
// (3) shutdown — every accepted task runs before the workers join, even
//     tasks parked on shards no worker calls home.
//
// Named StealStress.* on purpose: CI's flake-hunt and asan repeat passes
// select the new lock-free/stealing paths with -R 'SpscRing|Steal'.
#include "concur/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <latch>
#include <thread>
#include <vector>

#include "concur/fault_injection.hpp"
#include "stress_util.hpp"

namespace congen {
namespace {

TEST(StealStress, WorkerSubmittedTaskBehindABlockedWorkerIsStolen) {
  // Worker 0 (home shard 0) submits a task — which lands on its own
  // shard for locality — and then blocks. The helper worker the submit
  // spawned has home shard 1, so the only way the task can run is a
  // steal. This is deterministic, not probabilistic: worker homes are
  // assigned round-robin from the spawn index.
  std::latch gate(1);
  ThreadPool pool;
  ASSERT_GE(pool.shardCount(), 2u);
  std::atomic<bool> innerRan{false};
  pool.submit([&] {
    pool.submit([&] { innerRan = true; });
    gate.wait();  // block the submitting worker until the end of the test
  });
  ASSERT_TRUE(stress::eventually([&] { return innerRan.load(); }))
      << "task on a blocked worker's home shard was never stolen";
  EXPECT_GE(pool.tasksStolen(), 1u);
  gate.count_down();
  pool.shutdown();
  EXPECT_EQ(pool.tasksCompleted(), 2u);
}

TEST(StealStress, ShutdownDrainsEveryShard) {
  // Quick tasks round-robined across all shards, then an immediate
  // shutdown: the drain must reach shards whose home workers were never
  // spawned.
  const int rounds = 50 * stress::scale();
  for (int r = 0; r < rounds; ++r) {
    ThreadPool pool;
    std::atomic<int> ran{0};
    const int tasks = 1 + r % 7;
    for (int i = 0; i < tasks; ++i) pool.submit([&ran] { ++ran; });
    pool.shutdown();
    EXPECT_EQ(ran.load(), tasks) << "shutdown ran every accepted task";
    EXPECT_EQ(pool.tasksCompleted(), static_cast<std::size_t>(tasks));
  }
}

TEST(StealStress, BurstsFromManyThreadsAllComplete) {
  // External submitters hash across shards round-robin while workers
  // pop/steal concurrently; every task must run exactly once.
  ThreadPool pool;
  constexpr int kThreads = 4;
  const int perThread = 200 * stress::scale();
  std::atomic<int> ran{0};
  stress::onThreads(kThreads, [&](int) {
    for (int i = 0; i < perThread; ++i) pool.submit([&ran] { ++ran; });
  });
  ASSERT_TRUE(stress::eventually([&] { return ran.load() == kThreads * perThread; }));
  pool.shutdown();
  EXPECT_EQ(ran.load(), kThreads * perThread);
  EXPECT_EQ(pool.tasksCompleted(), static_cast<std::size_t>(kThreads * perThread));
}

TEST(StealStress, GrowthInvariantSurvivesBlockedWorkersOnEveryShard) {
  // Block more workers than there are shards so every shard has at
  // least one blocked "owner", then prove later submissions still run
  // (growth) and land wherever a live worker can steal them (liveness).
  std::latch gate(1);
  ThreadPool pool;
  const int blocked = static_cast<int>(pool.shardCount()) + 2;
  std::atomic<int> started{0};
  for (int i = 0; i < blocked; ++i) {
    pool.submit([&] {
      ++started;
      gate.wait();
    });
  }
  ASSERT_TRUE(stress::eventually([&] { return started.load() == blocked; }));
  std::atomic<int> extraRan{0};
  const int extras = 20 * stress::scale();
  for (int i = 0; i < extras; ++i) pool.submit([&extraRan] { ++extraRan; });
  ASSERT_TRUE(stress::eventually([&] { return extraRan.load() == extras; }))
      << "a submission was stranded behind blocked workers";
  gate.count_down();
  pool.shutdown();
}

TEST(StealStress, NestedSubmitChainsDoNotDeadlock) {
  // Each task submits its successor from a worker thread (own-shard
  // affinity), building a chain that crosses the steal path whenever
  // the submitting worker grabs a different next task first.
  ThreadPool pool;
  const int depth = 300 * stress::scale();
  std::atomic<int> step{0};
  std::function<void()> next = [&] {
    if (step.fetch_add(1) + 1 < depth) pool.submit(next);
  };
  pool.submit(next);
  ASSERT_TRUE(stress::eventually([&] { return step.load() == depth; }));
  pool.shutdown();
  EXPECT_EQ(pool.tasksCompleted(), static_cast<std::size_t>(depth));
}

TEST(StealStress, FaultInjectionWidensTheStealWindows) {
  if (!testing::FaultInjector::compiledIn()) {
    GTEST_SKIP() << "fault hooks not compiled in (CONGEN_FAULT_INJECTION off)";
  }
  // Delays at PoolSteal/PoolTaskRun shuffle which worker claims which
  // task; failures at PoolSubmit exercise the all-or-nothing rejection
  // path (a thrown submit must not enqueue). Accepted tasks must still
  // all run exactly once.
  testing::SitePolicy policy;
  policy.delayPerMille = 100;
  policy.maxDelayMicros = 300;
  policy.failPerMille = 30;
  testing::ScopedFaultInjection arm(stress::seed() + 7, policy);
  ThreadPool pool;
  std::atomic<int> ran{0};
  int accepted = 0;
  const int attempts = 400 * stress::scale();
  for (int i = 0; i < attempts; ++i) {
    try {
      pool.submit([&ran] { ++ran; });
      ++accepted;
    } catch (const testing::InjectedFault&) {
      // Rejected before enqueue; must never run.
    }
  }
  ASSERT_TRUE(stress::eventually([&] { return ran.load() == accepted; }));
  testing::FaultInjector::instance().disarm();  // clean joins for shutdown
  pool.shutdown();
  EXPECT_EQ(ran.load(), accepted) << "a rejected submit ran anyway, or an accepted one was lost";
  EXPECT_EQ(pool.tasksCompleted(), static_cast<std::size_t>(accepted));
}

}  // namespace
}  // namespace congen
