// pool_stress_test.cpp — torture for the cached-growth ThreadPool:
// growth under nested blocked producers (the property that keeps
// pipelines deadlock-free), liveness behind blocked workers, shutdown
// racing submit and running every accepted task, and thread-cap and
// injected-fault rejection semantics (a rejected submit must be a no-op).
#include "concur/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <latch>
#include <memory>
#include <stdexcept>
#include <vector>

#include "concur/fault_injection.hpp"
#include "stress_util.hpp"

namespace congen {
namespace {

using stress::eventually;
using stress::onThreads;

TEST(PoolStress, GrowthUnderNestedBlockedProducers) {
  // Task i submits task i+1 and then blocks until i+1 delivers — the
  // worst case for a fixed pool (every worker is blocked waiting on work
  // that needs yet another worker). Cached growth must reach the bottom.
  const int depth = 48 * stress::scale();
  std::atomic<int> completed{0};

  // Each level owns a latch its child opens.
  std::vector<std::unique_ptr<std::latch>> mail;
  mail.reserve(static_cast<std::size_t>(depth));
  for (int i = 0; i < depth; ++i) mail.push_back(std::make_unique<std::latch>(1));

  ThreadPool pool;
  std::function<void(int)> level = [&](int i) {
    if (i + 1 < depth) {
      pool.submit([&level, i] { level(i + 1); });
      mail[static_cast<std::size_t>(i)]->wait();  // block on the child
    }
    completed.fetch_add(1, std::memory_order_relaxed);
    if (i > 0) mail[static_cast<std::size_t>(i - 1)]->count_down();  // release the parent
  };
  pool.submit([&level] { level(0); });

  ASSERT_TRUE(eventually([&] { return completed.load() == depth; }, 30000))
      << "nested chain stalled at " << completed.load() << "/" << depth;
  EXPECT_GE(pool.threadsCreated(), static_cast<std::size_t>(depth) - 1)
      << "every blocked level needed its own worker";
  // Wait for the task tails (the release count_down()s) before `mail` and
  // `level` go out of scope under the still-running workers.
  ASSERT_TRUE(eventually(
      [&] { return pool.tasksCompleted() == static_cast<std::size_t>(depth); }, 30000));
}

TEST(PoolStress, ShutdownVsSubmitRace) {
  // Threads hammer submit() while the pool shuts down concurrently.
  // Every submit must either run its task to completion (accepted before
  // the flag) or throw (after) — never lose a task, never crash.
  const int rounds = 30 * stress::scale();
  for (int round = 0; round < rounds; ++round) {
    ThreadPool pool;
    std::atomic<int> accepted{0};
    std::atomic<int> rejected{0};
    std::atomic<int> ran{0};

    std::vector<std::thread> submitters;
    for (int s = 0; s < 4; ++s) {
      submitters.emplace_back([&] {
        for (int i = 0; i < 100; ++i) {
          try {
            pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
            accepted.fetch_add(1, std::memory_order_relaxed);
          } catch (const std::runtime_error&) {
            rejected.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::microseconds(round * 31 % 500));
    pool.shutdown();  // drains accepted work, then joins
    for (auto& t : submitters) t.join();

    EXPECT_EQ(accepted.load() + rejected.load(), 400);
    // shutdown() drains the queue before the workers retire, so every
    // accepted task ran — except those accepted after the last worker
    // retired are impossible: post-shutdown submits throw.
    ASSERT_TRUE(eventually([&] { return ran.load() == accepted.load(); }, 10000))
        << "round " << round << ": accepted=" << accepted.load() << " ran=" << ran.load();
  }
}

TEST(PoolStress, ShutdownRacesShutdownIdempotently) {
  const int rounds = 30 * stress::scale();
  for (int round = 0; round < rounds; ++round) {
    ThreadPool pool;
    std::atomic<int> ran{0};
    for (int i = 0; i < 8; ++i) pool.submit([&ran] { ++ran; });
    onThreads(4, [&](int) { pool.shutdown(); });
    EXPECT_EQ(ran.load(), 8) << "concurrent shutdowns drained the queue exactly once";
    EXPECT_THROW(pool.submit([] {}), std::runtime_error);
  }
}

TEST(PoolStress, ThreadCapExhaustionUnderContention) {
  // A tiny pool, many competing submitters of blocking tasks: rejections
  // are expected, but an accepted task must always eventually run, and a
  // rejected task must never run.
  constexpr std::size_t kCap = 4;
  std::latch gate(1);
  ThreadPool pool(kCap);
  std::atomic<int> accepted{0};
  std::atomic<int> rejectedMarks{0};
  std::atomic<int> ran{0};

  onThreads(8, [&](int) {
    for (int i = 0; i < 50; ++i) {
      try {
        pool.submit([&] {
          ran.fetch_add(1, std::memory_order_relaxed);
          gate.wait();  // park until released
        });
        accepted.fetch_add(1, std::memory_order_relaxed);
      } catch (const std::runtime_error&) {
        rejectedMarks.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  EXPECT_LE(pool.threadsCreated(), kCap) << "the cap is a hard ceiling";
  EXPECT_GT(rejectedMarks.load(), 0) << "contention at the cap must reject";
  gate.count_down();  // release every parked task
  ASSERT_TRUE(eventually([&] { return ran.load() == accepted.load(); }, 20000))
      << "accepted=" << accepted.load() << " ran=" << ran.load()
      << " — an accepted task was lost, or a rejected one ran";
  ASSERT_TRUE(eventually(
      [&] { return pool.tasksCompleted() == static_cast<std::size_t>(accepted.load()); }));
}

TEST(PoolStress, SubmitStormThenQuiesceRepeatedly) {
  // Bursts followed by quiescence: workers must be reused, not leaked —
  // the "cached" half of cached growth.
  ThreadPool pool;
  for (int burst = 0; burst < 10; ++burst) {
    std::atomic<int> ran{0};
    onThreads(4, [&](int) {
      for (int i = 0; i < 50; ++i) pool.submit([&ran] { ran.fetch_add(1); });
    });
    ASSERT_TRUE(eventually([&] { return ran.load() == 200; }));
    ASSERT_TRUE(eventually([&] { return pool.idleThreads() == pool.threadsCreated(); }))
        << "all workers parked idle after the burst";
  }
  // Growth is bounded by peak concurrency (one burst's in-flight tasks),
  // not by the 2000 total tasks: later bursts reuse parked workers.
  EXPECT_LT(pool.threadsCreated(), 400u);
}

TEST(PoolStress, WorkerSubmittedTaskBehindABlockedWorkerRuns) {
  // A worker submits a task and then blocks: the task must still run,
  // on the worker the submit grew.
  std::latch gate(1);
  ThreadPool pool;
  std::atomic<bool> innerRan{false};
  pool.submit([&] {
    pool.submit([&] { innerRan = true; });
    gate.wait();  // block the submitting worker until the end of the test
  });
  ASSERT_TRUE(eventually([&] { return innerRan.load(); }))
      << "task submitted behind a blocked worker never ran";
  gate.count_down();
  pool.shutdown();
  EXPECT_EQ(pool.tasksCompleted(), 2u);
}

TEST(PoolStress, ShutdownRunsEveryAcceptedTask) {
  // Quick tasks, then an immediate shutdown: the workers drain the queue
  // before they retire.
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

TEST(PoolStress, BurstsFromManyThreadsAllComplete) {
  // External submitters race the workers' dequeues; every task must run
  // exactly once.
  ThreadPool pool;
  constexpr int kThreads = 4;
  const int perThread = 200 * stress::scale();
  std::atomic<int> ran{0};
  onThreads(kThreads, [&](int) {
    for (int i = 0; i < perThread; ++i) pool.submit([&ran] { ++ran; });
  });
  ASSERT_TRUE(eventually([&] { return ran.load() == kThreads * perThread; }));
  pool.shutdown();
  EXPECT_EQ(ran.load(), kThreads * perThread);
  EXPECT_EQ(pool.tasksCompleted(), static_cast<std::size_t>(kThreads * perThread));
}

TEST(PoolStress, GrowthInvariantSurvivesManyBlockedWorkers) {
  // Block several workers at once, then prove later submissions still
  // run: each submit grows a worker whenever the idle ones cannot cover
  // the queue, so a blocked worker never strands one.
  constexpr int kBlocked = 6;
  std::latch gate(1);
  ThreadPool pool;
  std::atomic<int> started{0};
  for (int i = 0; i < kBlocked; ++i) {
    pool.submit([&] {
      ++started;
      gate.wait();
    });
  }
  ASSERT_TRUE(eventually([&] { return started.load() == kBlocked; }));
  std::atomic<int> extraRan{0};
  const int extras = 20 * stress::scale();
  for (int i = 0; i < extras; ++i) pool.submit([&extraRan] { ++extraRan; });
  ASSERT_TRUE(eventually([&] { return extraRan.load() == extras; }))
      << "a submission was stranded behind blocked workers";
  gate.count_down();
  pool.shutdown();
}

TEST(PoolStress, NestedSubmitChainsDoNotDeadlock) {
  // Each task submits its successor from a worker thread, so the chain
  // runs entirely on submits made inside the pool.
  ThreadPool pool;
  const int depth = 300 * stress::scale();
  std::atomic<int> step{0};
  std::function<void()> next = [&] {
    if (step.fetch_add(1) + 1 < depth) pool.submit(next);
  };
  pool.submit(next);
  ASSERT_TRUE(eventually([&] { return step.load() == depth; }));
  pool.shutdown();
  EXPECT_EQ(pool.tasksCompleted(), static_cast<std::size_t>(depth));
}

TEST(PoolStress, FaultInjectedSubmitsStayAllOrNothing) {
  if (!testing::FaultInjector::compiledIn()) {
    GTEST_SKIP() << "fault hooks not compiled in (CONGEN_FAULT_INJECTION off)";
  }
  // Delays at PoolTaskRun shuffle which worker claims which task;
  // failures at PoolSubmit exercise the all-or-nothing rejection path (a
  // thrown submit must not enqueue). Accepted tasks must still all run
  // exactly once.
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
  ASSERT_TRUE(eventually([&] { return ran.load() == accepted; }));
  testing::FaultInjector::instance().disarm();  // clean joins for shutdown
  pool.shutdown();
  EXPECT_EQ(ran.load(), accepted) << "a rejected submit ran anyway, or an accepted one was lost";
  EXPECT_EQ(pool.tasksCompleted(), static_cast<std::size_t>(accepted));
}

}  // namespace
}  // namespace congen
