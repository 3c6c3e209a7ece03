// pipe_stress_test.cpp — torture for the |> proxy: abandon-mid-stream
// storms, refresh (^) while the producer is blocked on a full queue,
// concurrent consumers over a shared pool, and producer-error storms.
// The lifecycle rules under test are the three in docs/INTERNALS.md §3.
#include "concur/pipe.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "../testutil.hpp"
#include "interp/interpreter.hpp"
#include "runtime/error.hpp"
#include "stress_util.hpp"

namespace congen {
namespace {

using stress::eventually;
using stress::onThreads;

/// An endless generator of 1s — only queue-close can stop its producer.
GenPtr endless() {
  return CallbackGen::create([]() -> CallbackGen::Puller {
    return []() -> std::optional<Value> { return Value::integer(1); };
  });
}

/// Counts live producer bodies via shared_ptr use-count-free signalling:
/// the factory bumps `alive` per built body and the puller's destructor
/// is not observable, so we instead track values produced.
GenPtr counting(std::atomic<std::int64_t>& produced, std::int64_t limit = -1) {
  return CallbackGen::create([&produced, limit]() -> CallbackGen::Puller {
    std::int64_t n = 0;
    return [&produced, limit, n]() mutable -> std::optional<Value> {
      if (limit >= 0 && n >= limit) return std::nullopt;
      produced.fetch_add(1, std::memory_order_relaxed);
      return Value::integer(++n);
    };
  });
}

TEST(PipeStress, AbandonMidStreamStorm) {
  // Create, take one value, drop — hundreds of times on a private pool.
  // Each destruction closes the queue, which must retire the producer;
  // if any producer leaked, the final counter would keep climbing and
  // the pool teardown below would hang a worker.
  ThreadPool pool;
  std::atomic<std::int64_t> produced{0};
  const int rounds = 200 * stress::scale();
  for (int round = 0; round < rounds; ++round) {
    auto pipe = Pipe::create([&produced] { return counting(produced); },
                             /*capacity=*/2, pool);
    ASSERT_TRUE(pipe->activate().has_value());
  }
  // All producers are gone once every submitted task completed.
  ASSERT_TRUE(eventually(
      [&] { return pool.tasksCompleted() == static_cast<std::size_t>(rounds); }, 20000))
      << "an abandoned pipe left its producer running";
  const auto settled = produced.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(produced.load(), settled) << "no producer survived abandonment";
}

TEST(PipeStress, AbandonFromManyThreads) {
  // The abandonment storm again, but with the consumers themselves on
  // different threads sharing one pool — destruction (queue close) races
  // other pipes' put/take traffic.
  ThreadPool pool;
  std::atomic<int> consumed{0};
  const int perThread = 50 * stress::scale();
  onThreads(4, [&](int) {
    for (int i = 0; i < perThread; ++i) {
      auto pipe = Pipe::create(endless, /*capacity=*/1, pool);
      if (pipe->activate()) consumed.fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(consumed.load(), 4 * perThread);
  ASSERT_TRUE(eventually(
      [&] { return pool.tasksCompleted() == static_cast<std::size_t>(4 * perThread); }, 20000));
}

TEST(PipeStress, RefreshWhileProducerBlocked) {
  // ^p while p's producer is wedged against a full capacity-1 queue: the
  // refreshed pipe is a *new* producer over a fresh body; the old one
  // must keep its position and still be drainable or abandonable.
  ThreadPool pool;
  const int rounds = 50 * stress::scale();
  for (int round = 0; round < rounds; ++round) {
    auto pipe = Pipe::create([] { return test::range(1, 1000000); }, /*capacity=*/1, pool);
    ASSERT_EQ(pipe->activate()->smallInt(), 1);
    // Producer is wedged ahead: the capacity-1 queue refilled behind
    // the first take, so the next put() is blocked.
    auto fresh = rcStaticCast<Pipe>(pipe->refreshed());
    EXPECT_EQ(fresh->activate()->smallInt(), 1) << "^p restarts from scratch";
    EXPECT_EQ(pipe->activate()->smallInt(), 2) << "original keeps its position";
    // Both dropped here with blocked producers; close must release both.
  }
  ASSERT_TRUE(eventually(
      [&] { return pool.tasksCompleted() == static_cast<std::size_t>(2 * rounds); }, 20000))
      << "a refresh-abandoned producer leaked";
}

TEST(PipeStress, ConcurrentConsumersDistinctPipes) {
  // 4 consumer threads, each draining its own stream of pipes from a
  // shared pool; results must be per-pipe exact despite the shared
  // worker set and queue traffic.
  ThreadPool pool;
  onThreads(4, [&](int t) {
    for (int round = 0; round < 10 * stress::scale(); ++round) {
      const int base = t * 10000 + round * 100;
      auto pipe = Pipe::create(
          [base] { return test::range(base, base + 99); }, /*capacity=*/8, pool);
      std::int64_t expect = base;
      while (auto v = pipe->activate()) {
        ASSERT_EQ(v->requireInt64(), expect) << "cross-pipe interference";
        ++expect;
      }
      ASSERT_EQ(expect, base + 100) << "stream truncated";
    }
  });
}

TEST(PipeStress, ErrorStormSurfacesExactlyOncePerPipe) {
  ThreadPool pool;
  onThreads(4, [&](int) {
    for (int round = 0; round < 25 * stress::scale(); ++round) {
      auto pipe = Pipe::create(
          []() -> GenPtr {
            return CallbackGen::create([]() -> CallbackGen::Puller {
              int n = 0;
              return [n]() mutable -> std::optional<Value> {
                if (++n > 3) throw errDivisionByZero();
                return Value::integer(n);
              };
            });
          },
          /*capacity=*/1, pool);
      int values = 0;
      int errors = 0;
      while (true) {
        try {
          auto v = pipe->activate();
          if (!v) break;
          ++values;
        } catch (const IconError&) {
          ++errors;
          break;
        }
      }
      EXPECT_EQ(values, 3);
      EXPECT_EQ(errors, 1) << "the producer error crosses to this consumer exactly once";
    }
  });
}

TEST(PipeStress, FutureFanOut) {
  // Many futures resolved from many threads against the global pool —
  // the capacity-1 mailbox pattern at scale.
  onThreads(4, [&](int t) {
    for (int i = 0; i < 25 * stress::scale(); ++i) {
      const std::int64_t expected = t * 1000 + i;
      FutureValue future([expected]() -> GenPtr {
        return ConstGen::create(Value::integer(expected));
      });
      auto v = future.get();
      ASSERT_TRUE(v.has_value());
      ASSERT_EQ(v->requireInt64(), expected);
      ASSERT_EQ(future.get()->requireInt64(), expected) << "idempotent get";
    }
  });
}

TEST(PipeStress, DeepRecursivePipeNesting) {
  // A pipe whose body drains another pipe, stacked 12 deep: every level
  // is a producer blocked on its child's queue — the pathology the
  // cached-growth pool exists for (INTERNALS §3).
  ThreadPool pool;
  const int depth = 12;
  GenFactory factory = [] { return test::range(1, 20); };
  for (int level = 0; level < depth; ++level) {
    factory = [factory, &pool]() -> GenPtr {
      auto inner = Pipe::create(factory, /*capacity=*/1, pool);
      return CallbackGen::create([inner]() -> CallbackGen::Puller {
        return [inner]() -> std::optional<Value> { return inner->activate(); };
      });
    };
  }
  auto top = Pipe::create(factory, /*capacity=*/1, pool);
  std::int64_t expect = 1;
  while (auto v = top->activate()) {
    ASSERT_EQ(v->requireInt64(), expect);
    ++expect;
  }
  EXPECT_EQ(expect, 21) << "all 20 values crossed " << depth << " thread hops";
}

TEST(PipeStress, InterpreterTeardownReleasesGlobalPipes) {
  // Regression: a pipe stored in an interpreter *global* (`p := |> e`)
  // cycles back to the global scope through its refresh factory, so
  // neither was ever destroyed — the producer stayed blocked in put()
  // and process exit deadlocked when the global pool's destructor tried
  // to join it. ~Interpreter now clears the global scope to break the
  // cycle; the proof that it worked is the producer's task completing.
  auto& pool = ThreadPool::global();
  const auto before = pool.tasksCompleted();
  {
    interp::Interpreter interp;
    // The producer outruns the queue capacity and blocks mid-stream.
    interp.evalOne("p := |> (1 to 1000000)");
    ASSERT_EQ(interp.evalOne("@p")->requireInt64(), 1);
  }
  ASSERT_TRUE(eventually([&] { return pool.tasksCompleted() >= before + 1; }))
      << "interpreter teardown left the stored pipe's producer blocked";
}

}  // namespace
}  // namespace congen
