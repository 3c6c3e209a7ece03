// pipe_test.cpp — the multithreaded generator proxy (|>, Section III.B).
#include "concur/pipe.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <thread>

#include "../testutil.hpp"
#include "kernel/error_env.hpp"
#include "kernel/scan.hpp"
#include "runtime/error.hpp"
#include "runtime/governor.hpp"
#include "runtime/var.hpp"

namespace congen {
namespace {

using test::ints;

TEST(PipeBasics, StreamsAllResultsInOrder) {
  auto pipe = Pipe::create([] { return test::range(1, 100); });
  std::vector<std::int64_t> got;
  while (auto v = pipe->activate()) got.push_back(v->requireInt64());
  ASSERT_EQ(got.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], i + 1);
  EXPECT_FALSE(pipe->activate().has_value()) << "exhausted pipe stays exhausted";
}

TEST(PipeBasics, EmptyExpressionFailsImmediately) {
  auto pipe = Pipe::create([] { return FailGen::create(); });
  EXPECT_FALSE(pipe->activate().has_value());
}

TEST(PipeBasics, RunsInAnotherThread) {
  const auto consumerId = std::this_thread::get_id();
  std::atomic<bool> different{false};
  auto pipe = Pipe::create([consumerId, &different]() -> GenPtr {
    return CallbackGen::create([consumerId, &different]() -> CallbackGen::Puller {
      bool done = false;
      return [consumerId, &different, done]() mutable -> std::optional<Value> {
        if (done) return std::nullopt;
        done = true;
        different = std::this_thread::get_id() != consumerId;
        return Value::integer(1);
      };
    });
  });
  ASSERT_TRUE(pipe->activate().has_value());
  EXPECT_TRUE(different.load()) << "the piped expression runs on a pool thread";
}

TEST(PipeBasics, SecondConsumerThreadRaises803) {
  // The producer holds its first value until released, so a consumer
  // that claims the pipe waits inside its activation. The main thread
  // probes with short timed activations (a timeout leaves the pipe
  // re-activatable and takes nothing) until one meets that consumer.
  std::latch release(1);
  auto pipe = Pipe::create([&]() -> GenPtr {
    return CallbackGen::create([&]() -> CallbackGen::Puller {
      int n = 0;
      return [&, n]() mutable -> std::optional<Value> {
        if (n == 0) release.wait();
        if (++n > 2) return std::nullopt;
        return Value::integer(n);
      };
    });
  });
  std::optional<Value> first;
  std::thread consumer([&] {
    for (;;) {
      try {
        first = pipe->activate();
        return;
      } catch (const IconError& e) {
        ASSERT_EQ(e.number(), 803);  // met a probe: claim again
      }
    }
  });
  int number = 0;
  while (number == 0) {
    try {
      EXPECT_FALSE(
          pipe->activateUntil(std::chrono::steady_clock::now() + std::chrono::milliseconds(1)));
    } catch (const IconError& e) {
      number = e.number();
    }
  }
  EXPECT_EQ(number, 803);
  release.count_down();
  consumer.join();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->smallInt(), 1);
  EXPECT_EQ(pipe->activate()->smallInt(), 2) << "the other thread may consume in turn";
  EXPECT_FALSE(pipe->activate().has_value());
}

TEST(PipeThrottle, CapacityBoundsProduction) {
  std::atomic<int> produced{0};
  auto pipe = Pipe::create(
      [&produced]() -> GenPtr {
        return CallbackGen::create([&produced]() -> CallbackGen::Puller {
          int n = 0;
          return [&produced, n]() mutable -> std::optional<Value> {
            if (n >= 1000) return std::nullopt;
            ++produced;
            return Value::integer(++n);
          };
        });
      },
      /*capacity=*/4);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_LE(produced.load(), 6) << "bounded queue throttles the producer (Section III.B)";
  while (pipe->activate()) {
  }
  EXPECT_EQ(produced.load(), 1000);
}

TEST(PipeAbandon, DroppingThePipeDoesNotDeadlockTheProducer) {
  std::atomic<bool> producerExited{false};
  {
    auto pipe = Pipe::create(
        [&producerExited]() -> GenPtr {
          return CallbackGen::create([&producerExited]() -> CallbackGen::Puller {
            return [&producerExited]() -> std::optional<Value> {
              // Infinite supply: only queue-close can stop us. Flag exit
              // through a destructor-ordered sentinel below instead.
              return Value::integer(1);
            };
          });
        },
        /*capacity=*/2);
    ASSERT_TRUE(pipe->activate().has_value());
    // pipe destroyed here with the producer blocked on put().
  }
  // If close() did not release the producer, the pool thread would stay
  // blocked; give it a moment and verify the pool can still run work.
  std::atomic<bool> ran{false};
  ThreadPool::global().submit([&ran] { ran = true; });
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (!ran.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(ran.load());
  (void)producerExited;
}

TEST(PipeError, ProducerExceptionRethrownAtConsumer) {
  auto pipe = Pipe::create([]() -> GenPtr {
    return CallbackGen::create([]() -> CallbackGen::Puller {
      return []() -> std::optional<Value> { throw errDivisionByZero(); };
    });
  });
  EXPECT_THROW(pipe->activate(), IconError) << "run-time errors cross the thread boundary";
}

TEST(PipeRefresh, RefreshedPipeRestartsFromScratch) {
  std::atomic<int> builds{0};
  auto factory = [&builds]() -> GenPtr {
    ++builds;
    return test::range(1, 3);
  };
  auto pipe = Pipe::create(factory);
  EXPECT_EQ(pipe->activate()->smallInt(), 1);
  auto fresh = rcStaticCast<Pipe>(pipe->refreshed());
  EXPECT_EQ(fresh->activate()->smallInt(), 1) << "^pipe starts over";
  EXPECT_GE(builds.load(), 2);
}

TEST(PipeEnvironment, SnapshotTakenAtCreation) {
  // The data race the paper's shadowing exists to prevent: mutate the
  // local right after creating the pipe; the pipe must see the old value.
  auto x = CellVar::create(Value::integer(10));
  GenFactory factory = [snapshot = CellVar::create(x->get())]() -> GenPtr {
    return VarGen::create(snapshot);
  };
  // shadowEnv-style: the snapshot cell above was filled at factory
  // *construction*; Pipe builds the body eagerly in its constructor.
  auto pipe = Pipe::create(factory);
  x->set(Value::integer(999));
  EXPECT_EQ(pipe->activate()->smallInt(), 10);
}

TEST(PipeChain, TwoStagePipeline) {
  // |> (x*2) over |> (1..50): chained pipes, order preserved end to end.
  auto stage1 = Pipe::create([] { return test::range(1, 50); });
  auto stage2 = Pipe::create([stage1]() -> GenPtr {
    return makeBinaryOpGen(
        "*", PromoteGen::create(ConstGen::create(Value::coexpr(stage1))), test::ci(2));
  });
  std::vector<std::int64_t> got;
  while (auto v = stage2->activate()) got.push_back(v->requireInt64());
  ASSERT_EQ(got.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], 2 * (i + 1));
}

TEST(PipeQueueExposure, PublicQueueAllowsExtraManipulation) {
  // "The output blocking queue ... is exposed as a public field to
  // permit further manipulation."
  auto pipe = Pipe::create([] { return test::range(1, 3); }, 8);
  EXPECT_EQ(pipe->queue().capacity(), 8u);
}

TEST(PipeCapacity, ZeroMeansTheDefault) {
  auto pipe = Pipe::create([] { return test::range(1, 3); }, 0);
  EXPECT_EQ(pipe->queue().capacity(), Pipe::kDefaultCapacity) << "0 is not unbounded";
}

TEST(PipeCapacity, OversizedRequestClampsToTheMaximum) {
  auto pipe = Pipe::create([] { return test::range(1, 3); }, Pipe::kMaxCapacity + 1);
  EXPECT_EQ(pipe->queue().capacity(), Pipe::kMaxCapacity);
}

TEST(PipeCapacity, PipeDepthBudgetClampsBelowBoth) {
  governor::Limits limits;
  limits.maxPipeDepth = 8;
  governor::ScopedGovernor governed(governor::ResourceGovernor::create(limits));
  auto byDefault = Pipe::create([] { return test::range(1, 3); }, 0);
  auto oversized = Pipe::create([] { return test::range(1, 3); }, Pipe::kMaxCapacity + 1);
  EXPECT_EQ(byDefault->queue().capacity(), 8u);
  EXPECT_EQ(oversized->queue().capacity(), 8u);
}

/// Yields this thread's &error credit, then its &subject.
GenPtr keywordProbe() {
  return CallbackGen::create([]() -> CallbackGen::Puller {
    int step = 0;
    return [step]() mutable -> std::optional<Value> {
      switch (step++) {
        case 0: return Value::integer(ErrorEnv::current().credit);
        case 1: return ScanEnv::current().subject;
        default: return std::nullopt;
      }
    };
  });
}

TEST(PipeKeywords, ProducerStartsFromFreshKeywordState) {
  // One worker, so both producers run on the same pool thread. The
  // first leaves &error credit and a &subject behind; the second must
  // see neither.
  ThreadPool pool(/*maxThreads=*/1);
  auto first = Pipe::create(
      []() -> GenPtr {
        return CallbackGen::create([]() -> CallbackGen::Puller {
          return []() -> std::optional<Value> {
            ErrorEnv::current().credit = 1000000;
            ScanEnv::current().subject = Value::string("tenant-A-secret");
            return std::nullopt;
          };
        });
      },
      4, pool);
  EXPECT_FALSE(first->activate().has_value());
  // The worker must be idle again before the capped pool takes more.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (pool.tasksCompleted() < 1 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto second = Pipe::create(keywordProbe, 4, pool);
  EXPECT_EQ(second->activate()->requireInt64(), 0) << "&error credit leaked between producers";
  EXPECT_EQ(second->activate()->requireString("&subject"), "")
      << "&subject leaked between producers";
  EXPECT_EQ(ErrorEnv::current().credit, 0);
}

TEST(FutureTest, SingletonPipeIsAFuture) {
  FutureValue future([]() -> GenPtr {
    return CallbackGen::create([]() -> CallbackGen::Puller {
      bool done = false;
      return [done]() mutable -> std::optional<Value> {
        if (done) return std::nullopt;
        done = true;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return Value::integer(7);
      };
    });
  });
  EXPECT_EQ(future.get()->smallInt(), 7) << "get blocks until the value is computed";
  EXPECT_EQ(future.get()->smallInt(), 7) << "get is idempotent";
}

TEST(FutureTest, FailedExpressionYieldsEmptyFuture) {
  FutureValue future([]() -> GenPtr { return FailGen::create(); });
  EXPECT_FALSE(future.get().has_value());
}

TEST(PipeKernelNode, MakePipeCreateGenYieldsPipeValue) {
  auto node = makePipeCreateGen([] { return test::range(5, 6); }, 4);
  auto v = node->nextValue();
  ASSERT_TRUE(v && v->isCoExpr());
  EXPECT_EQ(v->coExpr()->activate()->smallInt(), 5);
}

TEST(PipeBatching, MailboxStaysUnbatched) {
  // Capacity 1 is the future/M-var: the batch cap clamps to 1, so values
  // cross one at a time and the producer runs at most capacity + 1 = 2
  // values ahead of the consumer.
  std::atomic<int> produced{0};
  auto counted = Pipe::create(
      [&produced]() -> GenPtr {
        return CallbackGen::create([&produced]() -> CallbackGen::Puller {
          int n = 0;
          return [&produced, n]() mutable -> std::optional<Value> {
            if (n >= 50) return std::nullopt;
            ++produced;
            return Value::integer(++n);
          };
        });
      },
      /*capacity=*/1);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_LE(produced.load(), 2) << "before the first activation";
  for (int k = 1; k <= 5; ++k) {
    EXPECT_EQ(counted->activate()->requireInt64(), k);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_LE(produced.load(), k + 2) << "after " << k << " activations";
  }
  while (counted->activate()) {
  }
  EXPECT_EQ(produced.load(), 50);

  auto mailbox = Pipe::create([] { return test::range(1, 3); }, /*capacity=*/1);
  std::vector<std::int64_t> got;
  while (auto v = mailbox->activate()) got.push_back(v->requireInt64());
  EXPECT_EQ(got, (std::vector<std::int64_t>{1, 2, 3}));
}

TEST(PipeBatching, BatchedStreamPreservesOrderAndCompleteness) {
  // Small queue + large stream: the adaptive accumulator grows and
  // shrinks across the run; the observable stream must be untouched.
  auto pipe = Pipe::create([] { return test::range(1, 500); }, /*capacity=*/4);
  std::int64_t expect = 1;
  while (auto v = pipe->activate()) EXPECT_EQ(v->requireInt64(), expect++);
  EXPECT_EQ(expect, 501);
  EXPECT_FALSE(pipe->activate().has_value()) << "exhausted pipe stays exhausted";
}

TEST(PipeBatching, ValuesProducedBeforeAnErrorStillArriveFirst) {
  // Every value produced before the body throws arrives before the
  // error: the producer flushes its buffered prefix before the error
  // crosses the thread boundary.
  auto pipe = Pipe::create(
      []() -> GenPtr {
        return CallbackGen::create([]() -> CallbackGen::Puller {
          int n = 0;
          return [n]() mutable -> std::optional<Value> {
            if (n >= 5) throw errDivisionByZero();
            return Value::integer(++n);
          };
        });
      },
      /*capacity=*/64);
  std::vector<std::int64_t> got;
  try {
    while (auto v = pipe->activate()) got.push_back(v->requireInt64());
    FAIL() << "the producer's error must reach the consumer";
  } catch (const IconError&) {
  }
  EXPECT_EQ(got, (std::vector<std::int64_t>{1, 2, 3, 4, 5}))
      << "batching dropped or reordered values delivered before the error";
}

TEST(PipeStress, ManyConcurrentPipes) {
  std::vector<Rc<Pipe>> pipes;
  pipes.reserve(16);
  for (int p = 0; p < 16; ++p) {
    pipes.push_back(Pipe::create([p]() -> GenPtr { return test::range(p * 100, p * 100 + 99); },
                                 /*capacity=*/8));
  }
  for (int p = 0; p < 16; ++p) {
    std::int64_t count = 0;
    while (auto v = pipes[static_cast<std::size_t>(p)]->activate()) {
      EXPECT_EQ(v->requireInt64(), p * 100 + count);
      ++count;
    }
    EXPECT_EQ(count, 100);
  }
}

}  // namespace
}  // namespace congen
