// cancel_test.cpp — structured cancellation, deadlines, and failure
// containment (cancel.hpp, the ring's cancellable ops, and the pipe layer).
#include "concur/cancel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "../testutil.hpp"
#include "concur/pipe.hpp"
#include "concur/spsc_ring.hpp"
#include "par/pipeline.hpp"
#include "runtime/error.hpp"

namespace congen {
namespace {

using namespace std::chrono_literals;

QueueDeadline after(std::chrono::milliseconds d) {
  return std::chrono::steady_clock::now() + d;
}

/// Generator yielding 1..n, then throwing the given Icon error.
GenPtr throwingAfter(int n, int errNumber) {
  return CallbackGen::create([n, errNumber]() -> CallbackGen::Puller {
    int i = 0;
    return [i, n, errNumber]() mutable -> std::optional<Value> {
      if (i >= n) throw IconError(errNumber, "synthetic");
      return Value::integer(++i);
    };
  });
}

/// Infinite integer supply.
GenPtr infinite() {
  return CallbackGen::create([]() -> CallbackGen::Puller {
    std::int64_t i = 0;
    return [i]() mutable -> std::optional<Value> { return Value::integer(++i); };
  });
}

// ---------------------------------------------------------------------
// Token / source / callback semantics
// ---------------------------------------------------------------------

TEST(CancelToken, DetachedTokenNeverCancels) {
  CancelToken t;
  EXPECT_FALSE(t.canBeCancelled());
  EXPECT_FALSE(t.cancelled());
}

TEST(StopSource, RequestStopIsIdempotentAndObserved) {
  StopSource s;
  auto t = s.token();
  EXPECT_TRUE(t.canBeCancelled());
  EXPECT_FALSE(t.cancelled());
  EXPECT_TRUE(s.requestStop()) << "first call performs the transition";
  EXPECT_FALSE(s.requestStop()) << "second call is a no-op";
  EXPECT_TRUE(t.cancelled());
  EXPECT_TRUE(s.stopRequested());
}

TEST(CancelCallback, InvokedOnRequestStop) {
  StopSource s;
  std::atomic<int> fired{0};
  CancelCallback cb(s.token(), [&] { ++fired; });
  EXPECT_EQ(fired.load(), 0);
  s.requestStop();
  EXPECT_EQ(fired.load(), 1);
  s.requestStop();
  EXPECT_EQ(fired.load(), 1) << "callbacks fire once";
}

TEST(CancelCallback, NotInvokedWhenRegisteringOnCancelledToken) {
  // The register/cancel race is closed by the *callers* re-checking
  // cancelled() after registration — running the callback inline here
  // would self-deadlock a caller that registers under its own lock.
  StopSource s;
  s.requestStop();
  std::atomic<int> fired{0};
  CancelCallback cb(s.token(), [&] { ++fired; });
  EXPECT_EQ(fired.load(), 0);
}

TEST(CancelCallback, UnregisteredCallbackNeverFires) {
  StopSource s;
  std::atomic<int> fired{0};
  { CancelCallback cb(s.token(), [&] { ++fired; }); }
  s.requestStop();
  EXPECT_EQ(fired.load(), 0);
}

TEST(StopSource, LinkToCascadesParentCancel) {
  StopSource parent;
  StopSource child;
  child.linkTo(parent.token());
  EXPECT_FALSE(child.stopRequested());
  parent.requestStop();
  EXPECT_TRUE(child.stopRequested()) << "parent cancel reaches linked child synchronously";
}

TEST(StopSource, LinkToAlreadyCancelledParentCancelsNow) {
  StopSource parent;
  parent.requestStop();
  StopSource child;
  child.linkTo(parent.token());
  EXPECT_TRUE(child.stopRequested());
}

TEST(CancelScope, AmbientTokenNestsAndRestores) {
  EXPECT_FALSE(CancelScope::current().canBeCancelled());
  StopSource outer;
  {
    CancelScope a(outer.token());
    EXPECT_TRUE(CancelScope::current().canBeCancelled());
    StopSource inner;
    inner.requestStop();
    {
      CancelScope b(inner.token());
      EXPECT_TRUE(CancelScope::current().cancelled());
    }
    EXPECT_FALSE(CancelScope::current().cancelled()) << "outer scope restored";
  }
  EXPECT_FALSE(CancelScope::current().canBeCancelled());
}

// ---------------------------------------------------------------------
// Cancellable / deadline-bounded queue operations
// ---------------------------------------------------------------------

/// putAll of a one-element batch.
QueueOpStatus putOne(SpscRing<int>& q, int v, const CancelToken& token,
                     QueueDeadline deadline = {}) {
  std::vector<int> batch{v};
  std::size_t accepted = 0;
  return q.putAll(batch, accepted, token, deadline);
}

TEST(QueueFor, FastPathsMatchPlainOperations) {
  SpscRing<int> q(4);
  StopSource s;
  const auto t = s.token();
  EXPECT_EQ(putOne(q, 1, t), QueueOpStatus::kOk);
  std::vector<int> out;
  EXPECT_EQ(q.takeUpTo(out, 1, t), QueueOpStatus::kOk);
  EXPECT_EQ(out, (std::vector<int>{1}));
  q.close();
  EXPECT_EQ(putOne(q, 2, t), QueueOpStatus::kClosed);
  EXPECT_EQ(q.takeUpTo(out, 1, t), QueueOpStatus::kClosed);
  EXPECT_TRUE(out.empty());
}

TEST(QueueFor, DeadlineExpiryReturnsTimedOut) {
  SpscRing<int> q(1);
  StopSource s;
  EXPECT_EQ(putOne(q, 1, s.token()), QueueOpStatus::kOk);
  EXPECT_EQ(putOne(q, 2, s.token(), after(30ms)), QueueOpStatus::kTimedOut) << "queue full";
  std::vector<int> out;
  EXPECT_EQ(q.takeUpTo(out, 1, s.token()), QueueOpStatus::kOk);
  EXPECT_EQ(q.takeUpTo(out, 1, s.token(), after(30ms)), QueueOpStatus::kTimedOut)
      << "queue empty";
  EXPECT_EQ(q.takeUpTo(out, 8, s.token(), after(30ms)), QueueOpStatus::kTimedOut);
}

TEST(QueueFor, CancelWakesBlockedPutWithinOneOperation) {
  SpscRing<int> q(1);
  StopSource s;
  ASSERT_EQ(putOne(q, 1, s.token()), QueueOpStatus::kOk);  // now full
  std::atomic<bool> returned{false};
  std::thread producer([&] {
    EXPECT_EQ(putOne(q, 2, s.token()), QueueOpStatus::kCancelled);
    returned = true;
  });
  std::this_thread::sleep_for(20ms);  // let it block
  EXPECT_FALSE(returned.load());
  s.requestStop();
  producer.join();
  EXPECT_TRUE(returned.load());
  EXPECT_EQ(q.size(), 1u) << "cancelled put publishes nothing";
}

TEST(QueueFor, CancelWakesBlockedTake) {
  SpscRing<int> q(4);
  StopSource s;
  std::thread consumer([&] {
    std::vector<int> out;
    EXPECT_EQ(q.takeUpTo(out, 1, s.token()), QueueOpStatus::kCancelled);
    EXPECT_TRUE(out.empty());
  });
  std::this_thread::sleep_for(20ms);
  s.requestStop();
  consumer.join();
}

TEST(QueueFor, CancelledTakeSkipsBufferedElements) {
  // Precedence: kCancelled beats element transfer. Cancellation is
  // abandonment — a cancelled consumer must not consume.
  SpscRing<int> q(4);
  StopSource s;
  ASSERT_EQ(putOne(q, 7, s.token()), QueueOpStatus::kOk);
  s.requestStop();
  std::vector<int> out;
  EXPECT_EQ(q.takeUpTo(out, 1, s.token()), QueueOpStatus::kCancelled);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(q.takeUpTo(out, 4, s.token()), QueueOpStatus::kCancelled);
  EXPECT_TRUE(out.empty());
}

TEST(QueueFor, ClosedQueueStillDrains) {
  SpscRing<int> q(4);
  StopSource s;
  ASSERT_EQ(putOne(q, 7, s.token()), QueueOpStatus::kOk);
  q.close();
  std::vector<int> out;
  EXPECT_EQ(q.takeUpTo(out, 1, s.token()), QueueOpStatus::kOk)
      << "close is end-of-stream, not abandonment";
  EXPECT_EQ(out, (std::vector<int>{7}));
  EXPECT_EQ(q.takeUpTo(out, 1, s.token()), QueueOpStatus::kClosed);
}

TEST(QueueFor, PutAllForReportsAcceptedPrefixOnCancel) {
  SpscRing<int> q(2);
  StopSource s;
  std::vector<int> batch{1, 2, 3, 4};
  std::size_t accepted = 0;
  std::thread canceller([&] {
    std::this_thread::sleep_for(30ms);
    s.requestStop();
  });
  const auto status = q.putAll(batch, accepted, s.token());
  canceller.join();
  EXPECT_EQ(status, QueueOpStatus::kCancelled);
  EXPECT_EQ(accepted, 2u) << "prefix up to capacity was published";
  EXPECT_EQ(batch.size(), 2u) << "accepted prefix erased, suffix kept";
}

TEST(QueueFor, DetachedTokenWorksWithDeadlines) {
  SpscRing<int> q(1);
  ASSERT_EQ(putOne(q, 1, CancelToken{}), QueueOpStatus::kOk);
  EXPECT_EQ(putOne(q, 2, CancelToken{}, after(30ms)), QueueOpStatus::kTimedOut);
}

// ---------------------------------------------------------------------
// Pipe cancellation and deadlines
// ---------------------------------------------------------------------

TEST(PipeCancel, CancelUnblocksProducerOnFullQueue) {
  ThreadPool pool;
  auto pipe = Pipe::create([] { return infinite(); }, /*capacity=*/2, pool);
  // Wait until the producer has filled the queue and is blocked in put.
  while (pipe->queue().size() < 2) std::this_thread::sleep_for(1ms);
  pipe->cancel();
  // The producer must return within one queue operation: its task
  // completes and closes the queue without anyone draining it.
  pool.shutdown();
  EXPECT_EQ(pool.tasksCompleted(), 1u);
  EXPECT_TRUE(pipe->queue().closed());
  EXPECT_FALSE(pipe->activate().has_value()) << "cancelled pipe fails, not blocks";
  EXPECT_FALSE(pipe->activate().has_value()) << "and stays failed";
}

TEST(PipeCancel, FourStageChainUnblocksEveryProducer) {
  // The acceptance scenario: a 4-stage chain, every queue full, cancel
  // only the most-downstream pipe — all four producers must return.
  ThreadPool pool;
  auto p1 = Pipe::create([] { return infinite(); }, 2, pool);
  auto p2 = Pipe::create([p1]() -> GenPtr { return PromoteGen::create(ConstGen::create(Value::coexpr(p1))); },
                         2, pool);
  auto p3 = Pipe::create([p2]() -> GenPtr { return PromoteGen::create(ConstGen::create(Value::coexpr(p2))); },
                         2, pool);
  auto p4 = Pipe::create([p3]() -> GenPtr { return PromoteGen::create(ConstGen::create(Value::coexpr(p3))); },
                         2, pool);
  p1->cancelWith(p2->cancelToken());
  p2->cancelWith(p3->cancelToken());
  p3->cancelWith(p4->cancelToken());
  // Let every stage fill: all four queues at capacity, all four
  // producers blocked in a put.
  while (p1->queue().size() < 2 || p2->queue().size() < 2 || p3->queue().size() < 2 ||
         p4->queue().size() < 2) {
    std::this_thread::sleep_for(1ms);
  }
  p4->cancel();
  pool.shutdown();  // joins all workers: hangs (and times out) if any producer stayed blocked
  EXPECT_EQ(pool.tasksCompleted(), 4u);
  EXPECT_TRUE(p1->queue().closed());
  EXPECT_TRUE(p2->queue().closed());
  EXPECT_TRUE(p3->queue().closed());
  EXPECT_TRUE(p4->queue().closed());
}

TEST(PipeCancel, PipelineBuildCancellableStopsAllStages) {
  Pipeline pl(/*pipeCapacity=*/2);
  auto built = pl.buildCancellable([] { return infinite(); });
  ASSERT_TRUE(built.gen->nextValue().has_value()) << "pipeline streams before cancel";
  built.stop.requestStop();
  // After the cancel, the source pipe's producer exits and closes its
  // queue; the consumer-visible stream ends (possibly after buffered
  // values drain).
  int remaining = 0;
  while (built.gen->nextValue()) ++remaining;
  EXPECT_LE(remaining, 4) << "only the already-buffered prefix may still arrive";
}

TEST(PipeDeadline, ActivateUntilTimesOutAndStaysReactivatable) {
  ThreadPool pool;
  auto gate = std::make_shared<SpscRing<Value>>(4);
  // Producer forwards whatever the gate supplies — controllable latency.
  auto pipe = Pipe::create(
      [gate]() -> GenPtr {
        return CallbackGen::create([gate]() -> CallbackGen::Puller {
          return [gate]() -> std::optional<Value> {
            std::vector<Value> out;
            if (gate->takeUpTo(out, 1) != QueueOpStatus::kOk) return std::nullopt;
            return out.front();
          };
        });
      },
      4, pool);
  EXPECT_FALSE(pipe->activateUntil(std::chrono::steady_clock::now() + 30ms).has_value())
      << "no value within the deadline: fail";
  std::vector<Value> batch{Value::integer(42)};
  std::size_t accepted = 0;
  gate->putAll(batch, accepted);
  auto v = pipe->activate();
  ASSERT_TRUE(v.has_value()) << "a timed-out pipe is NOT finished";
  EXPECT_EQ(v->requireInt64(), 42);
  gate->close();
  EXPECT_FALSE(pipe->activate().has_value());
}

TEST(CoExpr, BaseActivateUntilIgnoresDeadline) {
  // A plain co-expression computes on the caller's thread; the deadline
  // bounds waiting, and the base class never waits.
  auto c = CoExpression::create([] { return test::range(1, 3); });
  auto v = c->activateUntil(std::chrono::steady_clock::now() - 1h);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->requireInt64(), 1);
}

// ---------------------------------------------------------------------
// Failure containment
// ---------------------------------------------------------------------

TEST(PipeError, DeliveredPrefixThenErrorThenDeterministicFailure) {
  ThreadPool pool;
  auto pipe = Pipe::create([] { return throwingAfter(3, 201); }, 16, pool);
  EXPECT_EQ(pipe->activate()->requireInt64(), 1);
  EXPECT_EQ(pipe->activate()->requireInt64(), 2);
  EXPECT_EQ(pipe->activate()->requireInt64(), 3);
  try {
    pipe->activate();
    FAIL() << "expected IconError 201";
  } catch (const IconError& e) {
    EXPECT_EQ(e.number(), 201);
  }
  // Satellite regression: an activation after the consumed error is a
  // plain deterministic failure — it never blocks, never re-throws.
  EXPECT_FALSE(pipe->activate().has_value());
  EXPECT_FALSE(pipe->activate().has_value());
}

TEST(PipeError, NonIconProducerExceptionWrappedAsStageFailed) {
  ThreadPool pool;
  auto pipe = Pipe::create(
      []() -> GenPtr {
        return CallbackGen::create([]() -> CallbackGen::Puller {
          return []() -> std::optional<Value> { throw std::runtime_error("boom"); };
        });
      },
      4, pool);
  try {
    pipe->activate();
    FAIL() << "expected IconError 801";
  } catch (const IconError& e) {
    EXPECT_EQ(e.number(), 801);
    EXPECT_NE(e.message().find("boom"), std::string::npos) << "original cause preserved";
  }
}

TEST(PipeError, ErroringStageCancelsLinkedUpstream) {
  ThreadPool pool;
  auto upstream = Pipe::create([] { return infinite(); }, 2, pool);
  auto failing = Pipe::create(
      []() -> GenPtr {
        return CallbackGen::create([]() -> CallbackGen::Puller {
          return []() -> std::optional<Value> { throw errDivisionByZero(); };
        });
      },
      2, pool);
  upstream->cancelWith(failing->cancelToken());
  EXPECT_THROW(failing->activate(), IconError);
  // The consumer may be woken mid-cascade (its wakeup callback runs
  // before the upstream link's), so poll rather than assert instantly.
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (!upstream->cancelRequested() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_TRUE(upstream->cancelRequested()) << "stage error cascades to its producers";
  pool.shutdown();  // both producers must have exited
  EXPECT_EQ(pool.tasksCompleted(), 2u);
}

TEST(FutureError, GetRethrowsOnEveryCall) {
  FutureValue fut([]() -> GenPtr {
    return CallbackGen::create([]() -> CallbackGen::Puller {
      return []() -> std::optional<Value> { throw errDivisionByZero(); };
    });
  });
  for (int i = 0; i < 3; ++i) {
    try {
      fut.get();
      FAIL() << "expected IconError on call " << i;
    } catch (const IconError& e) {
      EXPECT_EQ(e.number(), 201) << "same error every time, never a silent failure";
    }
  }
}

TEST(FutureError, FailureIsNotAnError) {
  FutureValue fut([]() -> GenPtr { return FailGen::create(); });
  EXPECT_FALSE(fut.get().has_value());
  EXPECT_FALSE(fut.get().has_value());
}

TEST(PipeDump, DumpAllReportsLivePipes) {
  ThreadPool pool;
  auto pipe = Pipe::create([] { return test::range(1, 4); }, 8, pool);
  while (!pipe->queue().closed()) std::this_thread::sleep_for(1ms);
  std::ostringstream os;
  Pipe::dumpAll(os);
  const std::string dump = os.str();
  EXPECT_NE(dump.find("live pipes"), std::string::npos);
  EXPECT_NE(dump.find("closed=1"), std::string::npos);
}

}  // namespace
}  // namespace congen
