// cancel_stress_test.cpp — the cancellation subsystem under contention
// and injected faults: cancel-vs-put, cancel-vs-takeUpTo, deadline
// expiry racing a batch flush, and a cancelled chain of pipes. Delay
// jitter at the queue, pool and CancelSignal fault sites stretches
// exactly the windows these races live in.
#include "concur/cancel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "../testutil.hpp"
#include "concur/fault_injection.hpp"
#include "concur/pipe.hpp"
#include "concur/spsc_ring.hpp"
#include "stress_util.hpp"

namespace congen {
namespace {

using namespace std::chrono_literals;
using stress::eventually;
using testing::FaultInjector;
using testing::FaultSite;
using testing::ScopedFaultInjection;
using testing::SitePolicy;

#define REQUIRE_FAULT_HOOKS()                                               \
  if (!FaultInjector::compiledIn()) {                                       \
    GTEST_SKIP() << "built without CONGEN_FAULT_INJECTION — nothing to do"; \
  }

/// Arm delay-only jitter at every site (failures stay off) so the
/// cancel/wait windows get stretched at random points.
void armDelays() {
  FaultInjector::instance().arm(stress::seed(),
                                SitePolicy{/*delayPerMille=*/200, /*maxDelayMicros=*/150,
                                           /*failPerMille=*/0});
}

/// putAll of a one-element batch.
QueueOpStatus putOne(SpscRing<int>& q, int v, const CancelToken& token) {
  std::vector<int> batch{v};
  std::size_t accepted = 0;
  return q.putAll(batch, accepted, token);
}

TEST(CancelStress, CancelRacesBlockedPut) {
  const int rounds = 200 * stress::scale();
  const bool hooks = FaultInjector::compiledIn();
  if (hooks) armDelays();
  for (int i = 0; i < rounds; ++i) {
    SpscRing<int> q(1);
    StopSource s;
    ASSERT_EQ(putOne(q, 0, s.token()), QueueOpStatus::kOk);  // full
    std::atomic<int> done{0};
    std::thread producer([&] {
      // Blocked put racing the cancel below: the only acceptable
      // outcomes are kCancelled (cancel won) — never a hang.
      EXPECT_EQ(putOne(q, 1, s.token()), QueueOpStatus::kCancelled);
      ++done;
    });
    if (i % 2 == 0) std::this_thread::yield();
    s.requestStop();
    producer.join();
    EXPECT_EQ(done.load(), 1);
    EXPECT_EQ(q.size(), 1u);
  }
  if (hooks) FaultInjector::instance().disarm();
}

TEST(CancelStress, CancelRacesTakeUpTo) {
  const int rounds = 200 * stress::scale();
  const bool hooks = FaultInjector::compiledIn();
  if (hooks) armDelays();
  for (int i = 0; i < rounds; ++i) {
    SpscRing<int> q(8);
    StopSource s;
    // Half the rounds leave elements buffered: a cancelled consumer
    // must abandon them (kCancelled beats element transfer).
    const bool buffered = i % 2 == 0;
    if (buffered) {
      ASSERT_EQ(putOne(q, 7, CancelToken{}), QueueOpStatus::kOk);
    }
    std::thread consumer([&] {
      std::vector<int> out;
      const auto status = q.takeUpTo(out, 4, s.token());
      if (status == QueueOpStatus::kOk) {
        // The take won the race before the cancel landed.
        EXPECT_FALSE(out.empty());
      } else {
        EXPECT_EQ(status, QueueOpStatus::kCancelled);
        EXPECT_TRUE(out.empty());
      }
    });
    if (i % 3 == 0) std::this_thread::yield();
    s.requestStop();
    consumer.join();
  }
  if (hooks) FaultInjector::instance().disarm();
}

TEST(CancelStress, DeadlineExpiryRacesBatchFlush) {
  // A batched pipe keeps flushing while the consumer uses deadlines so
  // short they constantly expire mid-flush. Timed-out activations must
  // never finish the pipe: every produced value is eventually seen
  // exactly once, in order.
  const int rounds = 20 * stress::scale();
  const bool hooks = FaultInjector::compiledIn();
  if (hooks) armDelays();
  for (int r = 0; r < rounds; ++r) {
    ThreadPool pool;
    constexpr std::int64_t kCount = 300;
    auto pipe = Pipe::create([] { return test::range(1, kCount); },
                             /*capacity=*/8, pool);
    std::int64_t expect = 1;
    int timeouts = 0;
    while (expect <= kCount) {
      auto v = pipe->activateUntil(std::chrono::steady_clock::now() + 200us);
      if (!v) {
        ++timeouts;
        ASSERT_LT(timeouts, 2000000) << "livelock: value " << expect << " never arrived";
        continue;
      }
      ASSERT_EQ(v->requireInt64(), expect) << "deadline expiry must not drop or reorder";
      ++expect;
    }
    EXPECT_FALSE(pipe->activate().has_value()) << "stream ends cleanly after the last value";
  }
  if (hooks) FaultInjector::instance().disarm();
}

TEST(CancelStress, FourStageChainCancelUnderJitter) {
  const int rounds = 30 * stress::scale();
  const bool hooks = FaultInjector::compiledIn();
  if (hooks) armDelays();
  for (int r = 0; r < rounds; ++r) {
    ThreadPool pool;
    auto infinite = []() -> GenPtr {
      return CallbackGen::create([]() -> CallbackGen::Puller {
        std::int64_t i = 0;
        return [i]() mutable -> std::optional<Value> { return Value::integer(++i); };
      });
    };
    auto p1 = Pipe::create(infinite, 2, pool);
    auto p2 = Pipe::create(
        [p1]() -> GenPtr { return PromoteGen::create(ConstGen::create(Value::coexpr(p1))); }, 2,
        pool);
    auto p3 = Pipe::create(
        [p2]() -> GenPtr { return PromoteGen::create(ConstGen::create(Value::coexpr(p2))); }, 2,
        pool);
    auto p4 = Pipe::create(
        [p3]() -> GenPtr { return PromoteGen::create(ConstGen::create(Value::coexpr(p3))); }, 2,
        pool);
    p1->cancelWith(p2->cancelToken());
    p2->cancelWith(p3->cancelToken());
    p3->cancelWith(p4->cancelToken());
    // Vary the cut point: sometimes cancel while queues are filling,
    // sometimes after a consumed prefix, sometimes at full backpressure.
    if (r % 3 == 1) {
      for (int k = 0; k < 5; ++k) p4->activate();
    } else if (r % 3 == 2) {
      ASSERT_TRUE(eventually([&] { return p4->queue().size() >= 2; }));
    }
    p4->cancel();
    pool.shutdown();  // hangs the test (TIMEOUT 300) if any producer stays blocked
    EXPECT_EQ(pool.tasksCompleted(), 4u) << "round " << r;
    EXPECT_TRUE(p1->queue().closed());
    EXPECT_TRUE(p4->queue().closed());
  }
  if (hooks) FaultInjector::instance().disarm();
}

TEST(CancelStress, NewFaultSitesAreHit) {
  REQUIRE_FAULT_HOOKS();
  ScopedFaultInjection arm(stress::seed(), SitePolicy{});  // observe only
  SpscRing<int> q(2);
  StopSource s;
  std::thread producer([&] {
    for (int i = 0; i < 8; ++i) {
      if (putOne(q, i, s.token()) != QueueOpStatus::kOk) return;
    }
  });
  std::this_thread::sleep_for(10ms);
  s.requestStop();
  producer.join();
  auto& inj = FaultInjector::instance();
  EXPECT_GT(inj.hits(FaultSite::QueuePutAll), 0u) << "the cancellable put hit its entry site";
  EXPECT_GT(inj.hits(FaultSite::CancelSignal), 0u) << "requestStop hit the cancel site";
}

}  // namespace
}  // namespace congen
