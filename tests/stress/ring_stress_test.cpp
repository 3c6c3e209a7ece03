// ring_stress_test.cpp — concurrency torture for the lock-free SPSC
// pipe transport (SpscRing). Everything here runs with metrics enabled
// (conservation_env.cpp rides in this binary), so beyond the per-test
// assertions the global teardown proves no element was ever lost or
// double-counted across the whole process — the invariant a lock-free
// transport is most likely to break and sanitizers are blind to.
//
// Named SpscRingStress.* on purpose: CI's flake-hunt and asan repeat
// passes select the new lock-free paths with -R 'SpscRing|Steal'.
#include "concur/spsc_ring.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "concur/cancel.hpp"
#include "concur/fault_injection.hpp"
#include "stress_util.hpp"

namespace congen {
namespace {

using namespace std::chrono_literals;

using Ring = SpscRing<std::int64_t>;

// One-element hand-offs through the ring's two bulk ops.
QueueOpStatus putOne(Ring& ring, std::int64_t v, const CancelToken& token = {},
                     QueueDeadline deadline = {}) {
  std::vector<std::int64_t> batch{v};
  std::size_t accepted = 0;
  return ring.putAll(batch, accepted, token, deadline);
}

std::optional<std::int64_t> takeOne(Ring& ring) {
  std::vector<std::int64_t> out;
  if (ring.takeUpTo(out, 1) != QueueOpStatus::kOk) return std::nullopt;
  return out.front();
}

/// One producer thread, one consumer thread, batches of mixed sizes
/// (one-element hand-offs among them) chosen by a deterministic
/// per-index pattern. Returns the consumer's
/// element count; the caller asserts totals, the global Environment
/// asserts conservation.
std::int64_t runTorture(std::size_t capacity, int items, int seedSalt) {
  Ring ring(capacity);
  const std::uint64_t seed = stress::seed() + static_cast<std::uint64_t>(seedSalt);
  std::thread producer([&] {
    std::int64_t next = 0;
    std::size_t accepted = 0;
    while (next < items) {
      // Pattern: mostly flushes of varying size, one-element puts mixed in.
      const auto pick = (seed + static_cast<std::uint64_t>(next)) % 7;
      if (pick == 0) {
        ASSERT_EQ(putOne(ring, next), QueueOpStatus::kOk);
        ++next;
      } else {
        std::vector<std::int64_t> batch;
        const std::int64_t n = std::min<std::int64_t>(1 + static_cast<std::int64_t>(pick) * 3,
                                                      items - next);
        for (std::int64_t i = 0; i < n; ++i) batch.push_back(next + i);
        next += n;
        ASSERT_EQ(ring.putAll(batch, accepted), QueueOpStatus::kOk);
        ASSERT_TRUE(batch.empty());
      }
    }
    ring.close();
  });
  std::int64_t expect = 0;
  std::vector<std::int64_t> got;
  for (;;) {
    const auto pick = (seed ^ static_cast<std::uint64_t>(expect)) % 5;
    // pick 0 takes one element at a time.
    const std::size_t max = pick == 0 ? 1 : 1 + pick * 7;
    if (ring.takeUpTo(got, max) != QueueOpStatus::kOk) break;
    for (auto v : got) EXPECT_EQ(v, expect++);
  }
  producer.join();
  return expect;
}

TEST(SpscRingStress, ConservationTortureMixedOps) {
  const int items = 30000 * stress::scale();
  EXPECT_EQ(runTorture(/*capacity=*/16, items, 1), items);
}

TEST(SpscRingStress, ConservationTortureTinyRing) {
  // Capacity 1 maximizes park/wake churn: every element is a rendezvous.
  const int items = 5000 * stress::scale();
  EXPECT_EQ(runTorture(/*capacity=*/1, items, 2), items);
}

TEST(SpscRingStress, ConservationTortureWideRing) {
  const int items = 30000 * stress::scale();
  EXPECT_EQ(runTorture(/*capacity=*/1024, items, 3), items);
}

TEST(SpscRingStress, CancelVsParkRace) {
  // The classic lost-wakeup shape: a consumer parking on an empty ring
  // races a cancel from another thread. The register-then-recheck
  // protocol must never strand the consumer, whichever side wins.
  const int rounds = 300 * stress::scale();
  for (int r = 0; r < rounds; ++r) {
    Ring ring(2);
    StopSource source;
    std::atomic<int> status{-1};
    std::thread consumer([&] {
      std::vector<std::int64_t> out;
      status = static_cast<int>(ring.takeUpTo(out, 1, source.token()));
    });
    // Vary the cancel's timing across rounds to sample interleavings on
    // both sides of the park.
    if (r % 3 == 1) std::this_thread::yield();
    if (r % 3 == 2) std::this_thread::sleep_for(std::chrono::microseconds(200));
    source.requestStop();
    consumer.join();
    EXPECT_EQ(status.load(), static_cast<int>(QueueOpStatus::kCancelled));
  }
}

TEST(SpscRingStress, CancelVsParkRaceProducerSide) {
  const int rounds = 300 * stress::scale();
  for (int r = 0; r < rounds; ++r) {
    Ring ring(1);
    ASSERT_EQ(putOne(ring, 0), QueueOpStatus::kOk);
    StopSource source;
    std::atomic<int> status{-1};
    std::thread producer([&] { status = static_cast<int>(putOne(ring, 1, source.token())); });
    if (r % 3 == 1) std::this_thread::yield();
    if (r % 3 == 2) std::this_thread::sleep_for(std::chrono::microseconds(200));
    source.requestStop();
    producer.join();
    EXPECT_EQ(status.load(), static_cast<int>(QueueOpStatus::kCancelled));
  }
}

TEST(SpscRingStress, CloseWhileFullNeverLosesTheDrain) {
  // close() racing a full ring + parked producer: the consumer must see
  // every element accepted before the close, then end-of-stream; the
  // producer must unblock promptly.
  const int rounds = 200 * stress::scale();
  for (int r = 0; r < rounds; ++r) {
    Ring ring(4);
    std::atomic<std::int64_t> accepted{0};
    std::thread producer([&] {
      std::int64_t n = 0;
      while (putOne(ring, n) == QueueOpStatus::kOk) {
        accepted.fetch_add(1, std::memory_order_relaxed);
        ++n;
      }
    });
    std::thread closer([&] {
      std::this_thread::sleep_for(std::chrono::microseconds(50 + (r % 7) * 37));
      ring.close();
    });
    producer.join();
    closer.join();
    // Drain everything that was accepted; order must be intact.
    std::int64_t expect = 0;
    while (auto v = takeOne(ring)) EXPECT_EQ(*v, expect++);
    EXPECT_EQ(expect, accepted.load());
  }
}

// close() is the one op any thread may call (a pipe closes its ring from
// both ends): racing closers stay idempotent and the buffer still drains.
TEST(QueueStress, CloseRacesCloseIdempotently) {
  const int rounds = 100 * stress::scale();
  for (int round = 0; round < rounds; ++round) {
    Ring q(2);
    putOne(q, 1);
    stress::onThreads(4, [&](int) { q.close(); });
    EXPECT_TRUE(q.closed());
    EXPECT_EQ(takeOne(q), 1);
    EXPECT_FALSE(takeOne(q).has_value());
  }
}

TEST(SpscRingStress, TimedOpsUnderLoad) {
  // Deadlines expire and succeed interleaved with real traffic; a
  // kTimedOut must never consume or publish an element.
  const int items = 4000 * stress::scale();
  Ring ring(8);
  std::thread producer([&] {
    std::int64_t next = 0;
    while (next < items) {
      const auto status = putOne(
          ring, next, CancelToken{},
          QueueDeadline{std::chrono::steady_clock::now() + std::chrono::microseconds(200)});
      if (status == QueueOpStatus::kOk) {
        ++next;
      } else {
        ASSERT_EQ(status, QueueOpStatus::kTimedOut);
      }
    }
    ring.close();
  });
  std::int64_t expect = 0;
  std::vector<std::int64_t> out;
  for (;;) {
    const auto status = ring.takeUpTo(
        out, 1, CancelToken{},
        QueueDeadline{std::chrono::steady_clock::now() + std::chrono::microseconds(300)});
    if (status == QueueOpStatus::kOk) {
      EXPECT_EQ(out.front(), expect++);
    } else if (status == QueueOpStatus::kClosed) {
      break;
    } else {
      ASSERT_EQ(status, QueueOpStatus::kTimedOut);
    }
  }
  producer.join();
  EXPECT_EQ(expect, items);
}

TEST(SpscRingStress, AbandonedElementsAreAccountedAsDropped) {
  // A cancelled consumer walks away from a part-full ring; the ring's
  // destructor must book the remainder as dropped_on_close or the global
  // conservation check at teardown fails.
  const int rounds = 100 * stress::scale();
  for (int r = 0; r < rounds; ++r) {
    Ring ring(16);
    for (std::int64_t i = 0; i < 10; ++i) ASSERT_EQ(putOne(ring, i), QueueOpStatus::kOk);
    for (std::int64_t i = 0; i < r % 10; ++i) ASSERT_TRUE(takeOne(ring).has_value());
    ring.close();
    // Destructor runs here with 10 - r%10 elements still buffered.
  }
}

TEST(SpscRingStress, FaultInjectionShakesTheParkProtocol) {
  if (!testing::FaultInjector::compiledIn()) {
    GTEST_SKIP() << "fault hooks not compiled in (CONGEN_FAULT_INJECTION off)";
  }
  // Delay-only policy at every queue site: stretches the windows between
  // load-seq / set-parked / recheck / wait so the fence pairing is
  // actually exercised rather than won by timing luck. QueuePutAll is a
  // failure-capable site, so the producer also absorbs thrown faults —
  // a failed put publishes nothing, which conservation checks.
  testing::SitePolicy policy;
  policy.delayPerMille = 80;
  policy.maxDelayMicros = 300;
  policy.failPerMille = 20;
  testing::ScopedFaultInjection arm(stress::seed(), policy);
  const int items = 3000 * stress::scale();
  Ring ring(4);
  std::thread producer([&] {
    std::int64_t next = 0;
    while (next < items) {
      try {
        if (putOne(ring, next) != QueueOpStatus::kOk) break;
        ++next;
      } catch (const testing::InjectedFault&) {
        // Injected before the publish: retry the same element.
      }
    }
    ring.close();
  });
  std::int64_t expect = 0;
  while (auto v = takeOne(ring)) EXPECT_EQ(*v, expect++);
  producer.join();
  EXPECT_EQ(expect, items);
}

}  // namespace
}  // namespace congen
