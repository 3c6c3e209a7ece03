// spsc_ring_test.cpp — the lock-free SPSC pipe transport.
//
// Single-threaded tests exercise the index arithmetic (wrap-around,
// exact capacity, close/drain ordering); two-thread tests pin down the
// blocking contract of the pipe's channel — QueueOpStatus precedence,
// timed expiry, and the register-then-recheck cancel path. The Queue*
// suites are the channel contract of Section III.B (put/take, bulk,
// try, close), one producer and one consumer at a time.
#include "concur/spsc_ring.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "concur/cancel.hpp"

namespace congen {
namespace {

using namespace std::chrono_literals;

QueueDeadline after(std::chrono::milliseconds d) {
  return QueueDeadline{std::chrono::steady_clock::now() + d};
}

TEST(SpscRingBasics, FifoOrderAndExhaustion) {
  SpscRing<int> ring(8);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(ring.tryPut(i));
  EXPECT_EQ(ring.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    auto v = ring.tryTake();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(ring.tryTake().has_value());
  EXPECT_EQ(ring.size(), 0u);
}

TEST(SpscRingBasics, ExactCapacityEvenWhenRoundedToPow2) {
  // Capacity 5 rounds the slot array to 8, but the bound stays 5: a
  // bounded pipe must throttle at its requested capacity exactly.
  SpscRing<int> ring(5);
  EXPECT_EQ(ring.capacity(), 5u);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(ring.tryPut(i));
  EXPECT_FALSE(ring.tryPut(99)) << "slot 6 exists but the bound is 5";
  EXPECT_EQ(ring.size(), 5u);
}

TEST(SpscRingWrap, IndicesWrapAcrossTheMaskBoundary) {
  // A capacity-3 ring (4 slots) cycled many times: every element must
  // cross the mask wrap intact and in order.
  SpscRing<int> ring(3);
  int next = 0;
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(ring.tryPut(next + i));
    for (int i = 0; i < 3; ++i) {
      auto v = ring.tryTake();
      ASSERT_TRUE(v.has_value());
      EXPECT_EQ(*v, next + i);
    }
    next += 3;
  }
}

TEST(SpscRingWrap, BulkOpsWrapAcrossTheMaskBoundary) {
  SpscRing<int> ring(4);
  int next = 0;
  for (int round = 0; round < 50; ++round) {
    std::vector<int> batch{next, next + 1, next + 2};
    EXPECT_EQ(ring.putAll(batch), 3u);
    EXPECT_TRUE(batch.empty()) << "accepted prefix is erased";
    const auto got = ring.takeUpTo(8);
    ASSERT_EQ(got.size(), 3u);
    for (int i = 0; i < 3; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], next + i);
    next += 3;
  }
}

TEST(SpscRingWrap, CapacityOneMailbox) {
  // The future/mailbox shape: every transfer crosses the wrap.
  SpscRing<int> ring(1);
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(ring.tryPut(i));
    EXPECT_FALSE(ring.tryPut(i)) << "capacity 1 is full after one put";
    auto v = ring.tryTake();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
}

TEST(SpscRingClose, FullRingDrainsAfterClose) {
  SpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(ring.tryPut(i));
  ring.close();
  EXPECT_FALSE(ring.tryPut(99)) << "closed ring rejects new elements";
  for (int i = 0; i < 4; ++i) {
    auto v = ring.take();
    ASSERT_TRUE(v.has_value()) << "elements published before close() survive it";
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(ring.take().has_value()) << "then end-of-stream";
}

TEST(SpscRingClose, CloseUnblocksAParkedConsumer) {
  SpscRing<int> ring(4);
  std::atomic<bool> gotEnd{false};
  std::thread consumer([&] {
    EXPECT_FALSE(ring.take().has_value());
    gotEnd = true;
  });
  std::this_thread::sleep_for(20ms);  // let it park
  ring.close();
  consumer.join();
  EXPECT_TRUE(gotEnd.load());
}

TEST(SpscRingClose, CloseUnblocksAParkedProducerMidBatch) {
  SpscRing<int> ring(2);
  ASSERT_TRUE(ring.tryPut(0));
  ASSERT_TRUE(ring.tryPut(1));
  std::atomic<std::size_t> accepted{~std::size_t{0}};
  std::thread producer([&] {
    std::vector<int> batch{2, 3, 4};
    accepted = ring.putAll(batch);  // parks: ring is full
    EXPECT_EQ(batch.size(), 3u - accepted.load()) << "unaccepted suffix stays in the batch";
  });
  std::this_thread::sleep_for(20ms);
  ring.close();
  producer.join();
  EXPECT_LT(accepted.load(), 3u) << "close interrupted the bulk publication";
  // Whatever was accepted before the close is still deliverable.
  std::size_t drained = 0;
  while (ring.take()) ++drained;
  EXPECT_EQ(drained, 2u + accepted.load());
}

TEST(SpscRingTimed, TakeForExpiresOnEmpty) {
  SpscRing<int> ring(4);
  std::optional<int> out;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(ring.takeFor(out, CancelToken{}, after(30ms)), QueueOpStatus::kTimedOut);
  EXPECT_GE(std::chrono::steady_clock::now() - t0, 25ms);
  EXPECT_FALSE(out.has_value());
  // Expiry does not poison the ring: a later element still flows.
  ASSERT_TRUE(ring.tryPut(7));
  EXPECT_EQ(ring.takeFor(out, CancelToken{}, after(1000ms)), QueueOpStatus::kOk);
  EXPECT_EQ(out, 7);
}

TEST(SpscRingTimed, PutForExpiresOnFull) {
  SpscRing<int> ring(1);
  ASSERT_TRUE(ring.tryPut(1));
  EXPECT_EQ(ring.putFor(2, CancelToken{}, after(30ms)), QueueOpStatus::kTimedOut);
  EXPECT_EQ(ring.size(), 1u) << "a timed-out put publishes nothing";
  ASSERT_TRUE(ring.tryTake().has_value());
  EXPECT_EQ(ring.putFor(2, CancelToken{}, after(1000ms)), QueueOpStatus::kOk);
}

TEST(SpscRingTimed, ElementBeatsDeadline) {
  // Precedence: a transfer that is possible happens, even with an
  // already-expired deadline.
  SpscRing<int> ring(4);
  ASSERT_TRUE(ring.tryPut(5));
  std::optional<int> out;
  EXPECT_EQ(ring.takeFor(out, CancelToken{}, after(-10ms)), QueueOpStatus::kOk);
  EXPECT_EQ(out, 5);
}

TEST(SpscRingCancel, CancelledBeatsEverything) {
  // kCancelled > transfer > kClosed: the full precedence order.
  SpscRing<int> ring(4);
  ASSERT_TRUE(ring.tryPut(1));
  ring.close();
  StopSource source;
  source.requestStop();
  std::optional<int> out;
  EXPECT_EQ(ring.takeFor(out, source.token(), {}), QueueOpStatus::kCancelled);
  EXPECT_FALSE(out.has_value());
  EXPECT_EQ(ring.putFor(9, source.token(), {}), QueueOpStatus::kCancelled);
}

TEST(SpscRingCancel, ClosedBeatsTimedOut) {
  SpscRing<int> ring(4);
  ring.close();
  std::optional<int> out;
  EXPECT_EQ(ring.takeFor(out, CancelToken{}, after(-10ms)), QueueOpStatus::kClosed);
}

TEST(SpscRingCancel, CancelUnparksABlockedConsumer) {
  // The register-then-recheck race: the consumer must observe a cancel
  // that lands at any point relative to its park, never deadlocking.
  // Many short rounds to sample different interleavings.
  for (int round = 0; round < 50; ++round) {
    SpscRing<int> ring(2);
    StopSource source;
    std::atomic<bool> done{false};
    std::thread consumer([&] {
      std::optional<int> out;
      EXPECT_EQ(ring.takeFor(out, source.token(), {}), QueueOpStatus::kCancelled);
      done = true;
    });
    if (round % 2 == 0) std::this_thread::sleep_for(1ms);  // likely parked
    source.requestStop();
    consumer.join();
    EXPECT_TRUE(done.load());
  }
}

TEST(SpscRingCancel, CancelUnparksABlockedProducer) {
  for (int round = 0; round < 50; ++round) {
    SpscRing<int> ring(1);
    ASSERT_TRUE(ring.tryPut(0));
    StopSource source;
    std::thread producer([&] {
      EXPECT_EQ(ring.putFor(1, source.token(), {}), QueueOpStatus::kCancelled);
    });
    if (round % 2 == 0) std::this_thread::sleep_for(1ms);
    source.requestStop();
    producer.join();
    EXPECT_EQ(ring.size(), 1u);
  }
}

TEST(SpscRingHandoff, BlockingHandoffAcrossThreads) {
  // The real pipe shape: one producer thread, one consumer thread, a
  // ring far smaller than the stream, so both sides park and wake
  // repeatedly (and every element crosses the wrap many times).
  constexpr int kItems = 20000;
  SpscRing<int> ring(8);
  std::thread producer([&] {
    for (int i = 0; i < kItems; ++i) ASSERT_TRUE(ring.put(i));
    ring.close();
  });
  long long sum = 0;
  int count = 0;
  while (auto v = ring.take()) {
    EXPECT_EQ(*v, count);
    sum += *v;
    ++count;
  }
  producer.join();
  EXPECT_EQ(count, kItems);
  EXPECT_EQ(sum, static_cast<long long>(kItems) * (kItems - 1) / 2);
}

TEST(SpscRingHandoff, BulkHandoffAcrossThreads) {
  constexpr int kItems = 20000;
  SpscRing<int> ring(64);
  std::thread producer([&] {
    int next = 0;
    while (next < kItems) {
      std::vector<int> batch;
      for (int i = 0; i < 17 && next + i < kItems; ++i) batch.push_back(next + i);
      next += static_cast<int>(batch.size());
      while (!batch.empty()) ring.putAll(batch);
    }
    ring.close();
  });
  int expect = 0;
  for (;;) {
    const auto got = ring.takeUpTo(32);
    if (got.empty()) break;
    for (int v : got) EXPECT_EQ(v, expect++);
  }
  producer.join();
  EXPECT_EQ(expect, kItems);
}

// ---- the channel contract: put/take, bulk, try, close ----------------

TEST(QueueBasics, FifoOrder) {
  SpscRing<int> q(4);
  q.put(1);
  q.put(2);
  q.put(3);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.take(), 1);
  EXPECT_EQ(q.take(), 2);
  EXPECT_EQ(q.take(), 3);
}

TEST(QueueBasics, TryOperations) {
  SpscRing<int> q(2);
  EXPECT_FALSE(q.tryTake().has_value()) << "empty tryTake fails without blocking";
  EXPECT_TRUE(q.tryPut(1));
  EXPECT_TRUE(q.tryPut(2));
  EXPECT_FALSE(q.tryPut(3)) << "full tryPut fails without blocking";
  EXPECT_EQ(q.tryTake(), 1);
  EXPECT_TRUE(q.tryPut(3));
}

TEST(QueueBasics, TryPutAfterCloseFails) {
  SpscRing<int> q(4);
  EXPECT_TRUE(q.tryPut(1));
  q.close();
  EXPECT_FALSE(q.tryPut(2)) << "closed tryPut is refused even with room";
  EXPECT_EQ(q.size(), 1u) << "the refused element was not half-enqueued";
}

TEST(QueueBasics, TryTakeDrainsAfterClose) {
  SpscRing<int> q(4);
  q.put(1);
  q.put(2);
  q.close();
  EXPECT_EQ(q.tryTake(), 1) << "buffered elements survive close via the try-API too";
  EXPECT_EQ(q.tryTake(), 2);
  EXPECT_FALSE(q.tryTake().has_value());
  EXPECT_FALSE(q.tryTake().has_value()) << "drained + closed stays failed";
}

TEST(QueueBasics, TryOpsOnMailbox) {
  // Capacity 1: tryPut toggles between accepted and refused as the slot
  // fills and empties — the non-blocking view of the M-var.
  SpscRing<int> mailbox(1);
  EXPECT_TRUE(mailbox.tryPut(1));
  EXPECT_FALSE(mailbox.tryPut(2)) << "occupied mailbox refuses";
  EXPECT_EQ(mailbox.tryTake(), 1);
  EXPECT_FALSE(mailbox.tryTake().has_value());
  EXPECT_TRUE(mailbox.tryPut(3)) << "slot reusable after tryTake";
  EXPECT_EQ(mailbox.take(), 3);
}

TEST(QueueBasics, TryPutReleasesBlockedTaker) {
  // A tryPut must wake a blocked take() just like put() does.
  SpscRing<int> q(1);
  std::atomic<bool> got{false};
  std::thread consumer([&] {
    EXPECT_EQ(q.take(), 7);
    got = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_TRUE(q.tryPut(7));
  consumer.join();
  EXPECT_TRUE(got.load());
}

TEST(QueueBasics, TryTakeReleasesBlockedPutter) {
  // Symmetric: a tryTake on a full queue must wake a blocked put().
  SpscRing<int> q(1);
  ASSERT_TRUE(q.put(1));
  std::atomic<bool> done{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.put(2));
    done = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(q.tryTake(), 1);
  producer.join();
  EXPECT_TRUE(done.load());
  EXPECT_EQ(q.take(), 2);
}

TEST(QueueBulk, PutAllDeliversInOrderAndConsumesTheBatch) {
  SpscRing<int> q(4);
  std::vector<int> batch{1, 2, 3, 4};
  EXPECT_EQ(q.putAll(batch), 4u);
  EXPECT_TRUE(batch.empty()) << "accepted elements are erased from the batch";
  for (int i = 1; i <= 4; ++i) EXPECT_EQ(q.take(), i);
}

TEST(QueueBulk, PutAllEmptyBatchIsANoOp) {
  SpscRing<int> q(1);
  std::vector<int> batch;
  EXPECT_EQ(q.putAll(batch), 0u);
  EXPECT_EQ(q.size(), 0u);
}

TEST(QueueBulk, PutAllAfterCloseAcceptsNothingAndKeepsTheBatch) {
  SpscRing<int> q(4);
  q.close();
  std::vector<int> batch{1, 2, 3};
  EXPECT_EQ(q.putAll(batch), 0u);
  EXPECT_EQ(batch, (std::vector<int>{1, 2, 3})) << "the refused batch is left intact";
}

TEST(QueueBulk, PutAllBlockedAtCapacityAcceptsPrefixOnClose) {
  // A putAll that outgrows the bound parks; close mid-batch must release
  // it with the accepted prefix erased and the unaccepted suffix still
  // in the caller's hands.
  SpscRing<int> q(2);
  std::vector<int> batch{1, 2, 3, 4, 5};
  std::atomic<std::size_t> accepted{99};
  std::thread producer([&] { accepted = q.putAll(batch); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(q.size(), 2u) << "the prefix filled the queue to its bound";
  q.close();
  producer.join();
  EXPECT_EQ(accepted.load(), 2u);
  EXPECT_EQ(batch, (std::vector<int>{3, 4, 5})) << "unaccepted suffix survives the close";
  EXPECT_EQ(q.take(), 1);
  EXPECT_EQ(q.take(), 2);
  EXPECT_FALSE(q.take().has_value());
}

TEST(QueueBulk, TakeUpToTakesAtMostMaxInFifoOrder) {
  SpscRing<int> q(8);
  for (int i = 1; i <= 5; ++i) q.put(i);
  EXPECT_EQ(q.takeUpTo(3), (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.takeUpTo(10), (std::vector<int>{4, 5})) << "takeUpTo never blocks for more";
}

TEST(QueueBulk, TakeUpToZeroReturnsEmptyWithoutBlocking) {
  SpscRing<int> q(4);
  EXPECT_TRUE(q.takeUpTo(0).empty());
  q.put(1);
  EXPECT_TRUE(q.takeUpTo(0).empty());
  EXPECT_EQ(q.size(), 1u);
}

TEST(QueueBulk, TakeUpToBlocksUntilTheFirstElement) {
  SpscRing<int> q(4);
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    q.put(42);
  });
  EXPECT_EQ(q.takeUpTo(8), (std::vector<int>{42})) << "blocks like take(), returns what is there";
  producer.join();
}

TEST(QueueBulk, TakeUpToEmptyMeansClosedAndDrained) {
  SpscRing<int> q(4);
  q.put(1);
  q.close();
  EXPECT_EQ(q.takeUpTo(8), (std::vector<int>{1})) << "buffered elements survive close";
  EXPECT_TRUE(q.takeUpTo(8).empty()) << "empty result is the bulk poison pill";
}

TEST(QueueBulk, WaitingConsumersCountsBlockedTakers) {
  SpscRing<int> q(4);
  EXPECT_EQ(q.waitingConsumers(), 0u);
  std::thread consumer([&] { EXPECT_EQ(q.take(), 5); });
  while (q.waitingConsumers() == 0) std::this_thread::yield();
  EXPECT_EQ(q.waitingConsumers(), 1u);
  q.put(5);
  consumer.join();
  EXPECT_EQ(q.waitingConsumers(), 0u);
}

TEST(QueueClose, TakeDrainsThenFails) {
  SpscRing<int> q(4);
  q.put(1);
  q.put(2);
  q.close();
  EXPECT_EQ(q.take(), 1) << "buffered elements survive close";
  EXPECT_EQ(q.take(), 2);
  EXPECT_FALSE(q.take().has_value()) << "drained + closed = failure";
  EXPECT_FALSE(q.put(9)) << "put after close is refused";
}

TEST(QueueClose, ReleasesBlockedConsumer) {
  SpscRing<int> q(4);
  std::atomic<bool> released{false};
  std::thread consumer([&] {
    EXPECT_FALSE(q.take().has_value());
    released = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(released.load());
  q.close();
  consumer.join();
  EXPECT_TRUE(released.load());
}

TEST(QueueClose, ReleasesBlockedProducer) {
  SpscRing<int> q(1);
  q.put(0);  // now full
  std::atomic<bool> released{false};
  std::thread producer([&] {
    EXPECT_FALSE(q.put(1)) << "blocked put returns false on close";
    released = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(released.load());
  q.close();
  producer.join();
  EXPECT_TRUE(released.load());
}

TEST(QueueCapacity, BoundThrottlesProducer) {
  SpscRing<int> q(4);
  std::atomic<int> produced{0};
  std::thread producer([&] {
    for (int i = 0; i < 100; ++i) {
      if (!q.put(i)) return;
      produced = i + 1;
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_LE(produced.load(), 5) << "producer cannot run ahead of the bound";
  for (int i = 0; i < 100; ++i) EXPECT_EQ(q.take(), i);
  producer.join();
}

class QueueConcurrencyProperty : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(QueueConcurrencyProperty, AllElementsDeliveredExactlyOnce) {
  const auto [producers, capacity] = GetParam();
  constexpr int kPerProducer = 500;
  SpscRing<int> q(static_cast<std::size_t>(capacity));

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(producers));
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) q.put(p * kPerProducer + i);
    });
  }
  std::vector<int> got;
  std::thread consumer([&] {
    for (int i = 0; i < producers * kPerProducer; ++i) got.push_back(*q.take());
  });
  for (auto& t : threads) t.join();
  consumer.join();

  ASSERT_EQ(got.size(), static_cast<std::size_t>(producers * kPerProducer));
  std::sort(got.begin(), got.end());
  for (int i = 0; i < producers * kPerProducer; ++i) {
    ASSERT_EQ(got[static_cast<std::size_t>(i)], i) << "element lost or duplicated";
  }
}

// One producer: the ring's contract (several producers need a lock).
INSTANTIATE_TEST_SUITE_P(Shapes, QueueConcurrencyProperty,
                         ::testing::Values(std::make_pair(1, 1), std::make_pair(1, 16)));

TEST(QueueSingleSlot, ActsAsMailbox) {
  // Capacity 1 = the future / M-var of Section III.B.
  SpscRing<int> mailbox(1);
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    mailbox.put(42);
  });
  EXPECT_EQ(mailbox.take(), 42) << "take blocks until defined";
  producer.join();
}

}  // namespace
}  // namespace congen
