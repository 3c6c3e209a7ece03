// spsc_ring_test.cpp — the lock-free SPSC pipe transport.
//
// Single-threaded tests exercise the index arithmetic (wrap-around,
// exact capacity, close/drain ordering); two-thread tests pin down the
// blocking contract of the pipe's channel — QueueOpStatus precedence,
// timed expiry, and the register-then-recheck cancel path. The Queue*
// suites are the channel contract of Section III.B (one-element and
// bulk hand-offs, non-blocking attempts via a past deadline, close),
// one producer and one consumer at a time, all through the ring's one
// put (putAll) and one take (takeUpTo).
#include "concur/spsc_ring.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <thread>
#include <vector>

#include "concur/cancel.hpp"

namespace congen {
namespace {

using namespace std::chrono_literals;

QueueDeadline after(std::chrono::milliseconds d) {
  return QueueDeadline{std::chrono::steady_clock::now() + d};
}

/// A deadline that has already passed: the ring's ops then never block,
/// which is how these tests make a non-blocking attempt.
QueueDeadline past() { return after(-1ms); }

// One-element hand-offs through the ring's two bulk ops.
QueueOpStatus putOne(SpscRing<int>& q, int v, const CancelToken& token = {},
                     QueueDeadline deadline = {}) {
  std::vector<int> batch{v};
  std::size_t accepted = 0;
  return q.putAll(batch, accepted, token, deadline);
}

std::optional<int> takeOne(SpscRing<int>& q, QueueDeadline deadline = {}) {
  std::vector<int> out;
  if (q.takeUpTo(out, 1, {}, deadline) != QueueOpStatus::kOk) return std::nullopt;
  return out.front();
}

constexpr QueueOpStatus kOk = QueueOpStatus::kOk;

TEST(SpscRingBasics, FifoOrderAndExhaustion) {
  SpscRing<int> ring(8);
  for (int i = 0; i < 5; ++i) ASSERT_EQ(putOne(ring, i, {}, past()), kOk);
  EXPECT_EQ(ring.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    auto v = takeOne(ring, past());
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(takeOne(ring, past()).has_value());
  EXPECT_EQ(ring.size(), 0u);
}

TEST(SpscRingBasics, ExactCapacityEvenWhenRoundedToPow2) {
  // Capacity 5 rounds the slot array to 8, but the bound stays 5: a
  // bounded pipe must throttle at its requested capacity exactly.
  SpscRing<int> ring(5);
  EXPECT_EQ(ring.capacity(), 5u);
  for (int i = 0; i < 5; ++i) ASSERT_EQ(putOne(ring, i, {}, past()), kOk);
  EXPECT_EQ(putOne(ring, 99, {}, past()), QueueOpStatus::kTimedOut)
      << "slot 6 exists but the bound is 5";
  EXPECT_EQ(ring.size(), 5u);
}

TEST(SpscRingWrap, IndicesWrapAcrossTheMaskBoundary) {
  // A capacity-3 ring (4 slots) cycled many times: every element must
  // cross the mask wrap intact and in order.
  SpscRing<int> ring(3);
  int next = 0;
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 3; ++i) ASSERT_EQ(putOne(ring, next + i, {}, past()), kOk);
    for (int i = 0; i < 3; ++i) {
      auto v = takeOne(ring, past());
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
    std::size_t accepted = 0;
    EXPECT_EQ(ring.putAll(batch, accepted), kOk);
    EXPECT_EQ(accepted, 3u);
    EXPECT_TRUE(batch.empty()) << "accepted prefix is erased";
    std::vector<int> got;
    ASSERT_EQ(ring.takeUpTo(got, 8), kOk);
    ASSERT_EQ(got.size(), 3u);
    for (int i = 0; i < 3; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], next + i);
    next += 3;
  }
}

TEST(SpscRingWrap, CapacityOneMailbox) {
  // The future/mailbox shape: every transfer crosses the wrap.
  SpscRing<int> ring(1);
  for (int i = 0; i < 64; ++i) {
    ASSERT_EQ(putOne(ring, i, {}, past()), kOk);
    EXPECT_EQ(putOne(ring, i, {}, past()), QueueOpStatus::kTimedOut)
        << "capacity 1 is full after one put";
    auto v = takeOne(ring, past());
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
}

TEST(SpscRingClose, FullRingDrainsAfterClose) {
  SpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) ASSERT_EQ(putOne(ring, i, {}, past()), kOk);
  ring.close();
  EXPECT_EQ(putOne(ring, 99, {}, past()), QueueOpStatus::kClosed)
      << "closed ring rejects new elements";
  for (int i = 0; i < 4; ++i) {
    auto v = takeOne(ring);
    ASSERT_TRUE(v.has_value()) << "elements published before close() survive it";
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(takeOne(ring).has_value()) << "then end-of-stream";
}

TEST(SpscRingClose, CloseUnblocksAParkedConsumer) {
  SpscRing<int> ring(4);
  std::atomic<bool> gotEnd{false};
  std::thread consumer([&] {
    EXPECT_FALSE(takeOne(ring).has_value());
    gotEnd = true;
  });
  std::this_thread::sleep_for(20ms);  // let it park
  ring.close();
  consumer.join();
  EXPECT_TRUE(gotEnd.load());
}

TEST(SpscRingClose, CloseUnblocksAParkedProducerMidBatch) {
  SpscRing<int> ring(2);
  ASSERT_EQ(putOne(ring, 0), kOk);
  ASSERT_EQ(putOne(ring, 1), kOk);
  std::atomic<std::size_t> accepted{~std::size_t{0}};
  std::thread producer([&] {
    std::vector<int> batch{2, 3, 4};
    std::size_t n = 0;
    EXPECT_EQ(ring.putAll(batch, n), QueueOpStatus::kClosed);  // parks: ring is full
    accepted = n;
    EXPECT_EQ(batch.size(), 3u - n) << "unaccepted suffix stays in the batch";
  });
  std::this_thread::sleep_for(20ms);
  ring.close();
  producer.join();
  EXPECT_LT(accepted.load(), 3u) << "close interrupted the bulk publication";
  // Whatever was accepted before the close is still deliverable.
  std::size_t drained = 0;
  while (takeOne(ring)) ++drained;
  EXPECT_EQ(drained, 2u + accepted.load());
}

TEST(SpscRingTimed, TakeForExpiresOnEmpty) {
  SpscRing<int> ring(4);
  std::vector<int> out;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(ring.takeUpTo(out, 1, {}, after(30ms)), QueueOpStatus::kTimedOut);
  EXPECT_GE(std::chrono::steady_clock::now() - t0, 25ms);
  EXPECT_TRUE(out.empty());
  // Expiry does not poison the ring: a later element still flows.
  ASSERT_EQ(putOne(ring, 7, {}, past()), kOk);
  EXPECT_EQ(ring.takeUpTo(out, 1, {}, after(1000ms)), kOk);
  EXPECT_EQ(out, (std::vector<int>{7}));
}

TEST(SpscRingTimed, PutForExpiresOnFull) {
  SpscRing<int> ring(1);
  ASSERT_EQ(putOne(ring, 1, {}, past()), kOk);
  EXPECT_EQ(putOne(ring, 2, {}, after(30ms)), QueueOpStatus::kTimedOut);
  EXPECT_EQ(ring.size(), 1u) << "a timed-out put publishes nothing";
  ASSERT_TRUE(takeOne(ring, past()).has_value());
  EXPECT_EQ(putOne(ring, 2, {}, after(1000ms)), kOk);
}

TEST(SpscRingTimed, ElementBeatsDeadline) {
  // Precedence: a transfer that is possible happens, even with an
  // already-expired deadline.
  SpscRing<int> ring(4);
  ASSERT_EQ(putOne(ring, 5, {}, past()), kOk);
  std::vector<int> out;
  EXPECT_EQ(ring.takeUpTo(out, 1, {}, after(-10ms)), kOk);
  EXPECT_EQ(out, (std::vector<int>{5}));
}

TEST(SpscRingCancel, CancelledBeatsEverything) {
  // kCancelled > transfer > kClosed: the full precedence order.
  SpscRing<int> ring(4);
  ASSERT_EQ(putOne(ring, 1, {}, past()), kOk);
  ring.close();
  StopSource source;
  source.requestStop();
  std::vector<int> out;
  EXPECT_EQ(ring.takeUpTo(out, 1, source.token()), QueueOpStatus::kCancelled);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(putOne(ring, 9, source.token()), QueueOpStatus::kCancelled);
}

TEST(SpscRingCancel, ClosedBeatsTimedOut) {
  SpscRing<int> ring(4);
  ring.close();
  std::vector<int> out;
  EXPECT_EQ(ring.takeUpTo(out, 1, {}, after(-10ms)), QueueOpStatus::kClosed);
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
      std::vector<int> out;
      EXPECT_EQ(ring.takeUpTo(out, 1, source.token()), QueueOpStatus::kCancelled);
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
    ASSERT_EQ(putOne(ring, 0, {}, past()), kOk);
    StopSource source;
    std::thread producer(
        [&] { EXPECT_EQ(putOne(ring, 1, source.token()), QueueOpStatus::kCancelled); });
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
    for (int i = 0; i < kItems; ++i) ASSERT_EQ(putOne(ring, i), kOk);
    ring.close();
  });
  long long sum = 0;
  int count = 0;
  while (auto v = takeOne(ring)) {
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
    std::size_t accepted = 0;
    while (next < kItems) {
      std::vector<int> batch;
      for (int i = 0; i < 17 && next + i < kItems; ++i) batch.push_back(next + i);
      next += static_cast<int>(batch.size());
      while (!batch.empty()) ring.putAll(batch, accepted);
    }
    ring.close();
  });
  int expect = 0;
  std::vector<int> got;
  while (ring.takeUpTo(got, 32) == kOk) {
    for (int v : got) EXPECT_EQ(v, expect++);
  }
  producer.join();
  EXPECT_EQ(expect, kItems);
}

// ---- the channel contract: put/take, bulk, non-blocking, close -------

TEST(QueueBasics, FifoOrder) {
  SpscRing<int> q(4);
  putOne(q, 1);
  putOne(q, 2);
  putOne(q, 3);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(takeOne(q), 1);
  EXPECT_EQ(takeOne(q), 2);
  EXPECT_EQ(takeOne(q), 3);
}

TEST(QueueBasics, TryOperations) {
  SpscRing<int> q(2);
  EXPECT_FALSE(takeOne(q, past()).has_value()) << "empty take with a past deadline fails";
  EXPECT_EQ(putOne(q, 1, {}, past()), kOk);
  EXPECT_EQ(putOne(q, 2, {}, past()), kOk);
  EXPECT_EQ(putOne(q, 3, {}, past()), QueueOpStatus::kTimedOut)
      << "full put with a past deadline fails";
  EXPECT_EQ(takeOne(q, past()), 1);
  EXPECT_EQ(putOne(q, 3, {}, past()), kOk);
}

TEST(QueueBasics, TryPutAfterCloseFails) {
  SpscRing<int> q(4);
  EXPECT_EQ(putOne(q, 1, {}, past()), kOk);
  q.close();
  EXPECT_EQ(putOne(q, 2, {}, past()), QueueOpStatus::kClosed)
      << "closed put is refused even with room";
  EXPECT_EQ(q.size(), 1u) << "the refused element was not half-enqueued";
}

TEST(QueueBasics, TryTakeDrainsAfterClose) {
  SpscRing<int> q(4);
  putOne(q, 1);
  putOne(q, 2);
  q.close();
  EXPECT_EQ(takeOne(q, past()), 1) << "buffered elements survive close for a non-blocking take";
  EXPECT_EQ(takeOne(q, past()), 2);
  EXPECT_FALSE(takeOne(q, past()).has_value());
  EXPECT_FALSE(takeOne(q, past()).has_value()) << "drained + closed stays failed";
}

TEST(QueueBasics, TryOpsOnMailbox) {
  // Capacity 1: a non-blocking put toggles between accepted and refused
  // as the slot fills and empties — the non-blocking view of the M-var.
  SpscRing<int> mailbox(1);
  EXPECT_EQ(putOne(mailbox, 1, {}, past()), kOk);
  EXPECT_EQ(putOne(mailbox, 2, {}, past()), QueueOpStatus::kTimedOut) << "occupied mailbox refuses";
  EXPECT_EQ(takeOne(mailbox, past()), 1);
  EXPECT_FALSE(takeOne(mailbox, past()).has_value());
  EXPECT_EQ(putOne(mailbox, 3, {}, past()), kOk) << "slot reusable after the take";
  EXPECT_EQ(takeOne(mailbox), 3);
}

TEST(QueueBasics, TryPutReleasesBlockedTaker) {
  // A non-blocking put must wake a blocked take just like a blocking one.
  SpscRing<int> q(1);
  std::atomic<bool> got{false};
  std::thread consumer([&] {
    EXPECT_EQ(takeOne(q), 7);
    got = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(putOne(q, 7, {}, past()), kOk);
  consumer.join();
  EXPECT_TRUE(got.load());
}

TEST(QueueBasics, TryTakeReleasesBlockedPutter) {
  // Symmetric: a non-blocking take on a full queue must wake a blocked put.
  SpscRing<int> q(1);
  ASSERT_EQ(putOne(q, 1), kOk);
  std::atomic<bool> done{false};
  std::thread producer([&] {
    EXPECT_EQ(putOne(q, 2), kOk);
    done = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(takeOne(q, past()), 1);
  producer.join();
  EXPECT_TRUE(done.load());
  EXPECT_EQ(takeOne(q), 2);
}

TEST(QueueBulk, PutAllDeliversInOrderAndConsumesTheBatch) {
  SpscRing<int> q(4);
  std::vector<int> batch{1, 2, 3, 4};
  std::size_t accepted = 0;
  EXPECT_EQ(q.putAll(batch, accepted), kOk);
  EXPECT_EQ(accepted, 4u);
  EXPECT_TRUE(batch.empty()) << "accepted elements are erased from the batch";
  for (int i = 1; i <= 4; ++i) EXPECT_EQ(takeOne(q), i);
}

TEST(QueueBulk, PutAllEmptyBatchIsANoOp) {
  SpscRing<int> q(1);
  std::vector<int> batch;
  std::size_t accepted = 99;
  EXPECT_EQ(q.putAll(batch, accepted), kOk);
  EXPECT_EQ(accepted, 0u);
  EXPECT_EQ(q.size(), 0u);
}

TEST(QueueBulk, PutAllAfterCloseAcceptsNothingAndKeepsTheBatch) {
  SpscRing<int> q(4);
  q.close();
  std::vector<int> batch{1, 2, 3};
  std::size_t accepted = 99;
  EXPECT_EQ(q.putAll(batch, accepted), QueueOpStatus::kClosed);
  EXPECT_EQ(accepted, 0u);
  EXPECT_EQ(batch, (std::vector<int>{1, 2, 3})) << "the refused batch is left intact";
}

TEST(QueueBulk, PutAllBlockedAtCapacityAcceptsPrefixOnClose) {
  // A putAll that outgrows the bound parks; close mid-batch must release
  // it with the accepted prefix erased and the unaccepted suffix still
  // in the caller's hands.
  SpscRing<int> q(2);
  std::vector<int> batch{1, 2, 3, 4, 5};
  std::atomic<std::size_t> accepted{99};
  std::thread producer([&] {
    std::size_t n = 0;
    EXPECT_EQ(q.putAll(batch, n), QueueOpStatus::kClosed);
    accepted = n;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(q.size(), 2u) << "the prefix filled the queue to its bound";
  q.close();
  producer.join();
  EXPECT_EQ(accepted.load(), 2u);
  EXPECT_EQ(batch, (std::vector<int>{3, 4, 5})) << "unaccepted suffix survives the close";
  EXPECT_EQ(takeOne(q), 1);
  EXPECT_EQ(takeOne(q), 2);
  EXPECT_FALSE(takeOne(q).has_value());
}

TEST(QueueBulk, TakeUpToTakesAtMostMaxInFifoOrder) {
  SpscRing<int> q(8);
  for (int i = 1; i <= 5; ++i) putOne(q, i);
  std::vector<int> out;
  EXPECT_EQ(q.takeUpTo(out, 3), kOk);
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.takeUpTo(out, 10), kOk);
  EXPECT_EQ(out, (std::vector<int>{4, 5})) << "takeUpTo never blocks for more";
}

TEST(QueueBulk, TakeUpToZeroReturnsEmptyWithoutBlocking) {
  SpscRing<int> q(4);
  std::vector<int> out{9};
  EXPECT_EQ(q.takeUpTo(out, 0), kOk);
  EXPECT_TRUE(out.empty());
  putOne(q, 1);
  EXPECT_EQ(q.takeUpTo(out, 0), kOk);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(q.size(), 1u);
}

TEST(QueueBulk, TakeUpToBlocksUntilTheFirstElement) {
  SpscRing<int> q(4);
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    putOne(q, 42);
  });
  std::vector<int> out;
  EXPECT_EQ(q.takeUpTo(out, 8), kOk);
  EXPECT_EQ(out, (std::vector<int>{42})) << "blocks for one element, returns what is there";
  producer.join();
}

TEST(QueueBulk, TakeUpToEmptyMeansClosedAndDrained) {
  SpscRing<int> q(4);
  putOne(q, 1);
  q.close();
  std::vector<int> out;
  EXPECT_EQ(q.takeUpTo(out, 8), kOk);
  EXPECT_EQ(out, (std::vector<int>{1})) << "buffered elements survive close";
  EXPECT_EQ(q.takeUpTo(out, 8), QueueOpStatus::kClosed);
  EXPECT_TRUE(out.empty()) << "kClosed with nothing taken is end-of-stream";
}

TEST(QueueBulk, WaitingConsumersCountsBlockedTakers) {
  SpscRing<int> q(4);
  EXPECT_EQ(q.waitingConsumers(), 0u);
  std::thread consumer([&] { EXPECT_EQ(takeOne(q), 5); });
  while (q.waitingConsumers() == 0) std::this_thread::yield();
  EXPECT_EQ(q.waitingConsumers(), 1u);
  putOne(q, 5);
  consumer.join();
  EXPECT_EQ(q.waitingConsumers(), 0u);
}

TEST(QueueClose, TakeDrainsThenFails) {
  SpscRing<int> q(4);
  putOne(q, 1);
  putOne(q, 2);
  q.close();
  EXPECT_EQ(takeOne(q), 1) << "buffered elements survive close";
  EXPECT_EQ(takeOne(q), 2);
  EXPECT_FALSE(takeOne(q).has_value()) << "drained + closed = failure";
  EXPECT_EQ(putOne(q, 9), QueueOpStatus::kClosed) << "put after close is refused";
}

TEST(QueueClose, ReleasesBlockedConsumer) {
  SpscRing<int> q(4);
  std::atomic<bool> released{false};
  std::thread consumer([&] {
    EXPECT_FALSE(takeOne(q).has_value());
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
  putOne(q, 0);  // now full
  std::atomic<bool> released{false};
  std::thread producer([&] {
    EXPECT_EQ(putOne(q, 1), QueueOpStatus::kClosed) << "blocked put returns kClosed on close";
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
      if (putOne(q, i) != kOk) return;
      produced = i + 1;
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_LE(produced.load(), 5) << "producer cannot run ahead of the bound";
  for (int i = 0; i < 100; ++i) EXPECT_EQ(takeOne(q), i);
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
      for (int i = 0; i < kPerProducer; ++i) putOne(q, p * kPerProducer + i);
    });
  }
  std::vector<int> got;
  std::thread consumer([&] {
    for (int i = 0; i < producers * kPerProducer; ++i) got.push_back(*takeOne(q));
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
    putOne(mailbox, 42);
  });
  EXPECT_EQ(takeOne(mailbox), 42) << "take blocks until defined";
  producer.join();
}

}  // namespace
}  // namespace congen
