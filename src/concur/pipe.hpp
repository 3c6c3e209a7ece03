// pipe.hpp — the multithreaded generator proxy (`|> e`, Section III.B).
//
// A pipe is "a generator proxy for a co-expression that runs in a
// separate thread and iterates until failure, and that uses a blocking
// channel for the communication of results":
//
//   |>e → new Iterator() { next() { new Thread { run() {
//      c=|<>e; while (!fail) { out.put(@c); }}}.start() }}
//
// The producer drives the co-expression on a pool thread, putting its
// results into a bounded SPSC ring (spsc_ring.hpp — one producer, one
// consumer, exactly the shape of `|>`) in adaptive batches of at most
// min(64, capacity); activation (@) takes from a prefetch of the same
// size. Bounding the capacity throttles the producer: it runs at most
// capacity + 1 results ahead of the consumer. Destroying a pipe closes
// the ring, which makes the producer's next flush fail so an abandoned
// pipe can never deadlock a worker. A capacity-1 pipe over a singleton
// expression is a future.
//
// Keyword isolation: the producer runs its body on fresh keyword state
// (&error, &subject, &pos — see kernel/keyword_state.hpp), so a stage's
// error-conversion credit or scanning subject never leaks into whatever
// runs next on the same pool thread.
//
// Structured cancellation (see cancel.hpp): every pipe owns a
// StopSource, and every queue wait on either side uses that pipe's own
// token. Cross-pipe propagation is purely source-to-token linking —
// cancelWith() makes this pipe a child of another token, and a pipe
// created *inside* a producer body links itself under the ambient
// CancelScope automatically, so cancelling a downstream consumer
// unblocks every upstream producer within one queue operation.
//
// Failure containment: a producer-side run-time error (IconError) is
// stored, the pipe's own token is stopped (cascading to linked upstream
// pipes), and the error re-surfaces exactly once from the consumer's
// activate() after the delivered prefix drains. The consumer
// distinguishes containment from abandonment: a cancelled take with a
// pending producer error falls back to a take with a detached
// (never-cancelled) token on the already-closed queue, so the flushed
// prefix is never lost to the pipe's own error-triggered stop. Any non-IconError
// producer exception is wrapped into the typed IconError 801 (injected
// test faults pass through verbatim so the stress suite can assert on
// them). After the rethrow — or after cancellation — the pipe is
// *finished*: further activations deterministically fail (nullopt)
// without touching the dead queue.
#pragma once

#include <exception>
#include <iosfwd>
#include <vector>

#include "concur/cancel.hpp"
#include "concur/spsc_ring.hpp"
#include "concur/thread_pool.hpp"
#include "kernel/coexpression.hpp"

namespace congen {

class Pipe final : public CoExpression {
 public:
  /// Capacity of a pipe created with capacity 0.
  static constexpr std::size_t kDefaultCapacity = 1024;
  /// Largest capacity a pipe honors: the ring commits its slot array up
  /// front, so larger requests clamp to this (2^20 slots).
  static constexpr std::size_t kMaxCapacity = std::size_t{1} << 20;

  /// Create and immediately start producing on a pool thread. Capacity
  /// 0 means kDefaultCapacity, a request above kMaxCapacity clamps to
  /// it, and the ambient governor's pipe-depth budget clamps further.
  Pipe(GenFactory factory, std::size_t capacity, ThreadPool& pool);
  ~Pipe() override;

  static Rc<Pipe> create(GenFactory factory,
                         std::size_t capacity = kDefaultCapacity,
                         ThreadPool& pool = ThreadPool::global()) {
    return makeRc<Pipe>(std::move(factory), capacity, pool);
  }

  /// Activation = take from the output channel. A run-time error raised
  /// inside the producer is re-thrown here, on the consumer's thread,
  /// exactly once; afterwards the pipe is finished and activation fails.
  /// A second thread activating while one is inside raises 803.
  std::optional<Value> activate() override;

  /// Deadline-bounded activation: fails once `deadline` passes with no
  /// result available, WITHOUT finishing the pipe — a timed-out pipe can
  /// be re-activated (the deadline bounds waiting, not computation).
  std::optional<Value> activateUntil(std::chrono::steady_clock::time_point deadline) override;

  /// Request cancellation: wakes the producer out of its current queue
  /// operation (and, through linked sources, every upstream producer);
  /// the consumer side observes end-of-stream. Idempotent.
  void cancel() {
    if (obs::metricsEnabled()) [[unlikely]] {
      obs::PipeStats::get().cancellations.add(1);
    }
    state_->source.requestStop();
  }

  [[nodiscard]] bool cancelRequested() const noexcept { return state_->source.stopRequested(); }

  /// This pipe's own cancellation token — the one every queue wait on
  /// this pipe uses, and the linking point for upstream stages.
  [[nodiscard]] CancelToken cancelToken() const noexcept { return state_->source.token(); }

  /// Link this pipe under `token`: when `token` is cancelled, this pipe
  /// is cancelled too (synchronously). The pipeline layer links each
  /// upstream stage under its downstream consumer's token.
  void cancelWith(const CancelToken& token) { state_->source.linkTo(token); }

  /// ^p: a fresh pipe over a fresh environment copy.
  [[nodiscard]] CoExprPtr refreshed() const override;

  /// The output channel, "exposed as a public field to permit further
  /// manipulation" (Section III.B). It is a 1-producer/1-consumer ring
  /// already driven by the pipe's own producer and consumer, so extra
  /// threads may only use the any-thread ops (size/closed/capacity/
  /// close); debug builds assert on concurrent same-side calls.
  [[nodiscard]] SpscRing<Value>& queue() const noexcept { return state_->queue; }

  /// Diagnostic dump of every live pipe in the process (queue depth,
  /// close/cancel flags, results delivered) — the payload of the
  /// congen-run --timeout watchdog, so a hung pipeline fails fast with
  /// state instead of eating a CI job limit.
  static void dumpAll(std::ostream& os);

 private:
  /// State shared with the producer task; outlives the Pipe if the
  /// consumer abandons it mid-stream.
  struct State {
    explicit State(std::size_t capacity) : queue(capacity) {}
    SpscRing<Value> queue;
    StopSource source;              // the pipe's cancellation channel
    std::exception_ptr error;       // producer-side run-time error
    std::mutex errorMutex;
  };

  std::optional<Value> step(QueueDeadline deadline);
  [[nodiscard]] bool producerErrorPending() const;

  // First member: the pipe quota must trip (812) before the queue is
  // allocated or a producer submitted. The base CoExpression already
  // charged the co-expression budget — a pipe is one, and counts there
  // too.
  governor::PipeCharge quotaCharge_;
  // The ring is the one record of the capacity, resolved exactly once,
  // so a concurrent setquota("pipedepth") cannot desync it from the
  // batch cap or from a refreshed copy.
  std::shared_ptr<State> state_;
  ThreadPool* pool_;
  // produced_/finished_ are relaxed atomics solely so the watchdog's
  // dumpAll can read them from another thread; there is no ordering
  // requirement (single consumer).
  std::atomic<std::size_t> produced_{0};
  std::atomic<bool> finished_{false};
  // Consumer-side prefetch: activate() refills this from takeUpTo()
  // so a burst of buffered results costs one acquire load and one
  // release store, not one pair each.
  std::vector<Value> drained_;
  std::size_t drainedPos_ = 0;
};

/// Kernel node for `|> e`: yields a started pipe once per cycle.
GenPtr makePipeCreateGen(GenFactory bodyFactory, std::size_t capacity = Pipe::kDefaultCapacity,
                         ThreadPool& pool = ThreadPool::global());

/// A future: a capacity-1 pipe computing a single value in the
/// background; get() blocks for the result.
///
/// Failure vs error are distinguishable, matching Icon: get() returns
/// nullopt when the expression *failed* (produced no value), and
/// re-throws a producer-side run-time error (IconError) — on the first
/// AND on every subsequent call, so a caller that observes the error
/// once cannot mistake the future for a mere failure later.
class FutureValue {
 public:
  explicit FutureValue(GenFactory factory, ThreadPool& pool = ThreadPool::global());

  /// Block until the value is available; nullopt if the expression
  /// failed; re-throws (every time) if it errored.
  std::optional<Value> get();

 private:
  Rc<Pipe> pipe_;
  std::optional<Value> cached_;
  std::exception_ptr error_;
  bool resolved_ = false;
};

}  // namespace congen
