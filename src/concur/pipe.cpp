#include "concur/pipe.hpp"

#include <algorithm>
#include <exception>
#include <mutex>
#include <ostream>
#include <set>

#include "kernel/keyword_state.hpp"
#include "obs/runtime_stats.hpp"
#include "obs/trace_sink.hpp"
#include "runtime/error.hpp"
#include "runtime/governor.hpp"

namespace congen {

namespace {

// Live-pipe registry backing Pipe::dumpAll. Function-local and
// intentionally leaked so pipes destroyed during static teardown never
// race a destructed set.
struct PipeRegistry {
  std::mutex m;
  std::set<const Pipe*>* pipes = new std::set<const Pipe*>;
};

PipeRegistry& registry() {
  static PipeRegistry* r = new PipeRegistry;
  return *r;
}

void registerPipe(const Pipe* p) {
  auto& r = registry();
  std::lock_guard lock(r.m);
  r.pipes->insert(p);
}

void unregisterPipe(const Pipe* p) {
  auto& r = registry();
  std::lock_guard lock(r.m);
  r.pipes->erase(p);
}

/// Upper bound for the adaptive producer-side batch and the consumer's
/// prefetch. Batching moves whole segments through the ring (one release
/// store and at most one wakeup per batch) instead of paying that cost
/// per element.
constexpr std::size_t kMaxBatch = 64;

/// The batch cap of a pipe over `queue`: batching past the capacity
/// could never publish in one flush, so a capacity-1 future or mailbox
/// hands over one value at a time.
std::size_t batchLimit(const SpscRing<Value>& queue) {
  return std::min(kMaxBatch, queue.capacity());
}

/// The producer half of the pipe transport. Runs on a pool thread,
/// draining the co-expression body into a local buffer and publishing
/// whole segments with one putAll per flush. The batch size adapts:
/// it starts at 1 (first result reaches the consumer with no batching
/// latency), doubles toward `cap` while the consumer keeps up, and
/// halves whenever a flush finds the consumer already blocked in
/// activate() — at that point buffering further values only adds
/// latency. Each round's goal is additionally clamped to the queue's
/// spare capacity (but never below 1), so the producer runs at most
/// capacity + 1 results ahead of the consumer.
///
/// Cancellation: the generation loop checks the token between results
/// (one relaxed load) and every flush waits cancellably, so a cancelled
/// pipe's producer returns within one queue operation even with the
/// queue full.
void runProducer(SpscRing<Value>& queue, Gen& body, const CancelToken& token) {
  const std::size_t cap = batchLimit(queue);
  std::vector<Value> buffer;
  std::size_t accepted = 0;
  std::size_t batch = 1;
  bool open = true;
  while (open && !token.cancelled()) {
    const std::size_t size = queue.size();
    const std::size_t spare = queue.capacity() > size ? queue.capacity() - size : 0;
    const std::size_t goal =
        std::clamp<std::size_t>(std::min(batch, spare), 1, cap);
    bool starved = false;
    try {
      while (buffer.size() < goal) {
        auto v = body.nextValue();
        if (!v) {
          open = false;  // source exhausted
          break;
        }
        buffer.push_back(std::move(*v));
        if (token.cancelled()) {
          open = false;
          break;
        }
        if (queue.waitingConsumers() > 0) {
          starved = true;  // consumer is blocked: flush now, batch smaller
          break;
        }
      }
    } catch (...) {
      // Every result generated before an error is delivered: flush the
      // intact buffer (best effort) before letting the error propagate
      // to the consumer.
      try {
        if (!buffer.empty()) queue.putAll(buffer, accepted, token);
      } catch (...) {
      }
      throw;
    }
    if (buffer.empty()) break;
    CONGEN_FAULT_POINT(PipeBatchFlush);
    if (queue.putAll(buffer, accepted, token) != QueueOpStatus::kOk) {
      break;  // consumer abandoned or cancelled us
    }
    if (obs::metricsEnabled()) [[unlikely]] {
      obs::PipeStats::get().batchesFlushed.add(1);
    }
    batch = starved ? std::max<std::size_t>(1, batch / 2) : std::min(cap, batch * 2);
  }
}

/// What a producer's escaped exception becomes on the consumer's side.
/// A typed run-time error crosses verbatim, and so does an injected test
/// fault (the stress suite asserts on its precise type); anything else
/// becomes a failed stage.
std::exception_ptr stageError(std::exception_ptr error) {
  try {
    std::rethrow_exception(error);
  } catch (const IconError&) {
    return error;
  } catch (const testing::InjectedFault&) {
    return error;
  } catch (const std::exception& e) {
    return std::make_exception_ptr(errStageFailed(e.what()));
  } catch (...) {
    return std::make_exception_ptr(errStageFailed("unknown exception"));
  }
}

void countErrorStored() {
  if (obs::metricsEnabled()) [[unlikely]] {
    obs::PipeStats::get().errorsStored.add(1);
  }
}

/// The capacity policy, decided once per pipe: 0 means the default, a
/// request above the maximum clamps to it, and the ambient governor's
/// pipe-depth budget clamps further (graceful degradation — see
/// governor.hpp).
std::size_t resolveCapacity(std::size_t capacity) {
  if (capacity == 0) capacity = Pipe::kDefaultCapacity;
  capacity = std::min(capacity, Pipe::kMaxCapacity);
  if (const auto* gov = governor::current()) return gov->clampPipeCapacity(capacity);
  return capacity;
}

}  // namespace

Pipe::Pipe(GenFactory factory, std::size_t capacity, ThreadPool& pool)
    : CoExpression(std::move(factory)),
      state_(std::make_shared<State>(resolveCapacity(capacity))),
      pool_(&pool) {
  // A pipe created inside a producer body (the ambient CancelScope is
  // that producer's token) hangs itself under it, so cancelling the
  // downstream consumer reaches lazily-created inner pipes too.
  if (auto ambient = CancelScope::current(); ambient.canBeCancelled()) {
    state_->source.linkTo(ambient);
  }
  // The body was built (and the shadowed environment copied) eagerly on
  // this thread by the CoExpression base. The producer captures only the
  // shared state and that body — never the Pipe itself — so
  // consumer-side destruction cannot race it.
  pool.submit([state = state_, body = takeBody(), gov = governor::currentShared()] {
    const CancelToken token = state->source.token();
    // Make this pipe's token ambient for the body: co-expressions and
    // pipes the body creates while running pick it up via the scope.
    CancelScope scope(token);
    // The creator's governor travels with the work: the body's fuel,
    // heap, and child pipes/co-expressions charge the same budgets on
    // this pool thread as they would on the creating one. (ScopedGovernor
    // never throws — a pending-batch trip re-fires at the body's next
    // charge site, inside the try below.)
    governor::ScopedGovernor governed(gov);
    // The body starts from fresh keywords (&error credit 0, empty
    // &subject) and hands the pool thread's own back when it finishes.
    KeywordState keywords;
    ScopedKeywordState isolated(keywords);
    obs::TraceSpan span("pipe.producer", "pipe");
    try {
      runProducer(state->queue, *body, token);
    } catch (...) {
      // Forward the error, then cancel everything feeding this stage.
      // Ordering matters — store the error BEFORE requesting stop so the
      // consumer never observes the cancel without the cause.
      {
        std::lock_guard lock(state->errorMutex);
        state->error = stageError(std::current_exception());
      }
      countErrorStored();
      state->source.requestStop();
    }
    state->queue.close();  // end-of-stream
  });
  // Register only after submit succeeded: a throwing ctor must not leave
  // a dangling registry entry.
  registerPipe(this);
  if (obs::metricsEnabled()) [[unlikely]] {
    auto& s = obs::PipeStats::get();
    s.created.add(1);
    s.live.add(1);
  }
}

Pipe::~Pipe() {
  unregisterPipe(this);
  state_->queue.close();
  if (obs::metricsEnabled()) [[unlikely]] {
    obs::PipeStats::get().live.sub(1);
  }
}

std::optional<Value> Pipe::activate() { return step(QueueDeadline{}); }

std::optional<Value> Pipe::activateUntil(std::chrono::steady_clock::time_point deadline) {
  return step(QueueDeadline{deadline});
}

std::optional<Value> Pipe::step(QueueDeadline deadline) {
  // One consumer at a time: the ring's take side and the prefetch are
  // single-threaded state.
  const Activation active(*this);
  // A finished pipe (error already surfaced, or cancelled, or drained)
  // fails deterministically forever — it never revisits the dead queue,
  // so an activation after a consumed producer error cannot block or
  // re-observe stale state.
  if (finished_.load(std::memory_order_relaxed)) return std::nullopt;
  if (drainedPos_ >= drained_.size()) {
    drainedPos_ = 0;
    const std::size_t max = batchLimit(state_->queue);
    const auto status = state_->queue.takeUpTo(drained_, max, state_->source.token(), deadline);
    if (status == QueueOpStatus::kTimedOut) return std::nullopt;  // re-activatable
    if (status == QueueOpStatus::kCancelled && producerErrorPending()) {
      // Containment, not abandonment: the stop came from this pipe's
      // own failing producer, which flushed its delivered prefix and
      // is closing the queue. Drain with a detached (never-cancelled)
      // token so the prefix reaches the consumer before the error does.
      state_->queue.takeUpTo(drained_, max);
    }
  }
  if (drainedPos_ < drained_.size()) {
    produced_.fetch_add(1, std::memory_order_relaxed);
    if (obs::metricsEnabled()) [[unlikely]] obs::PipeStats::get().activations.add(1);
    return std::move(drained_[drainedPos_++]);
  }
  // Drained or cancelled: the stream is over for good. Surface a
  // producer-side error on the consumer thread, once.
  finished_.store(true, std::memory_order_relaxed);
  std::exception_ptr error;
  {
    std::lock_guard lock(state_->errorMutex);
    error = state_->error;
    state_->error = nullptr;
  }
  if (error) std::rethrow_exception(error);
  return std::nullopt;
}

bool Pipe::producerErrorPending() const {
  std::lock_guard lock(state_->errorMutex);
  return state_->error != nullptr;
}

CoExprPtr Pipe::refreshed() const {
  return Pipe::create(factory(), state_->queue.capacity(), *pool_);
}

void Pipe::dumpAll(std::ostream& os) {
  // Take the registry snapshot BEFORE the per-pipe walk: snapshot() only
  // reads relaxed atomics (never the pipe registry lock), so the two
  // sections cannot deadlock against a pipe being constructed, and the
  // aggregate header is at most a few in-flight operations away from the
  // per-pipe lines below it.
  const auto snap = obs::Registry::global().snapshot();
  auto& r = registry();
  std::lock_guard lock(r.m);
  os << "=== live pipes: " << r.pipes->size() << " ===\n";
  if (obs::metricsEnabled()) {
    os << "  aggregate: created=" << snap.counterValue("pipe.created")
       << " live=" << snap.gaugeValue("pipe.live")
       << " activations=" << snap.counterValue("pipe.activations")
       << " batchesFlushed=" << snap.counterValue("pipe.batches_flushed")
       << " cancellations=" << snap.counterValue("pipe.cancellations")
       << " errorsStored=" << snap.counterValue("pipe.errors_stored")
       << " queueDepth=" << snap.gaugeValue("queue.depth")
       << " poolThreadsLive=" << snap.gaugeValue("pool.threads_live") << "\n";
  }
  for (const Pipe* p : *r.pipes) {
    const auto& q = p->state_->queue;
    bool hasError = false;
    {
      std::lock_guard el(p->state_->errorMutex);
      hasError = p->state_->error != nullptr;
    }
    os << "  pipe@" << static_cast<const void*>(p) << " queued=" << q.size() << "/"
       << q.capacity() << " closed=" << (q.closed() ? 1 : 0)
       << " cancelled=" << (p->cancelRequested() ? 1 : 0)
       << " finished=" << (p->finished_.load(std::memory_order_relaxed) ? 1 : 0)
       << " delivered=" << p->produced_.load(std::memory_order_relaxed)
       << " pendingError=" << (hasError ? 1 : 0) << "\n";
  }
}

GenPtr makePipeCreateGen(GenFactory bodyFactory, std::size_t capacity, ThreadPool& pool) {
  return CoExprCreateGen::create(
      std::move(bodyFactory), [capacity, &pool](GenFactory f) -> CoExprPtr {
        return Pipe::create(std::move(f), capacity, pool);
      });
}

FutureValue::FutureValue(GenFactory factory, ThreadPool& pool)
    : pipe_(Pipe::create(std::move(factory), 1, pool)) {}

std::optional<Value> FutureValue::get() {
  if (!resolved_) {
    try {
      cached_ = pipe_->activate();
    } catch (...) {
      // Cache the error so every get() reports it — without this, the
      // first get() consumed the error and later calls looked like a
      // plain failure.
      error_ = std::current_exception();
      resolved_ = true;
      throw;
    }
    resolved_ = true;
  }
  if (error_) std::rethrow_exception(error_);
  return cached_;
}

}  // namespace congen
