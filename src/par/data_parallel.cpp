#include "par/data_parallel.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "kernel/basic.hpp"
#include "kernel/compose.hpp"
#include "kernel/ops.hpp"
#include "obs/runtime_stats.hpp"
#include "runtime/collections.hpp"
#include "runtime/error.hpp"

namespace congen {

namespace {

/// Chunking generator (the chunk() of Fig. 4).
class ChunkGen final : public Gen {
 public:
  ChunkGen(GenPtr source, std::int64_t chunkSize) : source_(std::move(source)), chunkSize_(chunkSize) {}

 protected:
  bool doNext(Result& out) override {
    if (exhausted_) return false;
    auto chunk = ListImpl::create();
    while (chunk->size() < chunkSize_) {
      auto v = source_->nextValue();
      if (!v) {
        exhausted_ = true;
        break;
      }
      chunk->put(std::move(*v));
    }
    if (chunk->empty()) return false;
    if (obs::metricsEnabled()) [[unlikely]] obs::ParStats::get().chunks.add(1);
    out.set(Value::list(std::move(chunk)));
    return true;
  }
  void doRestart() override {
    exhausted_ = false;
    source_->restart();
  }

 private:
  GenPtr source_;
  std::int64_t chunkSize_;
  bool exhausted_ = false;
};

/// Fold one chunk: x = i; every (x = r(x, f(!c))); yield x.
Value foldChunk(const ProcPtr& f, const ProcPtr& r, Value x, const ListPtr& chunk) {
  for (const auto& e : chunk->elements()) {
    auto fg = f->invoke({e});
    while (auto fv = fg->nextValue()) {  // every result f suspends joins the fold
      auto rg = r->invoke({x, std::move(*fv)});
      if (auto rv = rg->nextValue()) x = std::move(*rv);
    }
  }
  return x;
}

/// Generator that (1) eagerly chunks the source and spawns one pipe per
/// chunk — mirroring Fig. 4's `every (c = chunk(<>s)) do tasks.add(|> ...)`
/// — then (2) yields the pipes' results in task order (`suspend !(!tasks)`).
///
/// With a retry budget (> 0), a chunk whose pipe dies with an error is
/// re-run on a fresh co-expression copy after an exponential backoff:
/// the body factory is kept per task, a fresh Pipe re-snapshots the
/// chunk environment, and values the failed attempt already delivered
/// are replayed and skipped — so the visible stream stays exact and in
/// order no matter where in the chunk the failure landed.
class TasksGen final : public Gen {
 public:
  using TaskFactory = std::function<GenFactory(ListPtr chunk)>;

  TasksGen(GenFactory source, std::int64_t chunkSize, std::size_t capacity, ThreadPool* pool,
           TaskFactory makeTaskBody, int maxRetries, std::int64_t backoffBaseMicros)
      : source_(std::move(source)),
        chunkSize_(chunkSize),
        capacity_(capacity),
        pool_(pool),
        makeTaskBody_(std::move(makeTaskBody)),
        maxRetries_(maxRetries),
        backoffBaseMicros_(backoffBaseMicros) {}

 protected:
  bool doNext(Result& out) override {
    if (!built_) build();
    while (taskIndex_ < tasks_.size()) {
      Task& t = tasks_[taskIndex_];
      std::optional<Value> v;
      try {
        v = t.pipe->activate();
      } catch (const std::exception& e) {
        retryOrRethrow(t, e.what());  // rethrows unless a retry was scheduled
        continue;
      } catch (...) {
        retryOrRethrow(t, "unknown exception");
        continue;
      }
      if (v) {
        if (t.toSkip > 0) {
          --t.toSkip;  // replaying an already-delivered prefix after a retry
          if (obs::metricsEnabled()) [[unlikely]] obs::ParStats::get().replaySkips.add(1);
          continue;
        }
        ++t.emitted;
        out.set(std::move(*v));
        return true;
      }
      ++taskIndex_;
    }
    return false;
  }

  void doRestart() override {
    built_ = false;
    tasks_.clear();
    taskIndex_ = 0;
  }

 private:
  struct Task {
    Rc<Pipe> pipe;
    GenFactory body;           // kept so a retry can rebuild the pipe
    std::size_t emitted = 0;   // values already delivered downstream
    std::size_t toSkip = 0;    // replayed prefix still to swallow
    int attempts = 0;          // retries consumed
  };

  void build() {
    built_ = true;
    taskIndex_ = 0;
    ChunkGen chunks(source_(), chunkSize_);
    while (auto c = chunks.nextValue()) {
      Task t;
      t.body = makeTaskBody_(c->list());
      t.pipe = Pipe::create(t.body, capacity_, *pool_);
      tasks_.push_back(std::move(t));
    }
  }

  // Called from a catch block (the chunk error is the active exception):
  // either schedules a retry — backoff sleep, fresh pipe, replay-skip —
  // or lets the error out: verbatim when retries are disabled, as the
  // typed 802 when the budget is spent.
  void retryOrRethrow(Task& t, const char* cause) {
    if (maxRetries_ <= 0) throw;
    if (t.attempts >= maxRetries_) throw errRetryExhausted(cause);
    ++t.attempts;
    if (obs::metricsEnabled()) [[unlikely]] obs::ParStats::get().retries.add(1);
    if (backoffBaseMicros_ > 0) {
      const auto micros = backoffBaseMicros_ << std::min(t.attempts - 1, 10);
      std::this_thread::sleep_for(std::chrono::microseconds(micros));
    }
    t.toSkip = t.emitted;
    t.pipe = Pipe::create(t.body, capacity_, *pool_);
  }

  GenFactory source_;
  std::int64_t chunkSize_;
  std::size_t capacity_;
  ThreadPool* pool_;
  TaskFactory makeTaskBody_;
  int maxRetries_;
  std::int64_t backoffBaseMicros_;
  std::vector<Task> tasks_;
  std::size_t taskIndex_ = 0;
  bool built_ = false;
};

}  // namespace

GenPtr makeChunkGen(GenPtr source, std::int64_t chunkSize) {
  return std::make_shared<ChunkGen>(std::move(source), chunkSize);
}

GenPtr DataParallel::mapReduce(ProcPtr f, GenFactory source, ProcPtr r, Value init) const {
  auto makeTaskBody = [f = std::move(f), r = std::move(r), init](ListPtr chunk) -> GenFactory {
    return [f, r, init, chunk = std::move(chunk)]() -> GenPtr {
      return CallbackGen::create([f, r, init, chunk]() -> CallbackGen::Puller {
        bool done = false;
        return [f, r, init, chunk, done]() mutable -> std::optional<Value> {
          if (done) return std::nullopt;
          done = true;
          return foldChunk(f, r, init, chunk);
        };
      });
    };
  };
  return std::make_shared<TasksGen>(std::move(source), chunkSize_, pipeCapacity_, pool_,
                                    std::move(makeTaskBody), maxRetries_, backoffBaseMicros_);
}

GenPtr DataParallel::mapFlat(ProcPtr f, GenFactory source) const {
  auto makeTaskBody = [f = std::move(f)](ListPtr chunk) -> GenFactory {
    return [f, chunk = std::move(chunk)]() -> GenPtr {
      // f(!c): invocation flattened over the chunk's elements.
      return makeInvokeGen(ConstGen::create(Value::proc(f)),
                           {PromoteGen::create(ConstGen::create(Value::list(chunk)))});
    };
  };
  return std::make_shared<TasksGen>(std::move(source), chunkSize_, pipeCapacity_, pool_,
                                    std::move(makeTaskBody), maxRetries_, backoffBaseMicros_);
}

}  // namespace congen
