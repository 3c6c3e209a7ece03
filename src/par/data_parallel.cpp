#include "par/data_parallel.hpp"

#include <vector>

#include "kernel/basic.hpp"
#include "kernel/compose.hpp"
#include "kernel/ops.hpp"
#include "obs/runtime_stats.hpp"
#include "runtime/collections.hpp"

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
/// A chunk's error reaches the consumer verbatim from its pipe.
class TasksGen final : public Gen {
 public:
  using TaskFactory = std::function<GenFactory(ListPtr chunk)>;

  TasksGen(GenFactory source, std::int64_t chunkSize, std::size_t capacity, ThreadPool* pool,
           TaskFactory makeTaskBody)
      : source_(std::move(source)),
        chunkSize_(chunkSize),
        capacity_(capacity),
        pool_(pool),
        makeTaskBody_(std::move(makeTaskBody)) {}

 protected:
  bool doNext(Result& out) override {
    if (!built_) build();
    while (taskIndex_ < tasks_.size()) {
      if (auto v = tasks_[taskIndex_]->activate()) {
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
  void build() {
    built_ = true;
    taskIndex_ = 0;
    ChunkGen chunks(source_(), chunkSize_);
    while (auto c = chunks.nextValue()) {
      tasks_.push_back(Pipe::create(makeTaskBody_(c->list()), capacity_, *pool_));
    }
  }

  GenFactory source_;
  std::int64_t chunkSize_;
  std::size_t capacity_;
  ThreadPool* pool_;
  TaskFactory makeTaskBody_;
  std::vector<Rc<Pipe>> tasks_;
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
                                    std::move(makeTaskBody));
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
                                    std::move(makeTaskBody));
}

}  // namespace congen
