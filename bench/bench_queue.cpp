// bench_queue.cpp — the pipe transport substrate and pipe throttling:
// capacity sweep for producer/consumer hand-off ("bounding the output
// queue buffer size can also be used to throttle a threaded
// co-expression", Section III.B).
//
// The hand-off benches run on SpscRing, the channel every pipe owns,
// through its one put (putAll) and one take (takeUpTo):
// `queue/handoff_capacity/*`, `queue/uncontended` and
// `queue/handoff_batched/1024/1` time one-element batches.
// `queue/pipelines_scaling/N` runs N independent pipelines concurrently:
// each pipe has its own ring and takes the shared pool's lock once, to
// start its producer, so items/s should hold near-flat as N grows.
#include <benchmark/benchmark.h>

#include <thread>
#include <vector>

#include "congen.hpp"

namespace {

using namespace congen;

/// Producer-to-consumer hand-off across two threads: the producer
/// publishes `batch` elements per putAll, the consumer drains at most
/// `batch` per takeUpTo. batch == 1 is the one-element hand-off.
void handoff(benchmark::State& state, std::size_t capacity, std::size_t batch) {
  constexpr int kItems = 20000;
  for (auto _ : state) {
    SpscRing<int> q(capacity);
    std::jthread producer([&q, batch] {
      std::vector<int> buf;
      buf.reserve(batch);
      std::size_t accepted = 0;
      for (int i = 0; i < kItems; ++i) {
        buf.push_back(i);
        if (buf.size() >= batch && q.putAll(buf, accepted) != QueueOpStatus::kOk) {
          return;  // closed under us — stop
        }
      }
      if (!buf.empty()) q.putAll(buf, accepted);
      q.close();
    });
    std::int64_t sum = 0;
    std::vector<int> chunk;
    while (q.takeUpTo(chunk, batch) == QueueOpStatus::kOk) {
      for (int v : chunk) sum += v;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * kItems);
}

void queueHandoff(benchmark::State& state) {
  handoff(state, static_cast<std::size_t>(state.range(0)), 1);
}

void queueHandoffBatched(benchmark::State& state) {
  // batch == 1 anchors the element-vs-batch throughput comparison in the
  // bench JSON.
  handoff(state, static_cast<std::size_t>(state.range(0)),
          static_cast<std::size_t>(state.range(1)));
}

void queueUncontended(benchmark::State& state) {
  // Same-thread one-element put/take on the ring: the raw acquire/release
  // cost without blocking (one release store + one acquire load per op).
  SpscRing<int> q(64);
  std::vector<int> one;
  std::vector<int> out;
  std::size_t accepted = 0;
  for (auto _ : state) {
    one.push_back(1);
    q.putAll(one, accepted);
    q.takeUpTo(out, 1);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
}

void pipeThroughput(benchmark::State& state) {
  // End-to-end pipe cost per element at different throttle bounds:
  // range(0) = capacity; range(1) only names the pipe's batch cap,
  // min(64, capacity), so the rows keep their recorded names.
  const auto capacity = static_cast<std::size_t>(state.range(0));
  constexpr std::int64_t kItems = 20000;
  for (auto _ : state) {
    auto pipe = Pipe::create(
        [] {
          return RangeGen::create(Value::integer(1), Value::integer(kItems), Value::integer(1));
        },
        capacity);
    std::int64_t count = 0;
    while (pipe->activate()) ++count;
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * kItems);
}

void pipelinesScaling(benchmark::State& state) {
  // N independent pipelines, each a pipe producer on the shared pool
  // drained by its own consumer thread. The row family's items/s holding
  // near-flat as N grows is the point of per-pipe rings: no lock is
  // shared per element across pipelines.
  const auto n = static_cast<int>(state.range(0));
  constexpr std::int64_t kItems = 20000;
  for (auto _ : state) {
    std::vector<std::jthread> consumers;
    consumers.reserve(static_cast<std::size_t>(n));
    for (int p = 0; p < n; ++p) {
      consumers.emplace_back([] {
        auto pipe = Pipe::create([] {
          return RangeGen::create(Value::integer(1), Value::integer(kItems), Value::integer(1));
        });
        std::int64_t count = 0;
        while (pipe->activate()) ++count;
        benchmark::DoNotOptimize(count);
      });
    }
    consumers.clear();  // join
  }
  state.SetItemsProcessed(state.iterations() * kItems * n);
}

void futureLatency(benchmark::State& state) {
  for (auto _ : state) {
    FutureValue future([] { return ConstGen::create(Value::integer(42)); });
    benchmark::DoNotOptimize(future.get());
  }
  state.SetItemsProcessed(state.iterations());
}

}  // namespace

BENCHMARK(queueHandoff)->Name("queue/handoff_capacity")->Arg(1)->Arg(4)->Arg(64)->Arg(1024)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(queueHandoffBatched)->Name("queue/handoff_batched")
    ->Args({1024, 1})->Args({1024, 8})->Args({1024, 64})->Args({1024, 256})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(queueUncontended)->Name("queue/uncontended");
BENCHMARK(pipeThroughput)->Name("queue/pipe_capacity")
    ->Args({4, 4})->Args({64, 64})->Args({1024, 64})
    ->Unit(benchmark::kMillisecond);
// UseRealTime: the bench thread only spawns and joins the consumers, so
// its CPU clock would wildly inflate items/s; wall time is the metric.
BENCHMARK(pipelinesScaling)->Name("queue/pipelines_scaling")->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK(futureLatency)->Name("queue/future_roundtrip")->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();
