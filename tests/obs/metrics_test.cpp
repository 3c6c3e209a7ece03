// metrics_test.cpp — the metrics registry: striped primitives, registry
// semantics, snapshot consistency, and the stability of the JSON schema
// (`congen-run --metrics-json` consumers parse it; the golden file under
// tests/obs/golden/ is the contract).
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "concur/spsc_ring.hpp"
#include "interp/interpreter.hpp"
#include "kernel/arena.hpp"
#include "obs/metrics.hpp"
#include "obs/runtime_stats.hpp"
#include "runtime/collections.hpp"

#include "json_util.hpp"

namespace congen {
namespace {

std::string readFile(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Every test leaves the flag the way it found it (other suites in this
/// binary assume the seed default: disabled).
class MetricsFlagGuard {
 public:
  MetricsFlagGuard() : was_(obs::metricsEnabled()) {}
  ~MetricsFlagGuard() {
    if (was_) {
      obs::enableMetrics();
    } else {
      obs::disableMetrics();
    }
  }

 private:
  bool was_;
};

TEST(MetricsPrimitives, CounterSumsConcurrentStripedAdds) {
  obs::Counter c;
  constexpr int kThreads = 8;
  constexpr int kAdds = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kAdds; ++i) c.add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kAdds);
}

TEST(MetricsPrimitives, GaugeAddAndSubOnDifferentThreadsCancelExactly) {
  obs::Gauge g;
  std::thread up([&g] {
    for (int i = 0; i < 5000; ++i) g.add(2);
  });
  std::thread down([&g] {
    for (int i = 0; i < 5000; ++i) g.sub(1);
  });
  up.join();
  down.join();
  EXPECT_EQ(g.value(), 5000);
  std::thread rest([&g] { g.sub(5000); });
  rest.join();
  EXPECT_EQ(g.value(), 0) << "stripes must cancel across threads";
}

TEST(MetricsPrimitives, HistogramBucketsBySearchingInclusiveUpperBounds) {
  obs::Histogram h({1, 2, 4});
  for (const std::uint64_t v : {0ull, 1ull, 2ull, 3ull, 4ull, 5ull, 1000ull}) h.record(v);
  EXPECT_EQ(h.count(), 7u);
  EXPECT_EQ(h.sum(), 0u + 1 + 2 + 3 + 4 + 5 + 1000);
  const auto buckets = h.bucketCounts();
  ASSERT_EQ(buckets.size(), 4u);  // 3 finite + overflow
  EXPECT_EQ(buckets[0], 2u);      // 0, 1
  EXPECT_EQ(buckets[1], 1u);      // 2
  EXPECT_EQ(buckets[2], 2u);      // 3, 4
  EXPECT_EQ(buckets[3], 2u);      // 5, 1000 -> overflow
}

TEST(MetricsRegistry, FindOrCreateReturnsStableReferences) {
  obs::Registry r;
  obs::Counter& a = r.counter("x.count");
  a.add(7);
  EXPECT_EQ(&r.counter("x.count"), &a) << "same name, same counter";
  EXPECT_EQ(r.counter("x.count").value(), 7u);
  obs::Histogram& h = r.histogram("x.hist", {1, 2});
  EXPECT_EQ(&r.histogram("x.hist", {99}), &h) << "bounds apply on first registration only";
  EXPECT_EQ(h.bounds(), (std::vector<std::uint64_t>{1, 2}));
}

TEST(MetricsRegistry, SnapshotIsNameSortedAndLookupsMissAsZero) {
  obs::Registry r;
  r.counter("b").add(2);
  r.counter("a").add(1);
  r.gauge("g").add(-3);
  const auto snap = r.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "a");
  EXPECT_EQ(snap.counters[1].first, "b");
  EXPECT_EQ(snap.counterValue("b"), 2u);
  EXPECT_EQ(snap.gaugeValue("g"), -3);
  EXPECT_EQ(snap.counterValue("nope"), 0u);
  EXPECT_EQ(snap.gaugeValue("nope"), 0);
  EXPECT_EQ(snap.histogram("nope"), nullptr);
}

TEST(MetricsRegistry, CollectorsRunBeforeEverySnapshotAndMayRegister) {
  obs::Registry r;
  int runs = 0;
  r.addCollector([&r, &runs] {
    ++runs;
    // Collectors may find-or-create instruments (the arena's collector
    // does exactly this on its first run) and must only add deltas.
    r.counter("collected.count").add(1);
  });
  EXPECT_EQ(runs, 0) << "registration alone must not invoke the collector";
  auto snap = r.snapshot();
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(snap.counterValue("collected.count"), 1u)
      << "collector output is visible in the same snapshot that ran it";
  snap = r.snapshot();
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(snap.counterValue("collected.count"), 2u);
}

TEST(MetricsRegistry, EnableDisableTogglesTheProcessFlag) {
  MetricsFlagGuard guard;
  obs::disableMetrics();
  EXPECT_FALSE(obs::metricsEnabled());
  obs::enableMetrics();
  EXPECT_TRUE(obs::metricsEnabled());
  obs::disableMetrics();
  EXPECT_FALSE(obs::metricsEnabled());
}

TEST(MetricsJson, GoldenDocumentIsStable) {
  // A private registry with fixed values renders byte-identically to the
  // committed golden file — the --metrics-json schema contract.
  obs::Registry r;
  r.counter("demo.items").add(3);
  r.counter("demo.zeta");
  r.gauge("demo.depth").sub(2);
  obs::Histogram& h = r.histogram("demo.sizes", {1, 2, 4});
  for (const std::uint64_t v : {1ull, 2ull, 3ull, 100ull}) h.record(v);

  std::ostringstream os;
  r.snapshot().writeJson(os);
  EXPECT_EQ(os.str(), readFile(std::string(CONGEN_SOURCE_DIR) + "/tests/obs/golden/metrics.json"));
}

TEST(MetricsJson, DocumentParsesWithRequiredSchemaFields) {
  obs::Registry r;
  r.counter("c\"quoted\"").add(1);  // name escaping must survive a round-trip
  r.gauge("g").add(-5);
  r.histogram("h", {1, 8}).record(3);

  std::ostringstream os;
  r.snapshot().writeJson(os);
  const auto doc = testjson::parse(os.str());
  ASSERT_TRUE(doc.isObject());
  EXPECT_EQ(doc.at("schema").str, "congen-metrics");
  EXPECT_EQ(doc.at("version").asInt(), 1);
  EXPECT_EQ(doc.at("counters").at("c\"quoted\"").asInt(), 1);
  EXPECT_EQ(doc.at("gauges").at("g").asInt(), -5);

  const testjson::Json& h = doc.at("histograms").at("h");
  EXPECT_EQ(h.at("count").asInt(), 1);
  EXPECT_EQ(h.at("sum").asInt(), 3);
  const testjson::Json& buckets = h.at("buckets");
  ASSERT_TRUE(buckets.isArray());
  ASSERT_EQ(buckets.items.size(), 3u);  // two finite bounds + overflow
  std::int64_t prev = -1;
  for (std::size_t i = 0; i + 1 < buckets.items.size(); ++i) {
    const testjson::Json& le = buckets.items[i]->at("le");
    ASSERT_TRUE(le.isNumber()) << "finite bounds are numbers";
    EXPECT_GT(le.asInt(), prev) << "bounds strictly increase";
    prev = le.asInt();
  }
  EXPECT_EQ(buckets.items.back()->at("le").str, "inf") << "overflow bucket is last";
}

TEST(MetricsJson, EmptyRegistryRendersEmptySectionsThatStillParse) {
  obs::Registry r;
  std::ostringstream os;
  r.snapshot().writeJson(os);
  const auto doc = testjson::parse(os.str());
  EXPECT_TRUE(doc.at("counters").members.empty());
  EXPECT_TRUE(doc.at("gauges").members.empty());
  EXPECT_TRUE(doc.at("histograms").members.empty());
}

TEST(MetricsRuntime, QueueOperationsConserveElements) {
  MetricsFlagGuard guard;
  obs::enableMetrics();
  auto& s = obs::QueueStats::get();
  const auto put0 = s.putBatchElements.value();
  const auto take0 = s.takeBatchElements.value();
  const auto dropped0 = s.droppedOnClose.value();
  const auto depth0 = s.depth.value();

  {
    SpscRing<int> q(8);
    std::size_t accepted = 0;
    for (int v : {1, 2, 3}) {
      std::vector<int> one{v};
      q.putAll(one, accepted);
    }
    std::vector<int> bulk{4, 5, 6};
    q.putAll(bulk, accepted);
    std::vector<int> out;
    q.takeUpTo(out, 1);
    q.takeUpTo(out, 1);
    q.takeUpTo(out, 2);
    // two elements still queued at destruction -> dropped_on_close
  }

  const auto put = s.putBatchElements.value() - put0;
  const auto take = s.takeBatchElements.value() - take0;
  const auto dropped = s.droppedOnClose.value() - dropped0;
  const auto depth = s.depth.value() - depth0;
  EXPECT_EQ(put, 6u);
  EXPECT_EQ(take, 4u);
  EXPECT_EQ(dropped, 2u);
  EXPECT_EQ(depth, 0) << "destruction must return the depth gauge to its baseline";
  EXPECT_EQ(put, take + dropped + static_cast<std::uint64_t>(depth));
}

TEST(MetricsRuntime, BatchSizeHistogramSumMatchesBulkElements) {
  MetricsFlagGuard guard;
  obs::enableMetrics();
  auto& s = obs::QueueStats::get();
  const auto sum0 = s.putBatchSize.sum();
  const auto bulk0 = s.putBatchElements.value();

  SpscRing<int> q(16);
  std::vector<int> a{1, 2, 3};
  std::vector<int> b{4, 5};
  std::size_t accepted = 0;
  q.putAll(a, accepted);
  q.putAll(b, accepted);
  std::vector<int> out;
  q.takeUpTo(out, 16);

  EXPECT_EQ(s.putBatchSize.sum() - sum0, 5u);
  EXPECT_EQ(s.putBatchElements.value() - bulk0, 5u);
}

#ifndef CONGEN_ARENA_PASSTHROUGH
TEST(MetricsRuntime, ArenaTalliesFeedRegistryCountersAtSnapshot) {
  // Deliberately no MetricsFlagGuard/enableMetrics: arena counting is
  // branch-free and runs regardless of the process flag (§ INTERNALS 10).
  const arena::Stats before = arena::stats();
  void* p = arena::allocate(64);
  arena::deallocate(p, 64);  // after the pop/miss above the bin has room
  void* q = arena::allocate(64);  // must pop the block just parked: a hit
  arena::deallocate(q, 64);
  const arena::Stats after = arena::stats();
  EXPECT_EQ((after.hits + after.misses) - (before.hits + before.misses), 2u);
  EXPECT_EQ(after.returns - before.returns, 2u);
  EXPECT_GE(after.hits - before.hits, 1u);

  // The collector bridges tallies into the registry counters; it runs at
  // the head of snapshot(), so the snapshot already reflects `after`.
  const auto snap = obs::Registry::global().snapshot();
  EXPECT_GE(snap.counterValue("kernel.arena.hits"), after.hits);
  EXPECT_GE(snap.counterValue("kernel.arena.misses"), after.misses);
  EXPECT_GE(snap.counterValue("kernel.arena.returns"), after.returns);
}
#endif

TEST(MetricsBuiltins, MetricsTableReflectsTheRegistry) {
  MetricsFlagGuard guard;
  // Resolve the queue handles so the names exist even when this test
  // runs alone in a fresh process (registration happens on first use).
  (void)obs::QueueStats::get();
  interp::Interpreter interp;
  interp.evalOne("metricson()");
  EXPECT_TRUE(obs::metricsEnabled());
  auto t = interp.evalOne("metrics()");
  ASSERT_TRUE(t && t->isTable());
  const Value v = t->table()->lookup(Value::string("queue.put.batch_elements"));
  EXPECT_TRUE(v.isInteger());
  interp.evalOne("metricsoff()");
  EXPECT_FALSE(obs::metricsEnabled());
}

}  // namespace
}  // namespace congen
