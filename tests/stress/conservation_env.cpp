// conservation_env.cpp — a gtest global Environment linked into EVERY
// stress binary (see congen_stress_test in CMakeLists.txt). It turns the
// metrics registry on before the first test and, at process teardown,
// asserts the queue conservation identities over the whole run:
//
//   put.batch_elements == take.batch_elements + depth + dropped_on_close
//
//   put.batch_size.sum == put.batch_elements
//   put.batch_size.count == put.batches
//
// Because every transferred element is counted exactly once, by the ring
// side that moved it, these hold exactly at quiescence — any drift is a
// lost or double-counted element somewhere in the concurrent runtime,
// which is precisely the class of bug the stress suite exists to catch
// (and, under the tsan / asan-ubsan presets, the class sanitizers cannot
// see: a logically dropped element is not a data race).
//
// Teardown quiesces first: abandoned pipes retire their producers
// asynchronously on the global pool, so the identities are polled until
// stable rather than read once.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>

#include "obs/runtime_stats.hpp"
#include "stress_util.hpp"

namespace congen {
namespace {

struct Totals {
  std::uint64_t put = 0;   // put.batch_elements
  std::uint64_t take = 0;  // take.batch_elements
  std::uint64_t dropped = 0;
  std::int64_t depth = 0;
  std::uint64_t batchSizeSum = 0;
  std::uint64_t batchSizeCount = 0;
  std::uint64_t putBatches = 0;

  static Totals read() {
    auto& s = obs::QueueStats::get();
    Totals t;
    t.put = s.putBatchElements.value();
    t.take = s.takeBatchElements.value();
    t.dropped = s.droppedOnClose.value();
    t.depth = s.depth.value();
    t.batchSizeSum = s.putBatchSize.sum();
    t.batchSizeCount = s.putBatchSize.count();
    t.putBatches = s.putBatches.value();
    return t;
  }

  [[nodiscard]] bool conserved() const {
    return put == take + dropped + static_cast<std::uint64_t>(depth >= 0 ? depth : 0) &&
           depth >= 0 && batchSizeSum == put && batchSizeCount == putBatches;
  }

  [[nodiscard]] std::string describe() const {
    std::ostringstream os;
    os << "put=" << put << " take=" << take << " dropped=" << dropped << " depth=" << depth
       << " | batchSizeSum=" << batchSizeSum
       << " | batchSizeCount=" << batchSizeCount << " putBatches=" << putBatches;
    return os.str();
  }
};

class ConservationEnv final : public ::testing::Environment {
 public:
  void SetUp() override {
    // Before the first queue operation of the process, so the ledger is
    // complete — conservation over a partial window is meaningless.
    obs::enableMetrics();
  }

  void TearDown() override {
    // Abandoned pipes close their queues in ~Pipe, but the producer task
    // observes the close and the State (owning the queue) is destroyed
    // on the pool thread asynchronously. Poll until the books balance.
    const bool settled = stress::eventually([] { return Totals::read().conserved(); }, 15000);
    const Totals t = Totals::read();
    EXPECT_TRUE(settled) << "queue conservation never settled: " << t.describe();
    EXPECT_EQ(t.put, t.take + t.dropped + static_cast<std::uint64_t>(t.depth))
        << "elements lost or duplicated: " << t.describe();
    EXPECT_GE(t.depth, 0) << "queue depth gauge went negative: " << t.describe();
    EXPECT_EQ(t.batchSizeSum, t.put)
        << "batch-size histogram disagrees with bulk element count: " << t.describe();
    EXPECT_EQ(t.batchSizeCount, t.putBatches)
        << "batch-size histogram disagrees with bulk publication count: " << t.describe();
  }
};

// Registered at static-init time; gtest takes ownership.
const ::testing::Environment* const kConservationEnv =
    ::testing::AddGlobalTestEnvironment(new ConservationEnv);

}  // namespace
}  // namespace congen
