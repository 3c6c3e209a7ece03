// frame_stress_test.cpp — procedure activations and slot frames under
// concurrency. Pipes and mapReduce call the same procedures from pool
// threads, each activation on the machine of the thread that runs it,
// sharing only the procedure's compile-once chunk; every round must see
// fresh slots (no state bleeding between activations) and the sanitizer
// presets must stay clean.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <fstream>
#include <sstream>

#include "interp/interpreter.hpp"
#include "stress_util.hpp"

namespace congen {
namespace {

std::vector<std::int64_t> drainInts(interp::Interpreter& interp, const std::string& src) {
  std::vector<std::int64_t> out;
  for (const auto& v : interp.evalAll(src)) out.push_back(v.requireInt64("stress"));
  return out;
}

std::string readFile(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}


TEST(FrameStress, PipesRecycleBodiesAcrossThreads) {
  // Each round drives two pipe stages: sq() runs on a pool thread, on
  // the producer's machine, while the consumer thread runs the rest.
  interp::Interpreter interp;
  interp.load("def sq(x) { local y; y := x * x; return y; }");
  const int rounds = 20 * stress::scale();
  for (int round = 0; round < rounds; ++round) {
    std::int64_t sum = 0;
    for (const auto v : drainInts(interp, "! |> sq( ! |> (1 to 20) )")) sum += v;
    ASSERT_EQ(sum, 2870) << "round " << round << ": a recycled frame leaked state";
  }
}

TEST(FrameStress, MapReduceRecyclesFramesAcrossThreads) {
  // The Fig. 4 program: every round spawns one pipe per chunk, and each
  // pipe body calls square/add from its own thread, on its own machine.
  // Rounds must agree exactly; slots shared between two activations, or
  // a chunk compiled twice under a race, would corrupt the sums.
  interp::Interpreter interp;
  interp.load(readFile(std::string(CONGEN_SOURCE_DIR) + "/examples/scripts/mapreduce.jn"));
  const std::vector<std::int64_t> expected{14, 77, 194, 100};
  const int rounds = 15 * stress::scale();
  for (int round = 0; round < rounds; ++round) {
    ASSERT_EQ(drainInts(interp, "mapReduce(square, source, add, 0)"), expected)
        << "round " << round;
  }
}

TEST(FrameStress, ConcurrentInterpretersShareInternedTables) {
  // Independent interpreters on independent threads still share the
  // process-wide atom table, builtin constant table, and (thread-cached)
  // node arena; hammer all three from racing compiles and pipe runs.
  std::atomic<int> failures{0};
  stress::onThreads(4, [&](int t) {
    interp::Interpreter interp;
    interp.load("def dbl(x) { local s; s := \"ab\"; return x + x + *s; }");
    for (int round = 0; round < 10 * stress::scale(); ++round) {
      std::int64_t sum = 0;
      for (const auto& v : interp.evalAll("! |> dbl( ! |> (1 to 10) )")) {
        sum += v.requireInt64("stress");
      }
      if (sum != 130) {
        failures.fetch_add(1, std::memory_order_relaxed);
        break;
      }
    }
    (void)t;
  });
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace congen
