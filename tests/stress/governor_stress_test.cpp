// governor_stress_test.cpp — the resource governor under concurrency:
// many pipelines racing one shared heap budget, quota trips landing
// mid-stream (the delivered prefix must still arrive), and supervisor
// hard teardown mid-drive. conservation_env.cpp rides along, so every
// scenario here is also checked against the queue conservation
// invariants at process teardown — a trip or a teardown that loses or
// double-counts elements fails the suite even if the test body passes.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

#include "interp/interpreter.hpp"
#include "kernel/arena.hpp"
#include "runtime/error.hpp"
#include "runtime/governor.hpp"
#include "stress_util.hpp"

namespace congen {
namespace {

using governor::Limits;
using governor::ResourceGovernor;

TEST(GovernorStress, RacingHeapChargesBalanceExactly) {
  // 8 threads hammer one governor through the thread-local batcher with
  // pass-through-sized arena blocks (> kMaxBytes, so nothing parks in a
  // bin and every charge has a matching credit). After the scopes pop —
  // flushing each thread's pending batch — the shared ledger must read
  // exactly zero: a lost update here means a budget that drifts.
  Limits limits;
  limits.maxHeapBytes = 1u << 30;  // active, never trips
  auto gov = ResourceGovernor::create(limits);
  stress::onThreads(8, [&](int) {
    governor::ScopedGovernor governed(gov);
    for (int i = 0; i < 20000 * stress::scale(); ++i) {
      void* p = arena::allocate(1024);
      arena::deallocate(p, 1024);
    }
  });
  EXPECT_EQ(gov->usage().heapReserved, 0u);
  EXPECT_EQ(gov->usage().quotaTrips, 0u);
}

TEST(GovernorStress, PipelinesRacingASharedHeapBudgetTripCleanly) {
  // Four pipe producers allocate string payloads against one
  // interpreter's heap budget while the consumer retains everything it
  // drains. The budget is far below what the full streams need, so some
  // producer trips 811 mid-stream — on a pool thread, under the
  // reinstalled governor — and the error must surface at the consumer
  // after the already-published prefix was delivered.
  for (int round = 0; round < 3 * stress::scale(); ++round) {
    interp::Interpreter::Options opts;
    opts.quotas.maxHeapBytes = 256u << 10;
    interp::Interpreter interp{opts};
    // 20 bytes of prefix pushes every element past the SSO capacity, so
    // each one is a charged heap payload.
    interp.load("def spawn() { return |> (\"yyyyyyyyyyyyyyyyyyyy\" || (1 to 1000000)); }");
    auto gen = interp.eval("!(spawn() | spawn() | spawn() | spawn())");
    std::vector<Value> retained;  // keeps drained payloads live: the budget must fill
    int errorNumber = -1;
    try {
      while (auto v = gen->nextValue()) retained.push_back(*v);
    } catch (const IconError& e) {
      errorNumber = e.number();
    }
    EXPECT_EQ(errorNumber, 811) << "round " << round;
    EXPECT_GT(retained.size(), 0u) << "the delivered prefix reaches the consumer";
    retained.clear();
    gen.reset();
    // The session is degraded, not wedged: lifting the budget revives it.
    interp.resourceGovernor()->setLimit(governor::Budget::Heap, 0);
    EXPECT_EQ(interp.evalOne("! |> 42")->smallInt(), 42) << "round " << round;
  }
}

TEST(GovernorStress, SupervisorHardTeardownContainsARunawaySession) {
  // A runaway script that keeps minting pipes: the soft stop cancels
  // each live pipe (its drain fails fast), the loop spins on, and only
  // the hard teardown — flipping the fuel flag — stops the session with
  // 816. Conservation across the torn-down pipes is checked at process
  // teardown by conservation_env.
  auto& supervisor = governor::Supervisor::global();
  const std::uint64_t hard0 = supervisor.hardTeardownsIssued();
  for (int round = 0; round < 3 * stress::scale(); ++round) {
    interp::Interpreter::Options opts;
    opts.governed = true;
    interp::Interpreter interp{opts};
    interp.load("def spin() { local g; while 1 do { g := |> (1 to 1000000); every !g do 0; } }");
    auto watch = supervisor.watch(interp.resourceGovernor(), std::chrono::milliseconds(30),
                                  std::chrono::milliseconds(90));
    int errorNumber = -1;
    try {
      interp.evalAll("spin()");
    } catch (const IconError& e) {
      errorNumber = e.number();
    }
    EXPECT_EQ(errorNumber, 816) << "round " << round;
  }
  EXPECT_GE(supervisor.hardTeardownsIssued() - hard0, 3u);
  // The shared pool outlives the torn-down sessions.
  interp::Interpreter fresh;
  EXPECT_EQ(fresh.evalOne("! |> 7")->smallInt(), 7);
}

TEST(GovernorStress, AdmissionShedsConcurrentArrivalsDeterministically) {
  // Fill the session table, then race 4 construction attempts: every
  // one must shed with a typed 815 (no torn admit), and once the table
  // drains the same construction succeeds.
  auto& admission = governor::Admission::global();
  const auto saved = admission.config();
  governor::Admission::Config config;
  config.maxSessions = 4;
  admission.configure(config);

  Limits limits;
  limits.maxFuel = 1000;
  std::vector<std::shared_ptr<ResourceGovernor>> held;
  for (int i = 0; i < 4; ++i) held.push_back(ResourceGovernor::create(limits));

  const std::uint64_t sheds0 = admission.sheds();
  std::atomic<int> refused{0};
  stress::onThreads(4, [&](int) {
    for (int i = 0; i < 50 * stress::scale(); ++i) {
      try {
        interp::Interpreter::Options opts;
        opts.quotas.maxFuel = 1000;
        interp::Interpreter interp{opts};
        ADD_FAILURE() << "admitted past a full session table";
      } catch (const IconError& e) {
        EXPECT_EQ(e.number(), 815);
        refused.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  EXPECT_EQ(refused.load(), 4 * 50 * stress::scale());
  EXPECT_EQ(admission.sheds() - sheds0, static_cast<std::uint64_t>(refused.load()));
  EXPECT_EQ(admission.liveSessions(), 4u);

  held.clear();
  {
    interp::Interpreter::Options opts;
    opts.quotas.maxFuel = 100000;
    interp::Interpreter interp{opts};  // the freed slots admit again
    EXPECT_EQ(interp.evalOne("1 + 1")->smallInt(), 2);
  }
  admission.configure(saved);
}

}  // namespace
}  // namespace congen
