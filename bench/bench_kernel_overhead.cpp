// bench_kernel_overhead.cpp — ablations on the kernel design choices the
// paper calls out (Section V.B/D):
//   * "the kernel is optimized to statefully resume its point of
//     suspension on a succeeding next(), incurring zero cost for
//     suspends" — suspend-resume vs bare iteration;
//   * the price of an emitted procedure call, which builds its body tree
//     per call (Section V.D's "cached in a stack upon method return, and
//     then reused" is not done: a reused body would rebind the cells that
//     co-expressions created by the finished call still read);
//   * product/backtracking depth cost.
#include <benchmark/benchmark.h>

#include <cmath>

#include "congen.hpp"
#include "kernel/trace.hpp"
#include "runtime/governor.hpp"

namespace {

using namespace congen;

// --- suspend/resume cost ------------------------------------------------

void bareRange(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  for (auto _ : state) {
    auto g = RangeGen::create(Value::integer(1), Value::integer(n), Value::integer(1));
    std::int64_t count = 0;
    while (g->nextValue()) ++count;
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void governedRange(benchmark::State& state) {
  // The same bare range under an active ResourceGovernor with generous
  // limits: the per-element price of live fuel/heap accounting (batched
  // thread-local counters, INTERNALS §15). range_bare itself carries the
  // ungoverned cost — one relaxed flag load per charge point.
  governor::Limits limits;
  limits.maxFuel = std::uint64_t{1} << 60;
  limits.maxHeapBytes = std::uint64_t{1} << 40;
  governor::ScopedGovernor scope{governor::ResourceGovernor::create(limits)};
  const std::int64_t n = state.range(0);
  for (auto _ : state) {
    auto g = RangeGen::create(Value::integer(1), Value::integer(n), Value::integer(1));
    std::int64_t count = 0;
    while (g->nextValue()) ++count;
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void suspendedRange(benchmark::State& state) {
  // The same range routed through a procedure body with `suspend`: the
  // difference is the per-element price of the suspension machinery.
  const std::int64_t n = state.range(0);
  for (auto _ : state) {
    auto body = BodyRootGen::create(SuspendGen::create(
        RangeGen::create(Value::integer(1), Value::integer(n), Value::integer(1))));
    std::int64_t count = 0;
    while (body->nextValue()) ++count;
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void deeplyNestedSuspend(benchmark::State& state) {
  // Suspension propagating through `depth` nested every-loops.
  const std::int64_t depth = state.range(0);
  for (auto _ : state) {
    GenPtr inner = SuspendGen::create(
        RangeGen::create(Value::integer(1), Value::integer(1000), Value::integer(1)));
    for (std::int64_t d = 0; d < depth; ++d) {
      inner = LoopGen::every(ConstGen::create(Value::integer(1)), std::move(inner));
    }
    auto body = BodyRootGen::create(std::move(inner));
    std::int64_t count = 0;
    while (body->nextValue()) ++count;
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}

// --- emitted procedure calls ----------------------------------------------

void emittedCall(benchmark::State& state) {
  // def inc(x) { return x + 1; } as congenc emits it: each call builds its
  // own body, with x bound from the call's arguments.
  const ProcPtr proc = ProcImpl::create("inc", [](std::vector<Value> args) -> GenPtr {
    return BodyRootGen::create(std::move(args), [](const std::vector<Value>& params) -> GenPtr {
      auto x_r = CellVar::create(params.size() > 0 ? params[0] : Value::null());
      return ReturnGen::create(
          makeBinaryOpGen("+", VarGen::create(x_r), ConstGen::create(Value::integer(1))));
    });
  });
  for (auto _ : state) {
    std::int64_t sum = 0;
    for (int i = 0; i < 1000; ++i) {
      auto g = proc->invoke({Value::integer(i)});
      sum += g->nextValue()->smallInt();
      g->nextValue();  // drive to completion, as a caller does
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}

// --- products & backtracking ------------------------------------------------

void productDepth(benchmark::State& state) {
  // (1 to k) & (1 to k) & ... — `depth` nested products over ranges sized
  // so the result count stays ~4096.
  const std::int64_t depth = state.range(0);
  const auto k = static_cast<std::int64_t>(std::pow(4096.0, 1.0 / static_cast<double>(depth)));
  for (auto _ : state) {
    GenPtr g = RangeGen::create(Value::integer(1), Value::integer(k), Value::integer(1));
    for (std::int64_t d = 1; d < depth; ++d) {
      g = ProductGen::create(
          std::move(g), RangeGen::create(Value::integer(1), Value::integer(k), Value::integer(1)));
    }
    std::int64_t count = 0;
    while (g->nextValue()) ++count;
    benchmark::DoNotOptimize(count);
  }
}

void goalDirectedSearch(benchmark::State& state) {
  // The Section II search: (1 to n) * isprime(4 to m), via the kernel.
  for (auto _ : state) {
    auto i = CellVar::create();
    auto j = CellVar::create();
    auto g = ProductGen::create(
        InGen::create(i, RangeGen::create(Value::integer(1), Value::integer(10), Value::integer(1))),
        ProductGen::create(
            InGen::create(j, RangeGen::create(Value::integer(4), Value::integer(200),
                                              Value::integer(1))),
            ProductGen::create(
                makeInvokeGen(ConstGen::create(Value::proc(builtins::lookup("isprime"))),
                              {VarGen::create(j)}),
                makeBinaryOpGen("*", VarGen::create(i), VarGen::create(j)))));
    std::int64_t count = 0;
    while (g->nextValue()) ++count;
    benchmark::DoNotOptimize(count);
  }
}

// --- bytecode VM legs -------------------------------------------------------

void vmGoalDirectedSearch(benchmark::State& state) {
  // The same Section II search as goalDirectedSearch, run through the
  // interpreter's bytecode VM (compiled once, restarted per iteration).
  interp::Interpreter interp;
  auto g = interp.eval("(1 to 10) * isprime(4 to 200)");
  for (auto _ : state) {
    g->restart();
    std::int64_t count = 0;
    while (g->nextValue()) ++count;
    benchmark::DoNotOptimize(count);
  }
}

void vmProcInvoke(benchmark::State& state) {
  // VM counterpart of kernel/emitted_call: 1000 host-side calls of a
  // chunk-compiled procedure, each on a fresh machine that calls it.
  interp::Interpreter interp;
  interp.load("procedure bump(i)\n  return i + 1\nend");
  const ProcPtr proc = interp.global("bump")->proc();
  for (auto _ : state) {
    std::int64_t sum = 0;
    for (int i = 0; i < 1000; ++i) {
      auto g = proc->invoke({Value::integer(i)});
      sum += g->nextValue()->smallInt();
      g->nextValue();  // drive to completion, as a caller does
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}

void tracedRange(benchmark::State& state) {
  // The cost of monitoring: a counting hook on every next() (the paper's
  // future-work instrumentation). Compare with range_bare for the
  // enabled premium; range_bare itself carries the disabled check (one
  // relaxed atomic load).
  trace::installCounting();
  const std::int64_t n = state.range(0);
  for (auto _ : state) {
    auto g = RangeGen::create(Value::integer(1), Value::integer(n), Value::integer(1));
    std::int64_t count = 0;
    while (g->nextValue()) ++count;
    benchmark::DoNotOptimize(count);
  }
  trace::remove();
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

}  // namespace

BENCHMARK(bareRange)->Name("kernel/range_bare")->Arg(100000);
BENCHMARK(governedRange)->Name("kernel/range_bare_governed")->Arg(100000);
BENCHMARK(tracedRange)->Name("kernel/range_traced")->Arg(100000);
BENCHMARK(suspendedRange)->Name("kernel/range_through_suspend")->Arg(100000);
BENCHMARK(deeplyNestedSuspend)->Name("kernel/suspend_depth")->Arg(1)->Arg(4)->Arg(16);
BENCHMARK(emittedCall)->Name("kernel/emitted_call");
BENCHMARK(productDepth)->Name("kernel/product_depth")->Arg(1)->Arg(2)->Arg(3)->Arg(4);
BENCHMARK(goalDirectedSearch)->Name("kernel/goal_directed_search");
BENCHMARK(vmGoalDirectedSearch)->Name("kernel/goal_directed_search_vm");
BENCHMARK(vmProcInvoke)->Name("kernel/proc_invoke_vm");

BENCHMARK_MAIN();
