// bench_interp_vs_emitted.cpp — the prototyping-to-refinement story:
// the same goal-directed search run (a) through the interpreter (the
// interactive/Groovy path: parsed and chunk-compiled once, the bytecode
// VM re-run per cycle), (b) as hand-held kernel composition (what
// congenc emits), and (c) as plain native C++. The paper's claim for
// exploration is that the relative ordering of alternatives is
// preserved under refinement.
#include <benchmark/benchmark.h>

#include "congen.hpp"

namespace {

using namespace congen;

// (1 to 50) * isprime(4 to 100): a pure goal-directed search.

void interpreterVmPath(benchmark::State& state) {
  // One chunk, inline-cached loads, native cut-through for isprime.
  interp::Interpreter interp;
  auto gen = interp.eval("(1 to 50) * isprime(4 to 100)");
  for (auto _ : state) {
    std::int64_t count = 0;
    gen->restart();
    while (gen->next()) ++count;
    benchmark::DoNotOptimize(count);
  }
}

void kernelPath(benchmark::State& state) {
  // The tree congenc would emit for the same expression.
  auto gen = makeBinaryOpGen(
      "*",
      RangeGen::create(Value::integer(1), Value::integer(50), Value::integer(1)),
      makeInvokeGen(ConstGen::create(Value::proc(builtins::lookup("isprime"))),
                    {RangeGen::create(Value::integer(4), Value::integer(100),
                                      Value::integer(1))}));
  for (auto _ : state) {
    std::int64_t count = 0;
    gen->restart();
    while (gen->next()) ++count;
    benchmark::DoNotOptimize(count);
  }
}

void nativePath(benchmark::State& state) {
  const auto isPrime = [](int n) {
    if (n < 2) return false;
    for (int d = 2; d * d <= n; ++d) {
      if (n % d == 0) return false;
    }
    return true;
  };
  for (auto _ : state) {
    std::int64_t count = 0;
    for (int i = 1; i <= 50; ++i) {
      for (int j = 4; j <= 100; ++j) {
        if (isPrime(j)) {
          benchmark::DoNotOptimize(static_cast<std::int64_t>(i) * j);
          ++count;
        }
      }
    }
    benchmark::DoNotOptimize(count);
  }
}

void interpreterVmCompileCost(benchmark::State& state) {
  // Parse + normalize + chunk compilation per evaluation — the price of
  // full interactivity.
  interp::Interpreter interp;
  for (auto _ : state) {
    benchmark::DoNotOptimize(interp.eval("(1 to 50) * isprime(4 to 100)"));
  }
}

}  // namespace

BENCHMARK(interpreterVmPath)->Name("refine/interpreter_vm");
BENCHMARK(kernelPath)->Name("refine/kernel_emitted");
BENCHMARK(nativePath)->Name("refine/native_cpp");
BENCHMARK(interpreterVmCompileCost)->Name("refine/interpreter_vm_compile");

BENCHMARK_MAIN();
