// prime_pipeline.cpp — task parallelism in the calculus of Section III.
//
// Reproduces the paper's pipeline expression
//
//     x * ! |> factorial(! |> sqrt(y))
//
// "for given generated sequences x and y, spawn off their factorial and
// square-root computations in parallel, effecting explicit task
// parallelism in the form of a pipeline" — here with an integer isqrt
// stage so the factorials stay exact, all via the embedded language.
#include <iostream>

#include "congen.hpp"

using namespace congen;

int main() {
  interp::Interpreter interp;

  // Generator functions for the stages.
  interp.load(R"(
    def factorial(n) {
      local acc, i;
      acc := 1;
      every i := 1 to n do acc := acc * i;
      return acc;
    }
  )");

  std::cout << "-- x * ! |> factorial(! |> isqrt(y)) --\n";
  // y generates 16, 25, 36; isqrt stage (thread 1) yields 4, 5, 6;
  // factorial stage (thread 2) yields 24, 120, 720; the main thread
  // multiplies by x in { 1, 10 } — the full cross product, in parallel.
  auto gen = interp.eval("(1 | 10) * ! |> factorial( ! |> isqrt(16 | 25 | 36) )");
  for (const Value& v : iterate(gen)) std::cout << "  " << v.toDisplayString() << "\n";

  std::cout << "-- throttled pipe: capacity bounds the producer --\n";
  // A bounded pipe only runs ahead of its consumer by the queue size;
  // the pipe-depth quota clamps every pipe this interpreter creates.
  interp::Interpreter::Options throttledOptions;
  throttledOptions.quotas.maxPipeDepth = 2;
  interp::Interpreter throttled(throttledOptions);
  auto slow = throttled.eval("! |> (1 to 6)");
  for (const Value& v : iterate(slow)) std::cout << "  " << v.toDisplayString() << "\n";

  std::cout << "-- a pipe of big factorials --\n";
  interp.load(R"(
    def bigfactorials() { suspend factorial(20 | 30 | 40); }
  )");
  for (const Value& v : iterate(interp.eval("! |> bigfactorials()"))) {
    std::cout << "  " << v.toDisplayString() << "\n";
  }
  return 0;
}
