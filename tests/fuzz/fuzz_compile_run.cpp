// fuzz_compile_run.cpp — libFuzzer harness for the whole VM pipeline:
// source → parse → normalize → chunk-compile → bounded-step VM run.
//
// Anything the parser accepts must compile and execute without crashing:
// run-time faults must surface as IconError (including 810, the
// governor's evaluation-fuel trip that bounds runaway programs), syntax
// faults as SyntaxError, and absurd literals as the BigInt constructor's
// std::invalid_argument/out_of_range. Output is swallowed — generated
// programs love write() — and the result drain is capped so a prolific
// generator terminates the iteration quickly.
//
// The fuel budget meters both the dispatch loop and the kernel nodes at
// escape sites (scanning, case, co-expressions) — every Gen::next
// charges the same counter — so a pathological input spinning inside
// one trips 810 too; the libFuzzer -timeout flag (or the ctest replay
// timeout) remains the backstop of last resort.
#include <cstddef>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "frontend/parser.hpp"
#include "interp/interpreter.hpp"
#include "runtime/collections.hpp"
#include "runtime/error.hpp"

namespace {

/// Redirect std::cout to a discarding buffer for the current scope.
class SwallowStdout {
 public:
  SwallowStdout() : old_(std::cout.rdbuf(sink_.rdbuf())) {}
  ~SwallowStdout() { std::cout.rdbuf(old_); }

 private:
  std::ostringstream sink_;
  std::streambuf* old_;
};

void compileAndRun(const std::string& source) {
  using namespace congen;
  SwallowStdout quiet;
  try {
    interp::Interpreter::Options opts;
    opts.quotas.maxFuel = 200000;  // IconError 810 bounds runaway programs
    interp::Interpreter interp{opts};
    interp.load(source);  // compiles every body; runs top-level stmts
    auto gen = interp.call("main", {Value::list(ListImpl::create())});
    for (int n = 0; n < 1000 && gen->nextValue(); ++n) {
    }
  } catch (const frontend::SyntaxError&) {
  } catch (const IconError&) {
  } catch (const std::invalid_argument&) {
  } catch (const std::out_of_range&) {
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  compileAndRun(std::string(reinterpret_cast<const char*>(data), size));
  return 0;
}
