// vm_diff.hpp — the contract between the VM-vs-emitted differential test
// (vm_differential_test.cpp) and the shard tables vm_diff_programs
// generates at build time: each shard TU includes its 100 congenc-emitted
// modules and registers one EmittedProgram per module.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "runtime/collections.hpp"

namespace congen::vmdiff {

inline constexpr int kShards = 10;
inline constexpr int kProgramsPerShard = 100;

/// The seed of program `index` in `shard`.
constexpr std::uint64_t seedOf(int shard, int index) {
  return static_cast<std::uint64_t>(shard) * 1000003ull + static_cast<std::uint64_t>(index);
}

/// What one run of a program's main(args=[]) observably did.
struct Outcome {
  std::string out;    // captured stdout
  int results = 0;    // values main() produced before failing
  int errNumber = 0;  // terminating run-time error (0 = ran to completion)
};

/// Run `drive` — which drains a main() generator, counting its results —
/// with stdout captured and run-time errors recorded (defined in
/// vm_differential_test.cpp).
Outcome observe(const std::function<void(int& results)>& drive);

/// Drive an emitted module's main(args=[]).
template <class Module>
Outcome runEmitted() {
  return observe([](int& results) {
    Module mod;
    auto gen = mod.call("main", {Value::list(ListImpl::create())});
    while (gen->nextValue()) ++results;
  });
}

struct EmittedProgram {
  std::uint64_t seed;
  const char* source;  // the program text congenc translated
  Outcome (*run)();    // runEmitted<its module>
};

/// Called from each generated shard TU during static initialization.
void registerShard(int shard, const EmittedProgram* programs);

}  // namespace congen::vmdiff
