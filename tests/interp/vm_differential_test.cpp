// vm_differential_test.cpp — property-based differential testing of the
// interpreter (the bytecode VM) against emitted C++, the two independent
// implementations of one semantics. vm_diff_programs generates 1000
// seeded, random-but-bounded programs at build time and congenc emits
// each one as a module compiled into this binary (see vm_diff.hpp). The
// VM run and the emitted run must agree byte-for-byte on stdout, on the
// drained result count, and on the terminating run-time error (if any).
// Every failure message carries the seed and the full program text, so
// any divergence reproduces deterministically.
#include <gtest/gtest.h>

#include <array>
#include <string>

#include "interp/interpreter.hpp"
#include "kernel/error_env.hpp"
#include "runtime/error.hpp"
#include "vm_diff.hpp"

namespace congen::vmdiff {

Outcome observe(const std::function<void(int& results)>& drive) {
  // &error conversion credit is per-thread by design (kernel/error_env),
  // so a generated program that banked credits would otherwise leak them
  // into the *next* run on this thread — a one-sided leak, since the
  // other path's run would also spend them. Each run starts from a
  // clean slate.
  ErrorEnv::current() = ErrorEnv::State{};
  Outcome r;
  ::testing::internal::CaptureStdout();
  try {
    drive(r.results);
  } catch (const IconError& e) {
    r.errNumber = e.number();
  }
  r.out = ::testing::internal::GetCapturedStdout();
  return r;
}

namespace {

std::array<const EmittedProgram*, kShards>& shards() {
  static std::array<const EmittedProgram*, kShards> tables{};
  return tables;
}

Outcome runVm(const std::string& src) {
  return observe([&](int& results) {
    interp::Interpreter interp;
    interp.load(src);
    auto gen = interp.call("main", {Value::list(ListImpl::create())});
    while (gen->nextValue()) ++results;
  });
}

/// 100 programs per shard x 10 shards, split so ctest can run shards in
/// parallel and a failure names its shard.
class VmDifferential : public ::testing::TestWithParam<int> {};

TEST_P(VmDifferential, VmAndEmittedAgree) {
  const EmittedProgram* programs = shards()[static_cast<std::size_t>(GetParam())];
  ASSERT_NE(programs, nullptr) << "shard " << GetParam() << " is missing from the build";
  for (int i = 0; i < kProgramsPerShard; ++i) {
    const EmittedProgram& p = programs[i];
    ASSERT_EQ(p.seed, seedOf(GetParam(), i));
    SCOPED_TRACE("seed=" + std::to_string(p.seed) + "\n" + p.source);
    const Outcome vm = runVm(p.source);
    const Outcome emitted = p.run();
    EXPECT_EQ(vm.out, emitted.out);
    EXPECT_EQ(vm.results, emitted.results);
    EXPECT_EQ(vm.errNumber, emitted.errNumber);
    if (::testing::Test::HasFailure()) return;  // one reproducer is enough
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, VmDifferential, ::testing::Range(0, kShards));

}  // namespace

void registerShard(int shard, const EmittedProgram* programs) {
  shards()[static_cast<std::size_t>(shard)] = programs;
}

}  // namespace congen::vmdiff
