// keyword_state.hpp — the keyword variables one tenant of a thread owns.
//
// &error (with &errornumber and &errorvalue, error_env.hpp) and the
// scanning environment outside any scan (&subject and &pos, scan.hpp)
// live in thread-locals. Pool threads are shared: by the pipes of one
// program and by the sessions of congen-serve. So whoever runs its work
// on a pool thread swaps its own keyword state in for the duration and
// the thread's back out afterwards — a pipe producer starts from fresh
// state, a serve session keeps its state between its own requests.
// The scan stack itself needs no swap: ScanGen pushes and pops around
// each body step, so it is empty again whenever a task or request ends.
#pragma once

#include <utility>

#include "kernel/error_env.hpp"
#include "kernel/scan.hpp"

namespace congen {

struct KeywordState {
  ErrorEnv::State error;
  ScanEnv::State scan;
};

/// Installs `state` as this thread's keyword state for the guard's
/// lifetime. On exit the (possibly updated) state is written back into
/// `state` and the thread's own is restored.
class ScopedKeywordState {
 public:
  explicit ScopedKeywordState(KeywordState& state) noexcept : state_(state) { exchange(); }
  ~ScopedKeywordState() { exchange(); }
  ScopedKeywordState(const ScopedKeywordState&) = delete;
  ScopedKeywordState& operator=(const ScopedKeywordState&) = delete;

 private:
  void exchange() noexcept {
    std::swap(ErrorEnv::current(), state_.error);
    std::swap(ScanEnv::base(), state_.scan);
  }

  KeywordState& state_;
};

}  // namespace congen
