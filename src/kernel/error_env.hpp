// error_env.hpp — Icon's &error machinery: converting run-time errors
// to failure.
//
// Icon lets a program trade errors for failure: "if &error is nonzero,
// a run-time error is converted to failure of the expression in which
// it occurred, and &error is decremented". The converted error's number
// and offending value stay inspectable through &errornumber and
// &errorvalue until errorclear() resets them.
//
// The environment is thread-local (like the scanning environment in
// scan.hpp): each pipe producer runs on its own pool thread with its
// own, initially-zero credit (keyword_state.hpp swaps it in), so a stage
// that opts into conversion never silently swallows errors raised in a
// concurrent stage. The conversion itself happens at the generator-tree
// operator nodes
// (UnOpGen / BinOpGen / DelegateGen in ops.cpp) — the granularity at
// which an "expression" exists after translation — and those nodes are
// shared by the interpreter and the emitted C++, so both execution
// modes agree by construction. The non-converting path costs nothing:
// conversion rides the existing IconError unwind (a catch clause on a
// path that already threw), never a check on the hot path.
#pragma once

#include <cstdint>
#include <string>

#include "kernel/gen.hpp"

namespace congen {

class IconError;

class ErrorEnv {
 public:
  struct State {
    std::int64_t credit = 0;  // &error: > 0 enables conversion, decremented per conversion
    bool occurred = false;    // has any error been converted since errorclear()?
    std::int64_t number = 0;  // &errornumber: the last converted error's number
    std::string value;        // &errorvalue: the last converted error's message text
  };

  /// This thread's error environment.
  static State& current();

  /// Called from an operator node's IconError handler: if credit allows,
  /// record the error, spend one credit, and return true (the node
  /// fails); otherwise return false (the error keeps propagating).
  static bool convertToFailure(const IconError& e);

  /// errorclear(): forget the last converted error (&errornumber and
  /// &errorvalue fail again). Leaves the credit untouched.
  static void clear();
};

/// &error — assignable keyword variable holding the conversion credit.
GenPtr makeErrorVarGen();
/// &errornumber — read-only; fails if no error has been converted.
GenPtr makeErrorNumberVarGen();
/// &errorvalue — read-only; fails if no error has been converted.
GenPtr makeErrorValueVarGen();

}  // namespace congen
