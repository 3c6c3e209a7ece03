// scan.hpp — string scanning: Icon's `e1 ? e2`.
//
// "Search has particular application in string processing, the forte of
// Icon and Unicon" (Section II). Scanning establishes a dynamic
// environment — a subject string and a position — that the matching
// functions (tab, move, pos, and the analysis builtins) consult and
// update, with *reversible* effects: a tab() that is resumed during
// backtracking restores &pos and fails, so the search engine can explore
// match alternatives.
//
// The scanning environment is a per-thread stack (scans nest; pipes get
// their own, empty, environment — scanning state never crosses
// threads). As in Icon, the environment is swapped on every suspension
// crossing the scan boundary: while a scan is suspended the *outer*
// environment is current, so interleaved scans (e.g. through
// co-expressions) and abandoned scans behave correctly.
#pragma once

#include <memory>
#include <string>

#include "kernel/gen.hpp"

namespace congen {

/// The dynamic scanning environment: &subject and &pos (1-based,
/// position semantics: 1..length+1).
class ScanEnv {
 public:
  /// The subject is held as a string Value: entering a scan whose
  /// subject expression already yields a string shares the payload
  /// (refcount bump or 16 inline bytes) instead of copying it, and
  /// &subject reads hand the same representation straight back out.
  struct State {
    Value subject = Value::string(std::string_view{});
    std::int64_t pos = 1;
  };

  /// The innermost active state for this thread (a default empty
  /// subject when no scan is active, as in Icon).
  static State& current();

  /// This thread's environment outside any scan — what current() is
  /// when the scan stack is empty (see kernel/keyword_state.hpp).
  static State& base();

  /// Enter/leave a scan (used by ScanGen).
  static void push(State s);
  static State pop();
  static std::size_t depth();

  /// Resolve an Icon position against the current subject; nullopt if
  /// out of range.
  static std::optional<std::int64_t> resolvePos(std::int64_t p);
};

/// e1 ? e2: for each subject produced by e1, evaluate e2 in a fresh
/// scanning environment; the scan's results are e2's results.
class ScanGen final : public Gen {
 public:
  ScanGen(GenPtr subject, GenPtr body) : subject_(std::move(subject)), body_(std::move(body)) {}

  static GenPtr create(GenPtr subject, GenPtr body) {
    return std::make_shared<ScanGen>(std::move(subject), std::move(body));
  }

 protected:
  bool doNext(Result& out) override;
  void doRestart() override;

 private:
  GenPtr subject_, body_;
  ScanEnv::State saved_;
  bool scanning_ = false;
};

/// &subject and &pos as assignable variables (assigning &subject resets
/// &pos to 1, as in Icon).
GenPtr makeSubjectVarGen();
GenPtr makePosVarGen();

/// tab(i): set &pos to i, producing the substring between the old and
/// new positions; restores &pos and fails when resumed (reversible).
/// move(n) is tab(&pos + n). Both accept generator arguments through
/// the standard operand product.
GenPtr makeTabGen(GenPtr target);
GenPtr makeMoveGen(GenPtr delta);

}  // namespace congen
