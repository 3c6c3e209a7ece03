// control.hpp — control constructs: if, every, while, until, repeat, and
// the procedure-body protocol (suspend / return / fail).
//
// Loops drive their body as a *bounded* expression once per control
// iteration; only suspend/return results propagate out of them, which is
// how `every x := !l do suspend f(x)` turns a loop into a generator.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "kernel/gen.hpp"

namespace congen {

/// if e1 then e2 [else e3] — the condition is bounded; the chosen branch
/// delegates full iteration (if/then/else is itself a generator).
class IfGen final : public Gen {
 public:
  IfGen(GenPtr cond, GenPtr thenBranch, GenPtr elseBranch)
      : cond_(std::move(cond)), then_(std::move(thenBranch)), else_(std::move(elseBranch)) {}

  static GenPtr create(GenPtr cond, GenPtr thenBranch, GenPtr elseBranch = nullptr) {
    return std::make_shared<IfGen>(std::move(cond), std::move(thenBranch), std::move(elseBranch));
  }

 protected:
  bool doNext(Result& out) override;
  void doRestart() override;

 private:
  GenPtr cond_, then_, else_;
  Gen* branch_ = nullptr;
  bool decided_ = false;
};

/// Shared machinery for every/while/until/repeat: drives a bounded body
/// with suspend/return propagation and break/next handling.
class LoopGen : public Gen {
 public:
  enum class Kind { Every, While, Until, Repeat };

  LoopGen(Kind kind, GenPtr control, GenPtr body)
      : kind_(kind), control_(std::move(control)), body_(std::move(body)) {}

  static GenPtr every(GenPtr control, GenPtr body = nullptr) {
    return std::make_shared<LoopGen>(Kind::Every, std::move(control), std::move(body));
  }
  static GenPtr whileDo(GenPtr cond, GenPtr body = nullptr) {
    return std::make_shared<LoopGen>(Kind::While, std::move(cond), std::move(body));
  }
  static GenPtr untilDo(GenPtr cond, GenPtr body = nullptr) {
    return std::make_shared<LoopGen>(Kind::Until, std::move(cond), std::move(body));
  }
  static GenPtr repeat(GenPtr body) {
    return std::make_shared<LoopGen>(Kind::Repeat, nullptr, std::move(body));
  }

 protected:
  bool doNext(Result& out) override;
  void doRestart() override;

 private:
  /// Advance the control expression once; returns false when the loop is
  /// over. For `every` the control generator is resumed; for while/until
  /// it is restarted and its (first) success/failure tested. A control
  /// result carrying suspend/return flags is left in `out` with
  /// `propagate` set.
  bool stepControl(Result& out, bool& propagate);

  Kind kind_;
  GenPtr control_;
  GenPtr body_;
  bool inBody_ = false;
  bool done_ = false;
};

/// case e of { v1: b1; v2 | v3: b2; default: bd } — the control
/// expression is bounded; branch value expressions are generators (so
/// `v2 | v3` matches either); the first branch whose value is
/// equivalent (===) to the control value delegates full iteration, as
/// with if-then-else. No match and no default: the case fails.
class CaseGen final : public Gen {
 public:
  struct Branch {
    GenPtr value;  // nullptr = default branch
    GenPtr body;
  };

  CaseGen(GenPtr control, std::vector<Branch> branches)
      : control_(std::move(control)), branches_(std::move(branches)) {}

  static GenPtr create(GenPtr control, std::vector<Branch> branches) {
    return std::make_shared<CaseGen>(std::move(control), std::move(branches));
  }

 protected:
  bool doNext(Result& out) override;
  void doRestart() override;

 private:
  GenPtr control_;
  std::vector<Branch> branches_;
  Gen* selected_ = nullptr;
  bool decided_ = false;
};

/// suspend e — every result of e propagates to the enclosing body root.
class SuspendGen final : public Gen {
 public:
  explicit SuspendGen(GenPtr expr) : expr_(std::move(expr)) {}

  static GenPtr create(GenPtr expr) { return std::make_shared<SuspendGen>(std::move(expr)); }

 protected:
  bool doNext(Result& out) override;
  void doRestart() override { expr_->restart(); }

 private:
  GenPtr expr_;
};

/// return e — the first result of e terminates the body; if e fails the
/// procedure fails (Icon semantics).
class ReturnGen final : public Gen {
 public:
  explicit ReturnGen(GenPtr expr) : expr_(std::move(expr)) {}

  static GenPtr create(GenPtr expr) { return std::make_shared<ReturnGen>(std::move(expr)); }

 protected:
  bool doNext(Result& out) override;
  void doRestart() override { expr_->restart(); }

 private:
  GenPtr expr_;
};

/// fail — terminates the body with failure.
class FailBodyGen final : public Gen {
 public:
  static GenPtr create() { return std::make_shared<FailBodyGen>(); }

 protected:
  bool doNext(Result& out) override {
    out.set(Value::null(), nullptr, Result::kFailBody);
    return true;
  }
  void doRestart() override {}
};

/// break / next — loop-control signals (caught by the innermost LoopGen).
class BreakGen final : public Gen {
 public:
  static GenPtr create() { return std::make_shared<BreakGen>(); }

 protected:
  [[noreturn]] bool doNext(Result&) override { throw BreakSignal{}; }
  void doRestart() override {}
};

class NextGen final : public Gen {
 public:
  static GenPtr create() { return std::make_shared<NextGen>(); }

 protected:
  [[noreturn]] bool doNext(Result&) override { throw NextSignal{}; }
  void doRestart() override {}
};

/// The root of a procedure body: strips suspend/return flags into plain
/// results for the caller, terminates after return/fail, and turns a
/// break/next that leaves the body into error 506.
///
/// An emitted call makes its root from the call's arguments and a
/// builder: the closure that creates the reified cells (parameters bound
/// by position from the arguments, missing ones &null; locals &null) and
/// the body tree over them. Every call builds its own body, on its first
/// drive, and a restart — explicit or after failure — builds it again:
/// the same call on fresh cells, as a VM host call re-runs its root
/// (VmGen::call). A co-expression that escaped an earlier drive keeps
/// the cells it captured. A root over a prebuilt tree (the kernel API)
/// restarts that tree instead.
class BodyRootGen final : public Gen {
 public:
  using Builder = std::function<GenPtr(const std::vector<Value>& args)>;

  explicit BodyRootGen(GenPtr inner) : inner_(std::move(inner)) {}
  BodyRootGen(std::vector<Value> args, Builder build)
      : args_(std::move(args)), build_(std::move(build)) {}

  static std::shared_ptr<BodyRootGen> create(GenPtr inner) {
    return std::make_shared<BodyRootGen>(std::move(inner));
  }
  static std::shared_ptr<BodyRootGen> create(std::vector<Value> args, Builder build) {
    return std::make_shared<BodyRootGen>(std::move(args), std::move(build));
  }

 protected:
  bool doNext(Result& out) override;
  void doRestart() override;

 private:
  std::vector<Value> args_;
  Builder build_;  // empty for a prebuilt tree
  GenPtr inner_;   // null until a builder root's next drive
  bool terminated_ = false;
};

}  // namespace congen
