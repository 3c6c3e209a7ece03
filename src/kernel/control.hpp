// control.hpp — control constructs: if, every, while, until, repeat, and
// the procedure-body protocol (suspend / return / fail).
//
// Loops drive their body as a *bounded* expression once per control
// iteration; only suspend/return results propagate out of them, which is
// how `every x := !l do suspend f(x)` turns a loop into a generator.
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "kernel/gen.hpp"
#include "obs/runtime_stats.hpp"

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

/// A mutex-guarded free list of parked procedure-body trees — one pool
/// per procedure. BodyRootGen parks itself here on completion; callers
/// take() a parked body and rebind its arguments instead of rebuilding
/// the Gen tree (Fig. 5's "cached in a stack upon method return", made
/// thread-safe so procedures can be invoked from pool threads: pipes,
/// mapReduce). The pool is bounded — deep recursion retires extra
/// bodies rather than hoarding them.
class BodyPool {
 public:
  [[nodiscard]] GenPtr take() {
    const bool metrics = obs::metricsEnabled();
    std::lock_guard lock(mu_);
    // A body parks itself the moment it terminates — while its caller may
    // still hold a reference for goal-directed resumption (e.g. a nested
    // call to the same procedure). Handing such a body out would rebind a
    // frame another call site can still restart, so only sole-owned
    // entries are reused; aliased ones stay parked until their holder
    // lets go. Counts cannot rise while we hold the lock (only the pool
    // could mint copies), so use_count()==1 cannot go stale here.
    for (auto it = free_.rbegin(); it != free_.rend(); ++it) {
      if (it->use_count() == 1) {
        // use_count() is a relaxed load: it proves the last holder let go
        // but does not order that holder's accesses before ours. Copying
        // does — its acq_rel increment reads the holder's release
        // decrement — so the caller's restart() happens-after the holder's
        // last next(). (A standalone acquire fence would be correct C++
        // too, but ThreadSanitizer does not model fences.)
        GenPtr body = *it;
        free_.erase(std::next(it).base());
        if (metrics) [[unlikely]] obs::KernelStats::get().framesPooled.add(1);
        return body;
      }
    }
    // A take() miss means the caller builds a fresh body (frame) tree.
    if (metrics) [[unlikely]] obs::KernelStats::get().framesAllocated.add(1);
    return nullptr;
  }

  void put(GenPtr body) {
    const bool metrics = obs::metricsEnabled();
    std::lock_guard lock(mu_);
    if (free_.size() < kMaxParked) {
      free_.push_back(std::move(body));
      if (metrics) [[unlikely]] obs::KernelStats::get().framesParked.add(1);
    }
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard lock(mu_);
    return free_.size();
  }

 private:
  static constexpr std::size_t kMaxParked = 64;
  mutable std::mutex mu_;
  std::vector<GenPtr> free_;
};

/// The root of an emitted procedure body: strips suspend/return flags
/// into plain results for the caller, terminates after return/fail, and
/// optionally parks itself in a BodyPool for reuse upon completion (the
/// "cached in a stack upon method return" optimization of Section V.D;
/// raw pointer: the pool's owner — the emitted module — must outlive the
/// body). The interpreter's procedures run on VM machines instead.
class BodyRootGen final : public Gen, public std::enable_shared_from_this<BodyRootGen> {
 public:
  using Unpack = std::function<void(const std::vector<Value>&)>;

  explicit BodyRootGen(GenPtr inner) : inner_(std::move(inner)) {}

  static std::shared_ptr<BodyRootGen> create(GenPtr inner) {
    return std::make_shared<BodyRootGen>(std::move(inner));
  }

  /// Install the parameter-rebinding closure (Fig. 5's unpack lambda).
  BodyRootGen& setUnpackClosure(Unpack unpack) {
    unpack_ = std::move(unpack);
    return *this;
  }

  /// Rebind arguments and reset — used on a fresh or cache-reused body.
  BodyRootGen& unpackArgs(const std::vector<Value>& args) {
    if (unpack_) unpack_(args);
    restart();
    return *this;
  }

  /// Park into `pool` on completion (pool must outlive this body).
  BodyRootGen& setPool(BodyPool* pool) {
    pool_ = pool;
    return *this;
  }

 protected:
  bool doNext(Result& out) override;
  void doRestart() override;

 private:
  void park() {
    if (pool_ == nullptr) return;
    // Scrub before parking, not on take: a parked tree must not pin
    // values from its last activation. A retained operand tuple or frame
    // slot that (transitively) holds this procedure's own value closes a
    // cycle through the pool — pool → body → value → pool — that
    // shared_ptr can never reclaim. The take path skips its restart walk
    // when the tree is already pristine (parkedClean_), so the per-call
    // walk count is unchanged.
    inner_->restart();
    if (unpack_) unpack_({});  // null every frame slot
    parkedClean_ = true;
    pool_->put(shared_from_this());
  }

  GenPtr inner_;
  Unpack unpack_;
  BodyPool* pool_ = nullptr;
  bool terminated_ = false;
  bool parkedClean_ = false;
};

}  // namespace congen
