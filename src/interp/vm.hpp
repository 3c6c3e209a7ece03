// vm.hpp — the resumable stack machine over interp/chunk.hpp bytecode:
// the interpreter's only execution engine.
//
// One VmGen is one machine, and it is itself a Gen. Its root activation
// runs the chunk it was built for (an expression, a top-level statement,
// an escape operand, a co-expression body, or a host-side call of a
// procedure, VmGen::call). A call from VM code to a VM procedure of the
// same interpreter does not leave the machine: kInvoke pushes an
// activation record (chunk, return pc, slot base, and the heights of the
// value and resume stacks) and jumps; `return` and `fail` pop it, and
// `suspend` leaves it under a Call suspension that backtracking resumes
// in place. Recursion therefore costs heap, not native stack, and one
// constant bounds a machine's live activations.
//
// Where a kernel iterator tree suspends by *being* a tree of live doNext
// frames, the machine suspends by recording resume points explicitly:
//
//  * the value stack holds plain Values; the variable an entry denotes,
//    where something reads it, rides in a side record (Ref);
//  * the resume stack holds suspensions — each one a saved pc plus a
//    snapshot of the value stack above the innermost bounded mark, so
//    resuming restores the exact mid-expression state;
//  * goal-directed failure (kEfail) resumes the newest suspension above
//    the current activation's innermost mark, or pops the mark and jumps
//    to its failure pc; an activation with nothing left fails its call.
//
// Constructs the compiler does not flatten (scanning, case,
// co-expressions and pipes, @ and ^, keyword variables, reversible
// assignment) run as the kernel nodes emitted code builds, over
// sub-machines for their operand chunks, driven through Drive
// suspensions — semantics are shared with emitted code where they share
// kernel code, and differentially tested where they don't.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "interp/chunk.hpp"
#include "interp/frame.hpp"
#include "interp/interpreter.hpp"
#include "kernel/gen.hpp"

namespace congen::interp::vm {

/// A procedure's code, compiled once on first use and shared by every
/// activation of it: VmGen calls it directly, and the host-side invoke
/// closure (Interpreter::makeProcedure) calls it from a machine of its
/// own (VmGen::call).
class ProcCode {
 public:
  ProcCode(Interpreter& in, std::string name, ast::NodePtr params, ast::NodePtr body);

  /// The body's chunk. The first call resolves and compiles it (pool
  /// threads can race that call); later ones are one acquire load.
  [[nodiscard]] const Chunk& chunk() {
    if (const Chunk* c = ready_.load(std::memory_order_acquire)) [[likely]] return *c;
    return compile();
  }
  [[nodiscard]] const ChunkPtr& chunkPtr() {
    (void)chunk();
    return chunk_;
  }

  Interpreter& interp;
  /// The procedure value over this code. It owns the code (through its
  /// invoke closure), so it outlives every call of that closure.
  ProcImpl* proc = nullptr;

 private:
  const Chunk& compile();

  std::string name_;
  ast::NodePtr params_, body_;
  std::once_flag once_;
  ChunkPtr chunk_;
  std::atomic<const Chunk*> ready_{nullptr};
};

class VmGen final : public Gen {
 public:
  /// `frame` holds the cells of a nested chunk's slots (escape operands
  /// and co-expression bodies share or copy them); null for global-mode
  /// chunks.
  VmGen(Interpreter& interp, ChunkPtr chunk, FramePtr frame);
  static std::shared_ptr<VmGen> create(Interpreter& interp, ChunkPtr chunk, FramePtr frame) {
    return std::make_shared<VmGen>(interp, std::move(chunk), std::move(frame));
  }

  /// A host-side call: a machine whose root chunk pushes `proc` and
  /// `args` as constants, invokes, and yields each result. A procedure of
  /// `interp` is then the root's callee, as in any VM call: its caller
  /// gets plain results, `return` and `fail` end it, `break` or `next`
  /// leaving its body raises 506 at the call, and it holds one
  /// --max-depth level. A restart re-runs the chunk: the same call again.
  static std::shared_ptr<VmGen> call(Interpreter& interp, Value proc, std::vector<Value> args);

  /// The most procedure activations one machine holds at once. A call
  /// past it raises 813, as the --max-depth quota does; 100,000 is about
  /// eight times the recursion the native stack allowed before calls
  /// left it.
  static constexpr std::size_t kMaxActivations = 100000;

 protected:
  bool doNext(Result& out) override;
  void doRestart() override;

 private:
  /// The variable a stack entry denotes, kept beside the stack (sorted by
  /// `at`) only where something reads it: a plain slot of a live
  /// activation (an absolute index into slots_) or a reified variable.
  struct Ref {
    std::int32_t at;
    std::int32_t slot = -1;
    VarPtr var;
  };

  /// One resume point. `slice` snapshots the value stack between `base`
  /// (the innermost mark's stack height when the suspension was made)
  /// and the top, *after* the op's operands were popped — restoring is
  /// resize(base) + append(slice) + push(new result). A Call suspension
  /// belongs to the caller: its slice runs on through the suspended
  /// callee's own region, so resuming it restores both, and the callee
  /// then fails back into its own suspensions.
  struct Susp {
    enum class Kind : std::uint8_t {
      Drive,  // a kernel Gen driven in place (native invoke, escape, range)
      Range,  // inline all-small-int to-by (no Gen, no allocation)
      Alt,    // e1 | e2: one-shot jump to the second branch
      Ralt,   // |e: re-run e while each pass produced something
      Limit,  // e\n bookkeeping record (never itself produces)
      Call,   // a suspended callee activation (acts_[callee])
    };
    // Field order is deliberate: everything the Efail resolution loop
    // reads for a Range resume (the single hottest backtracking path)
    // sits in the first cache line, ahead of the vectors and the
    // shared_ptr.
    Kind kind;
    bool ascending = true;   // Range
    bool produced = false;   // Ralt
    std::int32_t opPc;       // the instruction this suspension belongs to
    std::int32_t base;       // innermost mark's valH at creation
    std::int64_t fastCur = 0, fastLimit = 0, fastStep = 0;  // Range
    std::int32_t prevAux;    // previous Ralt/Limit record (aux chain)
    std::int32_t escapeIdx;  // Drive of an escape site, -1 otherwise
    std::int32_t target = -1;                        // Alt jump target
    std::int32_t depth = -1;                         // Ralt/Limit static depth
    std::int32_t callee = -1;                        // Call
    std::int64_t remaining = 0;                      // Limit
    std::vector<Value> slice;
    std::vector<Ref> refs;                           // the slice's variables
    GenPtr gen;                                      // Drive
  };

  /// A bounded region: failure continuation + heights to unwind to.
  struct MarkRec {
    std::int32_t failPc;
    std::int32_t suspH;
    std::int32_t valH;
    std::int32_t markPc;  // where the kMark sits (error-conversion unwind)
  };

  /// A live loop (kLoopBegin..kLoopEnd): heights for break/next.
  struct LoopRec {
    std::int32_t marksH;
    std::int32_t suspH;
    std::int32_t valH;
    std::int32_t bodyMarkIdx;  // marks index of the current body mark (-1 outside body)
    std::int32_t shapeIdx;
    std::int32_t beginPc;
  };

  /// kLoadLate inline cache: the resolved binding plus the globals version
  /// it was observed at. Stale version → full LateBoundVar::target()
  /// re-check, so a racing global declaration costs a miss, never a
  /// wrong binding.
  struct ICEntry {
    std::uint64_t ver = ~std::uint64_t{0};
    VarPtr target;
  };

  /// Trace identities of a callee activation. With tracing on, each
  /// resumption of a call is the span of the call's generator (what
  /// its caller drives) around the span of its body: the two levels of
  /// an emitted call, its body root and the body tree under it.
  struct ProcCall final : Gen {
    bool doNext(Result&) override { return false; }
    void doRestart() override {}
  };
  struct ProcBody final : Gen {
    bool doNext(Result&) override { return false; }
    void doRestart() override {}
  };

  /// One activation of a chunk: the root, or a VM procedure called from
  /// VM code. Marks, loops and the aux chain are the activation's own,
  /// so a suspended callee's regions survive while its caller runs on.
  struct Act {
    const Chunk* chunk = nullptr;
    Value proc;                   // the called procedure: keeps `chunk` alive
    FramePtr frame;               // the cells (Chunk::cellSlots, nested chunks' slots)
    std::vector<MarkRec> marks;
    std::vector<LoopRec> loops;
    std::vector<GenPtr> escapes;  // one kernel node per escape site, built on first use
    std::vector<ICEntry> ics;
    Act* caller = nullptr;
    std::int32_t index = -1;      // position in acts_ (-1: the root)
    std::int32_t retPc = 0;       // the caller's pc after its kInvoke
    std::int32_t callPc = 0;      // the caller's kInvoke (error attribution)
    std::int32_t slotBase = 0;
    std::int32_t valBase = 0;     // value-stack height at entry (the callee's position)
    std::int32_t suspBase = 0;    // resume-stack height at entry
    std::int32_t auxTop = -1;
    bool stripped = false;        // the call site reads no variable of the result
    bool reDrive = false;         // suspended on a flagged drive result: resuming re-drives it
    int traceDepth = -1;          // depth of the open call span, -1 when none
    ProcCall callSpan;
    ProcBody bodySpan;
  };

  /// The live callee activations, with storage reuse: a popped record
  /// keeps its vectors' capacity for the next call (the machine's own
  /// free list — no lock, no allocation on a warm call). It drops
  /// everything it owns or points into: cells, escape nodes, caches,
  /// the procedure and its chunk.
  class ActStack {
   public:
    [[nodiscard]] std::size_t size() const noexcept { return live_; }
    [[nodiscard]] Act& operator[](std::size_t i) noexcept { return *store_[i]; }
    [[nodiscard]] Act& push() {
      if (live_ == store_.size()) store_.push_back(std::make_unique<Act>());
      Act& a = *store_[live_];
      a.index = static_cast<std::int32_t>(live_++);
      return a;
    }
    void pop() noexcept { retire(*store_[--live_]); }

   private:
    static void retire(Act& a) noexcept {
      a.marks.clear();
      a.loops.clear();
      a.escapes.clear();
      a.frame.reset();
      a.ics.clear();
      a.proc = Value();
      a.chunk = nullptr;
    }
    std::vector<std::unique_ptr<Act>> store_;
    std::size_t live_ = 0;
  };

  enum class Phase : std::uint8_t {
    Start,      // fresh (or restarted): begin at pc 0
    Backtrack,  // yielded a result; next() = goal-directed resumption
    ReDrive,    // yielded a flagged drive result; next() re-drives that gen
    Done,       // return/fail terminated the activation
  };

  enum class Flow : std::uint8_t { Forward, Efail };

  /// The resume stack, with storage reuse: popping retires the record
  /// but keeps it constructed, so the heap capacity its slice vector
  /// acquired is reused by the next push. Backtracking-heavy code pushes
  /// suspensions tens of millions of times a second, and the malloc/free
  /// pair behind a fresh slice per push dominated its profile. Retired
  /// records drop what they own immediately (slice entries, the driven
  /// gen) — only raw capacity outlives the pop. pushSusp() reinitializes
  /// every scalar field, so reuse is invisible to the resolution loop.
  class SuspStack {
   public:
    [[nodiscard]] std::size_t size() const noexcept { return live_; }
    [[nodiscard]] bool empty() const noexcept { return live_ == 0; }
    [[nodiscard]] Susp& back() noexcept { return store_[live_ - 1]; }
    [[nodiscard]] const Susp& back() const noexcept { return store_[live_ - 1]; }
    [[nodiscard]] Susp& operator[](std::size_t i) noexcept { return store_[i]; }
    [[nodiscard]] const Susp& operator[](std::size_t i) const noexcept { return store_[i]; }
    void reserve(std::size_t n) { store_.reserve(n); }
    /// Grow by one, reusing a retired record when available. The caller
    /// (pushSusp) must reset every field it relies on.
    [[nodiscard]] Susp& push() {
      if (live_ == store_.size()) store_.emplace_back();
      return store_[live_++];
    }
    void pop_back() noexcept { retire(store_[--live_]); }

   private:
    static void retire(Susp& s) noexcept {
      s.slice.clear();  // destroys the entries, keeps the capacity
      s.refs.clear();
      s.gen.reset();
    }
    std::vector<Susp> store_;
    std::size_t live_ = 0;
  };

  bool run(Result& out);

  // -- the value stack and its variables ---------------------------------

  /// Drop the variables of entries at or above `h`.
  void dropRefsFrom(std::size_t h) noexcept {
    while (!refs_.empty() && static_cast<std::size_t>(refs_.back().at) >= h) refs_.pop_back();
  }

  /// Shrink the value stack to `h` entries. pop_back in a loop inlines
  /// (vector::resize routes through out-of-line erase machinery, which
  /// showed up in backtracking-heavy profiles).
  void shrinkStack(std::size_t h) {
    while (stack_.size() > h) stack_.pop_back();
    dropRefsFrom(h);
  }

  /// The variable of entry `at`, or null.
  [[nodiscard]] Ref* refAt(std::size_t at) noexcept {
    for (std::size_t k = refs_.size(); k-- > 0;) {
      const auto a = static_cast<std::size_t>(refs_[k].at);
      if (a == at) return &refs_[k];
      if (a < at) break;
    }
    return nullptr;
  }

  /// The variable of the top entry, taken out of the side records.
  [[nodiscard]] Ref takeTopRef() {
    const auto top = static_cast<std::int32_t>(stack_.size()) - 1;
    if (refs_.empty() || refs_.back().at != top) return Ref{-1, -1, nullptr};
    Ref r = std::move(refs_.back());
    refs_.pop_back();
    return r;
  }

  void pushVarRef(std::size_t at, VarPtr var) {
    refs_.push_back(Ref{static_cast<std::int32_t>(at), -1, std::move(var)});
  }

  [[nodiscard]] Value refGet(const Ref& r) const {
    return r.slot >= 0 ? slots_[static_cast<std::size_t>(r.slot)] : r.var->get();
  }
  void refSet(const Ref& r, const Value& v);
  /// A reified variable for `r`: a plain slot hands out a cell holding
  /// its value (the slot itself cannot leave the machine).
  [[nodiscard]] VarPtr materialize(Ref& r) const;

  /// Restore `slice` above `base`, keeping any prefix of the live stack
  /// that is identical to the saved entries (a Value copy reproduces the
  /// exact 16 bytes, payload pointer included; indeterminate trailing
  /// bytes can only produce a false negative, which costs a copy, never
  /// correctness). Backtracking usually fails with most of the saved
  /// region untouched (a failed call consumed only its own operands), so
  /// the common restore copies nothing — which matters: each copied
  /// entry is a refcount bump now and a release on the next unwind, paid
  /// per backtracking step. The variables are replaced wholesale.
  void restoreSlice(const Susp& s) {
    const auto base = static_cast<std::size_t>(s.base);
    const std::size_t above = stack_.size() > base ? stack_.size() - base : 0;
    const std::size_t limit = above < s.slice.size() ? above : s.slice.size();
    std::size_t keep = 0;
    while (keep < limit && std::memcmp(&stack_[base + keep], &s.slice[keep], sizeof(Value)) == 0) {
      ++keep;
    }
    shrinkStack(base + keep);
    for (std::size_t i = keep; i < s.slice.size(); ++i) stack_.push_back(s.slice[i]);
    dropRefsFrom(base);
    for (const Ref& r : s.refs) refs_.push_back(r);
  }

  /// Drive resume_.back()'s gen once. Returns true when the machine
  /// yields (out filled); otherwise sets `flow` (Forward after a plain
  /// result was restored+pushed, or a callee handed its caller a result;
  /// Efail after the gen failed and the suspension was popped).
  bool driveTop(Result& out, Flow& flow);

  /// Hand the top entry out of the machine (kYield/kSuspend/kReturn at
  /// the root).
  void yieldTop(Result& out, std::uint8_t flags);

  // -- activations -----------------------------------------------------

  /// kInvoke of a VM procedure of this interpreter: push its activation
  /// over the callee and arguments at stack_[calleeIdx..] and enter it.
  void enterCall(const Chunk& chunk, std::size_t calleeIdx, std::size_t nargs, bool stripped);
  /// Slots and cells for `a`'s chunk: parameters from `args` (count
  /// `nargs`), every other slot &null.
  void layoutSlots(Act& a, Value* args, std::size_t nargs);
  /// The current callee hands `v` to its caller and stays suspended.
  void suspendToCaller(Value v, Ref ref, bool reDrive);
  /// The current callee ends with `v` as its call's result.
  void returnToCaller(Value v, Ref ref);
  /// The current callee ends with failure; its caller efails.
  void failToCaller();
  /// End every running callee: an error leaves the machine.
  void leaveCallees();
  /// Release acts_[idx] and every activation above it.
  void popActsFrom(std::size_t idx);
  /// Open `a`'s trace spans as it is entered or resumed (tracing on).
  static void traceEnter(Act& a) {
    if (trace::enabled()) [[unlikely]] {
      a.traceDepth = trace::enter(a.callSpan);
      (void)trace::enter(a.bodySpan);
    }
  }
  /// Close them as it hands `v` to its caller, or fails (null).
  static void traceLeave(Act& a, const Value* v);

  /// Charge one --max-depth level for an activation (governor quota).
  void chargeDepth() {
    if (governor::depthActive()) [[unlikely]] {
      governor::detail::enterDepthSlow();
      ++depthHeld_;
    }
  }
  void releaseDepth(std::size_t levels) noexcept {
    for (; levels > 0 && depthHeld_ > 0; --levels, --depthHeld_) governor::detail::leaveDepthSlow();
  }

  void popSusp();
  void truncResume(std::int32_t h);
  void performBreak(std::int32_t depth);
  [[nodiscard]] Flow performNext(std::int32_t depth, bool inBody);

  /// &error conversion: unwind everything belonging to the handler op's
  /// operand span, leaving the machine ready to efail as that op's
  /// failure. An error no op of the current callee converts ends that
  /// activation and is retried at its caller's kInvoke. False = no
  /// handler / no credit (rethrow).
  bool convertError(const IconError& e);

  [[nodiscard]] std::int32_t markBase() const noexcept {
    return cur_->marks.empty() ? cur_->valBase : cur_->marks.back().valH;
  }

  /// Periodic fuel sync: charge the dispatches since the last sync to
  /// the ambient governor (throws 810/816 on a trip) and re-arm
  /// stepLimitTrip_ one interval ahead. The trip counter is ALWAYS
  /// finite so a governor installed mid-run is honored within one
  /// interval; when no governor enforces fuel the sync is one relaxed
  /// load per interval — noise.
  void syncFuel();

  Susp& pushSusp(Susp::Kind kind);

  /// The kernel node for one escape site of activation `a`.
  [[nodiscard]] GenPtr buildEscape(const EscapeSite& site, const Act& a);
  /// A sub-machine for one operand chunk — or, when the chunk is a single
  /// load (`@c`, `s ? ...`, `x <- 1`), the ConstGen/VarGen that load
  /// stands for: same results, a fraction of a machine's cost per drive.
  [[nodiscard]] GenPtr operandGen(const ChunkPtr& chunk, const FramePtr& frame);
  /// The factory behind a `<>`, `|<>` or `|>` site: each call runs the
  /// body chunk on a new frame built from the creating activation's.
  [[nodiscard]] GenFactory bodyFactory(const ChunkPtr& body, const FramePtr& frame);

  Interpreter& interp_;
  ChunkPtr chunk_;
  Act root_;          // the activation of chunk_
  ActStack acts_;     // callee activations, in call order
  Act* cur_ = &root_; // the running activation

  std::vector<Value> stack_;
  std::vector<Ref> refs_;    // variables of stack entries, by ascending `at`
  std::vector<Value> slots_; // every activation's plain slots, in call order
  SuspStack resume_;
  std::vector<Value> argScratch_;
  std::int32_t pc_ = 0;      // next instruction
  std::int32_t curPc_ = 0;   // instruction being executed (error attribution)
  Phase phase_ = Phase::Start;
  std::uint64_t steps_ = 0;
  // The VM's fuel batch: dispatches between governor syncs. It bounds
  // the fuel-budget overrun per VmGen the same way the kernel's
  // thread-local step batch does per thread.
  static constexpr std::uint64_t kFuelSyncInterval = 8192;
  std::uint64_t stepLimitTrip_ = kFuelSyncInterval;
  std::uint64_t fuelSyncBase_ = 0;  // steps_ already charged to the governor
  std::size_t depthHeld_ = 0;       // --max-depth levels this run holds

  // Local metric tallies, flushed once per doNext (obs::VmStats).
  // Dispatch counts ride on steps_ deltas; only the IC tallies need
  // their own counters.
  std::uint64_t icHitTally_ = 0, icMissTally_ = 0;
};

}  // namespace congen::interp::vm
