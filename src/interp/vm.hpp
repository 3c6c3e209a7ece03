// vm.hpp — the resumable stack machine over interp/chunk.hpp bytecode:
// the interpreter's only execution engine.
//
// One VmGen is one activation of a compiled chunk, and it is itself a
// Gen: procedure calls wrap it in the same BodyRootGen emitted code uses
// (pooling, parking, arg rebinding, flag stripping are inherited, not
// reimplemented). Where a kernel iterator tree suspends by *being* a
// tree of live doNext frames, the machine suspends by recording resume
// points explicitly:
//
//  * the value stack holds {value, ref} entries (control flags never
//    live on the stack — suspend/return yield immediately);
//  * the resume stack holds suspensions — each one a saved pc plus a
//    snapshot of the value stack above the innermost bounded mark, so
//    resuming restores the exact mid-expression state;
//  * goal-directed failure (kEfail) resumes the newest suspension above
//    the current mark, or pops the mark and jumps to its failure pc.
//
// Constructs the compiler does not flatten (scanning, case,
// co-expressions and pipes, @ and ^, keyword variables, reversible
// assignment) run as the kernel nodes emitted code builds, over
// sub-machines for their operand chunks, driven through Drive
// suspensions — semantics are shared with emitted code where they share
// kernel code, and differentially tested where they don't.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "interp/chunk.hpp"
#include "interp/frame.hpp"
#include "interp/interpreter.hpp"
#include "kernel/gen.hpp"

namespace congen::interp::vm {

class VmGen final : public Gen {
 public:
  /// `frame` is null for global-mode chunks (identifiers were baked to
  /// direct VarPtr loads). Escape sites' kernel nodes are built here,
  /// eagerly, over operand sub-machines that share this activation's
  /// frame.
  VmGen(Interpreter& interp, ChunkPtr chunk, FramePtr frame);
  static std::shared_ptr<VmGen> create(Interpreter& interp, ChunkPtr chunk, FramePtr frame) {
    return std::make_shared<VmGen>(interp, std::move(chunk), std::move(frame));
  }

 protected:
  bool doNext(Result& out) override;
  void doRestart() override;

 private:
  struct Entry {
    Value v;
    VarPtr ref;
    Entry() = default;
    // Explicit ctor so hot push sites can emplace_back (one Value move)
    // instead of materializing a temporary Entry (two).
    Entry(Value vv, VarPtr r) : v(std::move(vv)), ref(std::move(r)) {}
  };

  /// One resume point. `slice` snapshots the value stack between `base`
  /// (the innermost mark's stack height when the suspension was made)
  /// and the top, *after* the op's operands were popped — restoring is
  /// resize(base) + append(slice) + push(new result).
  struct Susp {
    enum class Kind : std::uint8_t {
      Drive,  // a kernel Gen driven in place (invoke body, escape, range)
      Range,  // inline all-small-int to-by (no Gen, no allocation)
      Alt,    // e1 | e2: one-shot jump to the second branch
      Ralt,   // |e: re-run e while each pass produced something
      Limit,  // e\n bookkeeping record (never itself produces)
    };
    // Field order is deliberate: everything the Efail resolution loop
    // reads for a Range resume (the single hottest backtracking path)
    // sits in the first cache line, ahead of the slice vector and the
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
    std::int64_t remaining = 0;                      // Limit
    std::vector<Entry> slice;
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
    std::int32_t bodyMarkIdx;  // marks_ index of the current body mark (-1 outside body)
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
    void resize(std::size_t n) noexcept {
      while (live_ > n) pop_back();
    }
    void clear() noexcept { resize(0); }

   private:
    static void retire(Susp& s) noexcept {
      s.slice.clear();  // destroys the entries, keeps the capacity
      s.gen.reset();
    }
    std::vector<Susp> store_;
    std::size_t live_ = 0;
  };

  bool run(Result& out);

  /// Shrink the value stack to `h` entries. pop_back in a loop inlines
  /// (vector::resize routes through out-of-line erase machinery, which
  /// showed up in backtracking-heavy profiles).
  void shrinkStack(std::size_t h) {
    while (stack_.size() > h) stack_.pop_back();
  }

  /// Append a suspension's saved slice (the body of vector::insert,
  /// inlined for the same reason).
  void appendSlice(const std::vector<Entry>& slice) {
    for (const Entry& e : slice) stack_.push_back(e);
  }

  /// True when the live entry is bit-identical to the saved one: same
  /// payload (a Value copy reproduces the exact 16 bytes, including the
  /// payload pointer) and same ref. Indeterminate trailing bytes can
  /// only produce a false negative, which costs a copy, never
  /// correctness.
  static bool sameEntry(const Entry& live, const Entry& saved) noexcept {
    return std::memcmp(&live.v, &saved.v, sizeof(Value)) == 0 &&
           live.ref.get() == saved.ref.get();
  }

  /// Restore `slice` above `base`, keeping any prefix of the live stack
  /// that is identical to the saved entries. Backtracking usually fails
  /// with most of the saved region untouched (a failed call consumed
  /// only its own operands), so the common restore copies nothing —
  /// which matters: each copied entry is a refcount bump now and a
  /// release on the next unwind, paid per backtracking step.
  void restoreSlice(std::size_t base, const std::vector<Entry>& slice) {
    const std::size_t above = stack_.size() > base ? stack_.size() - base : 0;
    const std::size_t limit = above < slice.size() ? above : slice.size();
    std::size_t keep = 0;
    while (keep < limit && sameEntry(stack_[base + keep], slice[keep])) ++keep;
    shrinkStack(base + keep);
    for (std::size_t i = keep; i < slice.size(); ++i) stack_.push_back(slice[i]);
  }

  /// Drive resume_.back()'s gen once. Returns true when the machine
  /// yields (out filled); otherwise sets `flow` (Forward after a plain
  /// result was restored+pushed, Efail after the gen failed and the
  /// suspension was popped).
  bool driveTop(Result& out, Flow& flow);

  /// Restore a suspension's saved stack and push the new result.
  void restoreAndPush(const Susp& s, Value v, VarPtr ref);

  void popSusp();
  void truncResume(std::int32_t h);
  void performBreak(std::int32_t depth);
  [[nodiscard]] Flow performNext(std::int32_t depth, bool inBody);

  /// &error conversion: unwind everything belonging to the handler op's
  /// operand span, leaving the machine ready to efail as that op's
  /// failure. False = no handler / no credit (rethrow).
  bool convertError(const IconError& e);

  [[nodiscard]] std::int32_t markBase() const noexcept {
    return marks_.empty() ? 0 : marks_.back().valH;
  }

  /// Periodic fuel sync: charge the dispatches since the last sync to
  /// the ambient governor (throws 810/816 on a trip) and re-arm
  /// stepLimitTrip_ one interval ahead. The trip counter is ALWAYS
  /// finite so a governor installed mid-run is honored within one
  /// interval; when no governor enforces fuel the sync is one relaxed
  /// load per interval — noise.
  void syncFuel();

  Susp& pushSusp(Susp::Kind kind);

  /// The kernel node for one escape site.
  [[nodiscard]] GenPtr buildEscape(const EscapeSite& site);
  /// A sub-machine for one operand chunk — or, when the chunk is a single
  /// load (`@c`, `s ? ...`, `x <- 1`), the ConstGen/VarGen that load
  /// stands for: same results, a fraction of a machine's cost per drive.
  [[nodiscard]] GenPtr operandGen(const ChunkPtr& chunk);
  /// The factory behind a `<>`, `|<>` or `|>` site: each call runs the
  /// body chunk on a new frame built from this activation's.
  [[nodiscard]] GenFactory bodyFactory(const ChunkPtr& body);

  Interpreter& interp_;
  ChunkPtr chunk_;
  FramePtr frame_;
  std::vector<GenPtr> escapes_;  // one kernel node per escape site

  std::vector<Entry> stack_;
  SuspStack resume_;
  std::vector<MarkRec> marks_;
  std::vector<LoopRec> loops_;
  std::vector<ICEntry> ics_;
  std::vector<Value> argScratch_;
  std::int32_t pc_ = 0;      // next instruction
  std::int32_t curPc_ = 0;   // instruction being executed (error attribution)
  std::int32_t auxTop_ = -1;
  Phase phase_ = Phase::Start;
  std::uint64_t steps_ = 0;
  // The VM's fuel batch: dispatches between governor syncs. It bounds
  // the fuel-budget overrun per VmGen the same way the kernel's
  // thread-local step batch does per thread.
  static constexpr std::uint64_t kFuelSyncInterval = 8192;
  std::uint64_t stepLimitTrip_ = kFuelSyncInterval;
  std::uint64_t fuelSyncBase_ = 0;  // steps_ already charged to the governor

  // Local metric tallies, flushed once per doNext (obs::VmStats).
  // Dispatch counts ride on steps_ deltas; only the IC tallies need
  // their own counters.
  std::uint64_t icHitTally_ = 0, icMissTally_ = 0;
};

}  // namespace congen::interp::vm
