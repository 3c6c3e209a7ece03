// vm.cpp — VmGen's dispatch loop. The machine's semantics are pinned to
// emitted code's at three seams:
//
//  * every value operation (binary/unary/index/field/slice/assign/swap)
//    goes through the shared kernel/ops helpers — agreement by
//    construction. Assignments, subscripts and null tests use their
//    in-place forms (storeInto, augAssignInPlace, swapInPlace,
//    indexInPlace, passesNullTest) on the stack entries; the *Tuple
//    wrappers the kernel nodes call are built on the same functions;
//  * constructs the compiler doesn't flatten run as the same kernel
//    nodes emitted code builds, over operand sub-machines, through
//    Drive suspensions;
//  * everything else (failure order, limits, loops, &error conversion)
//    is covered by the conformance corpus and the VM-vs-emitted
//    differential suite in tests/interp.
//
// Failure resolution: kEfail (or any failed op) resumes the newest
// suspension above the innermost mark's recorded resume height; an
// exhausted region pops the mark, truncates both stacks to the mark's
// heights, and jumps to the mark's failure pc. Resuming a suspension
// restores its saved slice of the value stack, so arbitrary
// mid-expression state survives backtracking.

#include "interp/vm.hpp"

#include <utility>

#include "concur/pipe.hpp"
#include "kernel/basic.hpp"
#include "kernel/coexpression.hpp"
#include "kernel/compose.hpp"
#include "kernel/control.hpp"
#include "kernel/error_env.hpp"
#include "kernel/ops.hpp"
#include "kernel/scan.hpp"
#include "obs/runtime_stats.hpp"
#include "runtime/collections.hpp"
#include "runtime/error.hpp"
#include "runtime/governor.hpp"

namespace congen::interp::vm {

VmGen::VmGen(Interpreter& interp, ChunkPtr chunk, FramePtr frame)
    : interp_(interp), chunk_(std::move(chunk)), frame_(std::move(frame)) {
  ics_.resize(static_cast<std::size_t>(chunk_->nCaches));
  stack_.reserve(16);
  resume_.reserve(8);
  marks_.reserve(8);
  escapes_.reserve(chunk_->escapes.size());
  for (const auto& site : chunk_->escapes) escapes_.push_back(buildEscape(site));
}

GenPtr VmGen::operandGen(const ChunkPtr& c) {
  if (c->code.size() == 2 && c->code[1].op == Op::kYield) {
    const Insn& load = c->code[0];
    switch (load.op) {
      case Op::kConst: return ConstGen::create(c->consts[static_cast<std::size_t>(load.a)]);
      case Op::kLoadVar: return VarGen::create(c->vars[static_cast<std::size_t>(load.a)]);
      case Op::kLoadSlot:
      case Op::kLoadLate: return VarGen::create(frame_->var(static_cast<std::size_t>(load.a)));
      default: break;
    }
  }
  return create(interp_, c, frame_);
}

/// Each call builds the body's frame from its captures (§9 of
/// docs/INTERNALS.md). A late slot that names a global at that moment —
/// a LateBoundVar that finds one, or a creator slot already settled to
/// it — shares the global; one acting as a local is copied like any
/// local and stays local, even if a global of its name appears later.
GenFactory VmGen::bodyFactory(const ChunkPtr& body) {
  // Keep only the creator's cells the body names — never the frame.
  std::vector<VarPtr> from;
  for (const Capture& c : body->captures) {
    from.push_back(c.mode == Capture::Mode::Fresh ? nullptr
                                                  : frame_->var(static_cast<std::size_t>(c.slot)));
  }
  return [&interp = interp_, body, from = std::move(from)]() -> GenPtr {
    auto frame = std::make_shared<Frame>(static_cast<std::size_t>(body->nSlots));
    for (std::size_t i = 0; i < from.size(); ++i) {
      const Capture& c = body->captures[i];
      const auto slot = static_cast<std::size_t>(c.slot);
      if (c.mode == Capture::Mode::Share) {
        frame->bind(slot, from[i]);
        continue;
      }
      VarPtr global = c.late ? interp.globalScope()->lookup(c.name) : nullptr;
      if (global != nullptr && (from[i] == nullptr || from[i] == global ||
                                dynamic_cast<const LateBoundVar*>(from[i].get()) != nullptr)) {
        frame->bind(slot, std::move(global));
      } else {
        frame->bind(slot, CellVar::create(from[i] != nullptr ? from[i]->get() : Value::null()));
      }
    }
    return create(interp, body, std::move(frame));
  };
}

GenPtr VmGen::buildEscape(const EscapeSite& site) {
  const ast::Node& n = *site.node;
  if (n.kind == ast::Kind::Unary && n.text != "@" && n.text != "^") {
    GenFactory body = bodyFactory(site.operands[0]);
    if (n.text == "|>") return makePipeCreateGen(std::move(body));
    return CoExprCreateGen::create(std::move(body));  // <>, |<>
  }
  std::vector<GenPtr> ops;
  ops.reserve(site.operands.size());
  for (const auto& c : site.operands) ops.push_back(operandGen(c));
  switch (n.kind) {
    case ast::Kind::KeywordVar:
      if (n.text == "subject") return makeSubjectVarGen();
      if (n.text == "error") return makeErrorVarGen();
      if (n.text == "errornumber") return makeErrorNumberVarGen();
      if (n.text == "errorvalue") return makeErrorValueVarGen();
      return makePosVarGen();
    case ast::Kind::Binary: return ScanGen::create(std::move(ops[0]), std::move(ops[1]));
    case ast::Kind::Assign: return makeRevAssignGen(std::move(ops[0]), std::move(ops[1]));
    case ast::Kind::Swap: return makeRevSwapGen(std::move(ops[0]), std::move(ops[1]));
    case ast::Kind::CaseStmt: {
      std::vector<CaseGen::Branch> branches;
      std::size_t k = 1;
      for (std::size_t i = 1; i < n.kids.size(); ++i) {
        CaseGen::Branch branch;
        if (n.kids[i]->text != "default") branch.value = std::move(ops[k++]);
        branch.body = std::move(ops[k++]);
        branches.push_back(std::move(branch));
      }
      return CaseGen::create(std::move(ops[0]), std::move(branches));
    }
    default:
      break;
  }
  if (n.text == "@") return ActivateGen::create(std::move(ops[0]));
  return RefreshGen::create(std::move(ops[0]));  // ^
}

void VmGen::syncFuel() {
  // Bulk-charge the dispatches accumulated since the last sync. Unlike
  // kernel nodes (which batch through the thread-local cell), the VM
  // owns its own counter, so it charges the governor directly — one
  // cold call per kFuelSyncInterval dispatches. The ambient governor is
  // re-read every sync: a setquota() mid-run, or a supervisor
  // terminate(), takes effect within one interval.
  if (governor::stepActive()) {
    if (auto* gov = governor::current()) {
      const std::uint64_t delta = steps_ - fuelSyncBase_;
      fuelSyncBase_ = steps_;  // recorded even if the charge trips
      gov->chargeSteps(delta);
    }
  }
  stepLimitTrip_ = steps_ + kFuelSyncInterval;
}

bool VmGen::doNext(Result& out) {
  if (!obs::metricsEnabled()) [[likely]] return run(out);
  icHitTally_ = icMissTally_ = 0;
  const std::uint64_t stepsBefore = steps_;  // steps_ counts dispatches exactly
  const bool ok = run(out);
  auto& s = obs::VmStats::get();
  if (steps_ != stepsBefore) s.dispatches.add(steps_ - stepsBefore);
  if (icHitTally_ != 0) s.icacheHits.add(icHitTally_);
  if (icMissTally_ != 0) s.icacheMisses.add(icMissTally_);
  return ok;
}

void VmGen::doRestart() {
  stack_.clear();
  resume_.clear();
  marks_.clear();
  loops_.clear();
  argScratch_.clear();
  auxTop_ = -1;
  pc_ = curPc_ = 0;
  steps_ = 0;
  fuelSyncBase_ = 0;
  stepLimitTrip_ = kFuelSyncInterval;
  phase_ = Phase::Start;
  for (auto& g : escapes_) g->restart();
  // Inline caches deliberately survive restarts: the scope-version check
  // keeps them correct, and pooled activations reuse the warm entries.
}

void VmGen::restoreAndPush(const Susp& s, Value v, VarPtr ref) {
  restoreSlice(static_cast<std::size_t>(s.base), s.slice);
  stack_.emplace_back(std::move(v), std::move(ref));
}

VmGen::Susp& VmGen::pushSusp(Susp::Kind kind) {
  // The record may be a retired one whose slice kept its capacity;
  // every scalar field is reinitialized here (retire() already cleared
  // slice and gen), so nothing of the previous occupant shows through.
  Susp& s = resume_.push();
  s.kind = kind;
  s.ascending = true;
  s.produced = false;
  s.opPc = curPc_;
  s.base = markBase();
  s.fastCur = s.fastLimit = s.fastStep = 0;
  s.prevAux = -1;
  s.escapeIdx = -1;
  s.target = -1;
  s.depth = -1;
  s.remaining = 0;
  s.slice.assign(stack_.begin() + s.base, stack_.end());
  return s;
}

void VmGen::popSusp() {
  if (auxTop_ == static_cast<std::int32_t>(resume_.size()) - 1) {
    auxTop_ = resume_.back().prevAux;
  }
  resume_.pop_back();
}

void VmGen::truncResume(std::int32_t h) {
  while (auxTop_ >= h) auxTop_ = resume_[static_cast<std::size_t>(auxTop_)].prevAux;
  resume_.resize(static_cast<std::size_t>(h));
}

void VmGen::performBreak(std::int32_t depth) {
  const LoopRec rec = loops_[static_cast<std::size_t>(depth)];
  marks_.resize(static_cast<std::size_t>(rec.marksH));
  truncResume(rec.suspH);
  shrinkStack(static_cast<std::size_t>(rec.valH));
  loops_.resize(static_cast<std::size_t>(depth));
  // Caller efails: a broken loop contributes no value (LoopGen parity).
}

VmGen::Flow VmGen::performNext(std::int32_t depth, bool inBody) {
  const LoopRec rec = loops_[static_cast<std::size_t>(depth)];
  if (inBody) {
    // `next` from the body: abandon the body region (its mark's failure
    // pc is exactly the loop's continue point) but keep the control
    // expression's suspensions below it alive.
    const MarkRec m = marks_[static_cast<std::size_t>(rec.bodyMarkIdx)];
    pc_ = m.failPc;
    truncResume(m.suspH);
    shrinkStack(static_cast<std::size_t>(m.valH));
    marks_.resize(static_cast<std::size_t>(rec.bodyMarkIdx));
    loops_.resize(static_cast<std::size_t>(depth) + 1);
    return Flow::Forward;
  }
  // `next` from inside the control expression (via an escape operand).
  marks_.resize(static_cast<std::size_t>(rec.marksH));
  truncResume(rec.suspH);
  shrinkStack(static_cast<std::size_t>(rec.valH));
  const LoopShape& shape = chunk_->loops[static_cast<std::size_t>(rec.shapeIdx)];
  if (shape.topPc >= 0) {
    // while/until/repeat re-evaluate the control from the top.
    loops_.resize(static_cast<std::size_t>(depth) + 1);
    pc_ = shape.topPc;
    return Flow::Forward;
  }
  // `every <e containing next>`: emitted code's LoopGen livelocks here
  // (the signal re-drives the same control state forever); the machine
  // ends the loop instead. Documented divergence (docs/INTERNALS.md).
  loops_.resize(static_cast<std::size_t>(depth));
  return Flow::Efail;
}

bool VmGen::driveTop(Result& out, Flow& flow) {
  Susp& s = resume_.back();
  curPc_ = s.opPc;
  Result r;
  bool produced;
  if (s.escapeIdx >= 0) {
    const EscapeSite& site = chunk_->escapes[static_cast<std::size_t>(s.escapeIdx)];
    try {
      produced = s.gen->next(r);
    } catch (const BreakSignal&) {
      if (site.loopDepth < 0) throw;  // no enclosing compiled loop: propagate
      performBreak(site.loopDepth);
      flow = Flow::Efail;
      return false;
    } catch (const NextSignal&) {
      if (site.loopDepth < 0) throw;
      flow = performNext(site.loopDepth, site.inLoopBody);
      return false;
    }
  } else {
    produced = s.gen->next(r);
  }
  if (!produced) {
    popSusp();
    flow = Flow::Efail;
    return false;
  }
  if (r.flags != Result::kNone) {
    // suspend/return/fail escaping a driven body (escape operands inside
    // procedure bodies): yield it as this activation's result. Return
    // and fail also terminate the activation; suspend re-drives.
    phase_ = (r.flags & (Result::kReturn | Result::kFailBody)) != 0 ? Phase::Done : Phase::ReDrive;
    out = std::move(r);
    return true;
  }
  pc_ = s.opPc + 1;
  restoreAndPush(s, std::move(r.value), std::move(r.ref));
  flow = Flow::Forward;
  return false;
}

bool VmGen::convertError(const IconError& e) {
  if (curPc_ < 0 || static_cast<std::size_t>(curPc_) >= chunk_->convHandler.size()) return false;
  const std::int32_t h = chunk_->convHandler[static_cast<std::size_t>(curPc_)];
  if (h < 0) return false;
  if (!ErrorEnv::convertToFailure(e)) return false;
  // Unwind everything created inside the handler op's operand span
  // [bracket, handler]. All such records are contiguous at the tops of
  // their stacks (anything pushed while executing span pcs carries a
  // span pc). The value stack needs no explicit cleanup: the efail that
  // follows resumes below the span or truncates at a surviving mark.
  const std::int32_t lo = chunk_->code[static_cast<std::size_t>(h)].b;
  const std::int32_t hi = h;
  while (!resume_.empty() && resume_.back().opPc >= lo && resume_.back().opPc <= hi) popSusp();
  while (!marks_.empty() && marks_.back().markPc >= lo && marks_.back().markPc <= hi) {
    marks_.pop_back();
  }
  while (!loops_.empty() && loops_.back().beginPc >= lo && loops_.back().beginPc <= hi) {
    loops_.pop_back();
  }
  return true;
}

// Dispatch strategy: the forward loop is token-threaded. Every op body
// ends by fetching and computing `goto *kOpLabels[op]` *inline* (VM_NEXT
// replicates the fetch), so each opcode gets its own indirect branch and
// the predictor learns per-op successor patterns — funnelling every
// transition through one shared fetch site (a switch loop) would alias
// them all onto a single branch. Every dispatched instruction counts
// exactly one steps_ increment.
#define VM_OP(name) op_##name:
// Replicated fetch: one steps_ tick per dispatch; the cold periodic fuel
// sync is shared via vm_step_limit.
//
// INVARIANT: no local with a non-trivial destructor may be in scope at
// a VM_NEXT() — the computed goto is a GNU extension and does NOT run
// destructors when it leaves their block (unlike the plain goto behind
// VM_FAIL(), which does). An owning Result/Value local alive at VM_NEXT
// leaks its reference silently. Op bodies therefore close an inner
// brace over any such locals before dispatching.
#define VM_NEXT()                                               \
  do {                                                          \
    curPc_ = pc_;                                               \
    ins = &code[pc_++];                                         \
    if (++steps_ >= stepLimitTrip_) goto vm_step_limit;         \
    goto* kOpLabels[static_cast<std::size_t>(ins->op)];         \
  } while (0)
#define VM_FAIL() goto vm_fail

bool VmGen::run(Result& out) {
  Flow flow = Flow::Forward;
  switch (phase_) {
    case Phase::Done:
      return false;
    case Phase::Start:
      pc_ = 0;
      flow = Flow::Forward;
      break;
    case Phase::Backtrack:
      flow = Flow::Efail;
      break;
    case Phase::ReDrive: {
      // The previous result was a flagged drive product (suspend through
      // an escape operand); re-drive that same gen.
      if (driveTop(out, flow)) return true;
      break;
    }
  }

  const Insn* code = chunk_->code.data();
  // Indexed by Op; order must mirror the enum (pinned by the assert).
  static const void* const kOpLabels[] = {
      &&op_kConst,      &&op_kLoadVar,  &&op_kLoadSlot,     &&op_kLoadLate,
      &&op_kPop,        &&op_kMark,     &&op_kUnmark,       &&op_kJump,
      &&op_kEfail,      &&op_kYield,    &&op_kSuspend,      &&op_kReturn,
      &&op_kFailBody,   &&op_kBinOp,    &&op_kUnOp,         &&op_kAssign,
      &&op_kAugAssign,  &&op_kSwap,     &&op_kIndex,        &&op_kField,
      &&op_kSlice,      &&op_kListLit,  &&op_kInvoke,       &&op_kToBy,
      &&op_kPromote,    &&op_kIn,       &&op_kAltBegin,     &&op_kRaltBegin,
      &&op_kRaltNote,   &&op_kLimitBegin, &&op_kLimitExit,  &&op_kLoopBegin,
      &&op_kLoopBodyMark, &&op_kLoopEnd, &&op_kBreak,       &&op_kNext,
      &&op_kThrowBreak, &&op_kThrowNext, &&op_kEscape,
  };
  static_assert(sizeof(kOpLabels) / sizeof(kOpLabels[0]) == kOpCount,
                "dispatch table out of sync with the Op enum");
  const Insn* ins = nullptr;
  for (;;) {
    try {
      for (;;) {
        if (flow == Flow::Efail) {
          bool resolved = false;
          while (!resolved) {
            const std::int32_t floor = marks_.empty() ? 0 : marks_.back().suspH;
            if (static_cast<std::int32_t>(resume_.size()) > floor) {
              Susp& s = resume_.back();
              switch (s.kind) {
                case Susp::Kind::Drive: {
                  Flow f = Flow::Forward;
                  if (driveTop(out, f)) return true;
                  if (f == Flow::Forward) resolved = true;
                  break;
                }
                case Susp::Kind::Range: {
                  std::int64_t nxt = 0;
                  if (__builtin_add_overflow(s.fastCur, s.fastStep, &nxt) ||
                      (s.ascending ? nxt > s.fastLimit : nxt < s.fastLimit)) {
                    popSusp();
                  } else {
                    s.fastCur = nxt;
                    pc_ = s.opPc + 1;
                    restoreSlice(static_cast<std::size_t>(s.base), s.slice);
                    stack_.emplace_back(Value::integer(nxt), nullptr);
                    resolved = true;
                  }
                  break;
                }
                case Susp::Kind::Alt: {
                  // One shot: jump to the right branch with the left's
                  // entry stack restored.
                  pc_ = s.target;
                  restoreSlice(static_cast<std::size_t>(s.base), s.slice);
                  popSusp();
                  resolved = true;
                  break;
                }
                case Susp::Kind::Ralt: {
                  if (s.produced) {
                    // Last pass produced something: run e again.
                    s.produced = false;
                    pc_ = s.opPc + 1;
                    restoreSlice(static_cast<std::size_t>(s.base), s.slice);
                    resolved = true;
                  } else {
                    popSusp();
                  }
                  break;
                }
                case Susp::Kind::Limit: {
                  popSusp();  // bookkeeping only; failure flows past it
                  break;
                }
              }
            } else if (!marks_.empty()) {
              const MarkRec m = marks_.back();
              marks_.pop_back();
              truncResume(m.suspH);
              shrinkStack(static_cast<std::size_t>(m.valH));
              pc_ = m.failPc;
              resolved = true;
            } else {
              phase_ = Phase::Done;
              return false;  // machine failure; Gen auto-restart re-arms
            }
          }
          flow = Flow::Forward;
          continue;
        }

        // Forward dispatch. Within an op body: VM_NEXT() executes the
        // next instruction, VM_FAIL() efails the current one, `return`
        // yields. Jump ops assign pc_ directly.
        VM_NEXT();
      vm_step_limit:
        // Not a limit at all: the periodic fuel sync point. syncFuel may
        // throw the typed 810/816 quota error (caught by the handler
        // below like any run-time error — &error conversion applies);
        // otherwise re-dispatch the already-fetched instruction.
        syncFuel();
        goto* kOpLabels[static_cast<std::size_t>(ins->op)];
            VM_OP(kConst)
              stack_.emplace_back(chunk_->consts[static_cast<std::size_t>(ins->a)], nullptr);
              VM_NEXT();
            VM_OP(kLoadVar) {
              const VarPtr& v = chunk_->vars[static_cast<std::size_t>(ins->a)];
              const Value* c = v->cell();  // plain cells skip the virtual get
              if (ins->b != 0) {
                // Consumer is ref-oblivious.
                stack_.emplace_back(c != nullptr ? *c : v->get(), nullptr);
              } else {
                stack_.emplace_back(c != nullptr ? *c : v->get(), v);
              }
              VM_NEXT();
            }
            VM_OP(kLoadSlot) {
              const VarPtr& v = frame_->var(static_cast<std::size_t>(ins->a));
              const Value* c = v->cell();
              if (ins->b != 0) {
                stack_.emplace_back(c != nullptr ? *c : v->get(), nullptr);
              } else {
                stack_.emplace_back(c != nullptr ? *c : v->get(), v);
              }
              VM_NEXT();
            }
            VM_OP(kLoadLate) {
              // The yielded ref is always the LateBoundVar (assignment
              // through it re-resolves); the cache accelerates the value
              // read only. Version is read before resolving, so a racing
              // declare makes the entry stale, never wrong.
              const VarPtr& lv = frame_->var(static_cast<std::size_t>(ins->a));
              ICEntry& ic = ics_[static_cast<std::size_t>(ins->b)];
              const std::uint64_t ver = interp_.globalScope()->version();
              if (ic.ver != ver) {
                ++icMissTally_;
                ic.target = static_cast<LateBoundVar*>(lv.get())->target();
                ic.ver = ver;
              } else {
                ++icHitTally_;
              }
              stack_.emplace_back(ic.target->get(), lv);
              VM_NEXT();
            }
            VM_OP(kPop)
              stack_.pop_back();
              VM_NEXT();
            VM_OP(kMark)
              marks_.push_back({ins->a, static_cast<std::int32_t>(resume_.size()),
                                static_cast<std::int32_t>(stack_.size()), curPc_});
              VM_NEXT();
            VM_OP(kUnmark) {
              // Leave the bounded expression's single result; drop its
              // pending resumptions (the expression is bounded).
              const MarkRec m = marks_.back();
              marks_.pop_back();
              truncResume(m.suspH);
              VM_NEXT();
            }
            VM_OP(kJump)
              pc_ = ins->a;
              VM_NEXT();
            VM_OP(kEfail)
              VM_FAIL();
            VM_OP(kYield) {
              Entry& e = stack_.back();
              out.value = std::move(e.v);
              out.ref = std::move(e.ref);
              out.flags = Result::kNone;
              stack_.pop_back();
              phase_ = Phase::Backtrack;
              return true;
            }
            VM_OP(kSuspend) {
              Entry& e = stack_.back();
              out.value = std::move(e.v);
              out.ref = std::move(e.ref);
              out.flags = Result::kSuspend;
              stack_.pop_back();
              phase_ = Phase::Backtrack;
              return true;
            }
            VM_OP(kReturn) {
              Entry& e = stack_.back();
              out.value = std::move(e.v);
              out.ref = std::move(e.ref);
              out.flags = Result::kReturn;
              stack_.pop_back();
              phase_ = Phase::Done;
              return true;
            }
            VM_OP(kFailBody)
              out.set(Value::null(), nullptr, Result::kFailBody);
              phase_ = Phase::Done;
              return true;
            VM_OP(kBinOp) {
              const std::size_t n = stack_.size();
              Entry& ea = stack_[n - 2];
              Entry& eb = stack_[n - 1];
              if (ea.v.isSmallInt() && eb.v.isSmallInt()) {
                // Small-int fast path. Must match the generic ops path
                // exactly: arithmetic falls back on overflow (BigInt
                // promotion), comparisons yield the right operand or
                // fail. Everything else drops to applyBinary below.
                const std::int64_t x = ea.v.smallInt(), y = eb.v.smallInt();
                std::int64_t r = 0;
                bool handled = true, isCmp = false, cmp = false;
                switch (static_cast<BinKind>(ins->a)) {
                  case BinKind::Add: handled = !__builtin_add_overflow(x, y, &r); break;
                  case BinKind::Sub: handled = !__builtin_sub_overflow(x, y, &r); break;
                  case BinKind::Mul: handled = !__builtin_mul_overflow(x, y, &r); break;
                  case BinKind::NumLT: isCmp = true; cmp = x < y; break;
                  case BinKind::NumLE: isCmp = true; cmp = x <= y; break;
                  case BinKind::NumGT: isCmp = true; cmp = x > y; break;
                  case BinKind::NumGE: isCmp = true; cmp = x >= y; break;
                  case BinKind::NumEQ: isCmp = true; cmp = x == y; break;
                  case BinKind::NumNE: isCmp = true; cmp = x != y; break;
                  default: handled = false; break;
                }
                if (handled) {
                  if (isCmp) {
                    if (!cmp) {
                      shrinkStack(n - 2);
                      VM_FAIL();  // comparison failed: goal-directed failure
                    }
                    r = y;
                  }
                  stack_.pop_back();
                  ea.v = Value::integer(r);
                  ea.ref = nullptr;
                  VM_NEXT();
                }
              }
              {
                auto res = applyBinary(static_cast<BinKind>(ins->a), ea.v, eb.v);
                if (!res) {
                  shrinkStack(n - 2);
                  VM_FAIL();
                }
                stack_.pop_back();
                ea.v = std::move(*res);
                ea.ref = nullptr;
              }
              VM_NEXT();
            }
            VM_OP(kUnOp) {
              const auto k = static_cast<UnKind>(ins->a);
              if (k == UnKind::NonNull || k == UnKind::IfNull) {
                // The entry is the result as it stands, or there is none.
                if (!passesNullTest(k, stack_.back().v)) {
                  stack_.pop_back();
                  VM_FAIL();
                }
                VM_NEXT();
              }
              {
                Entry& t = stack_.back();
                Result opnd(std::move(t.v), std::move(t.ref));
                auto res = applyUnary(k, opnd);
                if (!res) {
                  stack_.pop_back();
                  VM_FAIL();
                }
                t.v = std::move(res->value);
                t.ref = std::move(res->ref);
              }
              VM_NEXT();
            }
            // Assignments work in place: the left entry becomes the
            // result, keeping its ref (the variable assigned through),
            // and the right entry is popped.
            VM_OP(kAssign) {
              const std::size_t n = stack_.size();
              Entry& l = stack_[n - 2];
              storeInto(l.ref, stack_[n - 1].v);
              l.v = std::move(stack_[n - 1].v);
              stack_.pop_back();
              VM_NEXT();
            }
            VM_OP(kAugAssign) {
              const std::size_t n = stack_.size();
              Entry& l = stack_[n - 2];
              if (!augAssignInPlace(static_cast<BinKind>(ins->a), l.v, l.ref, stack_[n - 1].v)) {
                shrinkStack(n - 2);
                VM_FAIL();
              }
              stack_.pop_back();
              VM_NEXT();
            }
            VM_OP(kSwap) {
              const std::size_t n = stack_.size();
              Entry& l = stack_[n - 2];
              swapInPlace(l.v, l.ref, stack_[n - 1].ref);
              stack_.pop_back();
              VM_NEXT();
            }
            VM_OP(kIndex) {
              // The collection entry becomes the element. a=1: nothing
              // reads the element's variable (compiler.cpp), so no
              // trapped variable is built.
              const std::size_t n = stack_.size();
              Entry& c = stack_[n - 2];
              const bool stripped = ins->a != 0;
              if (!indexInPlace(c.v, stack_[n - 1].v, stripped ? nullptr : &c.ref)) {
                shrinkStack(n - 2);
                VM_FAIL();
              }
              if (stripped) c.ref = nullptr;
              stack_.pop_back();
              VM_NEXT();
            }
            VM_OP(kField) {
              {
                Entry& t = stack_.back();
                Result o(std::move(t.v), std::move(t.ref));
                auto res = fieldTuple(o, chunk_->consts[static_cast<std::size_t>(ins->a)].str());
                if (!res) {
                  stack_.pop_back();
                  VM_FAIL();
                }
                t.v = std::move(res->value);
                t.ref = std::move(res->ref);
              }
              VM_NEXT();
            }
            VM_OP(kSlice) {
              {
                const std::size_t n = stack_.size();
                auto res = sliceTuple(stack_[n - 3].v, stack_[n - 2].v, stack_[n - 1].v);
                if (!res) {
                  shrinkStack(n - 3);
                  VM_FAIL();
                }
                shrinkStack(n - 2);
                Entry& dst = stack_.back();
                dst.v = std::move(*res);
                dst.ref = nullptr;
              }
              VM_NEXT();
            }
            VM_OP(kListLit) {
              {
                const std::size_t n = stack_.size();
                const std::size_t first = n - static_cast<std::size_t>(ins->a);
                auto list = ListImpl::create();
                for (std::size_t i = first; i < n; ++i) list->put(stack_[i].v);
                shrinkStack(first);
                stack_.emplace_back(Value::list(std::move(list)), nullptr);
              }
              VM_NEXT();
            }
            VM_OP(kInvoke) {
              const std::size_t n = stack_.size();
              const std::size_t nargs = static_cast<std::size_t>(ins->a);
              const std::size_t calleeIdx = n - 1 - nargs;
              // Borrow the callee in place — the resize below is what
              // destroys its stack entry, so every use of `f` must come
              // first. Moving it out instead costs a variant move + an
              // extra destroy per call, which backtracking pays per
              // candidate.
              const Value& f = stack_[calleeIdx].v;
              if (!f.isProc()) throw errCallableExpected(f.image());
              if (argScratch_.size() == nargs) {
                // Reuse the scratch storage: move-assign over the old
                // args instead of destroy + reconstruct.
                for (std::size_t i = 0; i < nargs; ++i) {
                  argScratch_[i] = std::move(stack_[calleeIdx + 1 + i].v);
                }
              } else {
                argScratch_.clear();
                argScratch_.reserve(nargs);
                for (std::size_t i = calleeIdx + 1; i < n; ++i) {
                  argScratch_.push_back(std::move(stack_[i].v));  // resized away below
                }
              }
              if (const auto& nf = f.proc()->nativeFn()) {
                {
                  // At-most-one-result native: no suspension needed.
                  auto r = nf(argScratch_);
                  if (!r) {
                    // Keep the callee: the efail resolution truncates the
                    // stack anyway, and a backtracking restore whose slice
                    // holds this callee finds it in place (restoreSlice)
                    // instead of re-copying the proc every candidate.
                    shrinkStack(calleeIdx + 1);
                    VM_FAIL();
                  }
                  shrinkStack(calleeIdx);
                  stack_.emplace_back(std::move(*r), nullptr);
                }
                VM_NEXT();
              }
              Flow fl = Flow::Forward;
              {
                auto gen = f.proc()->invoke(std::move(argScratch_));
                argScratch_ = {};
                shrinkStack(calleeIdx);
                Susp& s = pushSusp(Susp::Kind::Drive);
                s.gen = std::move(gen);
                if (driveTop(out, fl)) return true;
              }
              if (fl == Flow::Efail) VM_FAIL();
              VM_NEXT();
            }
            VM_OP(kToBy) {
              const std::size_t n = stack_.size();
              const Value& fromV = stack_[n - 3].v;
              const Value& toV = stack_[n - 2].v;
              const Value& byV = stack_[n - 1].v;
              if (fromV.isSmallInt() && toV.isSmallInt() && byV.isSmallInt()) {
                const std::int64_t step = byV.smallInt();
                if (step == 0) throw errInvalidValue("to-by with zero step");
                const std::int64_t cur = fromV.smallInt();
                const std::int64_t lim = toV.smallInt();
                const bool asc = step > 0;
                shrinkStack(n - 3);
                if (asc ? cur > lim : cur < lim) VM_FAIL();  // empty range
                Susp& s = pushSusp(Susp::Kind::Range);
                s.fastCur = cur;
                s.fastLimit = lim;
                s.fastStep = step;
                s.ascending = asc;
                stack_.emplace_back(Value::integer(cur), nullptr);
                VM_NEXT();
              }
              Flow fl = Flow::Forward;
              {
                auto gen = RangeGen::create(fromV, toV, byV);  // may throw: type checks
                shrinkStack(n - 3);
                Susp& s = pushSusp(Susp::Kind::Drive);
                s.gen = std::move(gen);
                if (driveTop(out, fl)) return true;
              }
              if (fl == Flow::Efail) VM_FAIL();
              VM_NEXT();
            }
            VM_OP(kPromote) {
              Flow fl = Flow::Forward;
              {
                Value v = std::move(stack_.back().v);
                stack_.pop_back();
                auto gen = PromoteGen::makeElementGen(v);  // may throw: !x on a non-sequence
                Susp& s = pushSusp(Susp::Kind::Drive);
                s.gen = std::move(gen);
                if (driveTop(out, fl)) return true;
              }
              if (fl == Flow::Efail) VM_FAIL();
              VM_NEXT();
            }
            VM_OP(kIn) {
              Entry& t = stack_.back();
              const VarPtr& var = (ins->b & 1) != 0
                                      ? frame_->var(static_cast<std::size_t>(ins->a))
                                      : chunk_->vars[static_cast<std::size_t>(ins->a)];
              storeInto(var, t.v);
              // Value stays; the result becomes the variable — unless the
              // compiler proved the entry is discarded (b bit 1), which
              // skips a shared_ptr copy per backtracking step in the
              // normalized `(x in e) & rest` conjunction.
              if ((ins->b & 2) == 0) t.ref = var;
              VM_NEXT();
            }
            VM_OP(kAltBegin) {
              Susp& s = pushSusp(Susp::Kind::Alt);
              s.target = ins->a;
              VM_NEXT();  // fall into the left branch
            }
            VM_OP(kRaltBegin) {
              Susp& s = pushSusp(Susp::Kind::Ralt);
              s.depth = ins->a;
              s.prevAux = auxTop_;
              auxTop_ = static_cast<std::int32_t>(resume_.size()) - 1;
              VM_NEXT();
            }
            VM_OP(kRaltNote) {
              for (std::int32_t i = auxTop_; i >= 0;
                   i = resume_[static_cast<std::size_t>(i)].prevAux) {
                Susp& s = resume_[static_cast<std::size_t>(i)];
                if (s.kind == Susp::Kind::Ralt && s.depth == ins->a) {
                  s.produced = true;
                  break;
                }
              }
              VM_NEXT();
            }
            VM_OP(kLimitBegin) {
              std::int64_t nvals = 0;
              {
                Entry bound = std::move(stack_.back());
                stack_.pop_back();
                nvals = bound.v.requireInt64("limit bound");
              }
              if (nvals <= 0) VM_FAIL();  // e \ 0 produces nothing
              Susp& s = pushSusp(Susp::Kind::Limit);
              s.depth = ins->a;
              s.remaining = nvals;
              s.prevAux = auxTop_;
              auxTop_ = static_cast<std::int32_t>(resume_.size()) - 1;
              pc_ = ins->b;  // jump back to the limited expression
              VM_NEXT();
            }
            VM_OP(kLimitExit) {
              for (std::int32_t i = auxTop_; i >= 0;
                   i = resume_[static_cast<std::size_t>(i)].prevAux) {
                Susp& s = resume_[static_cast<std::size_t>(i)];
                if (s.kind == Susp::Kind::Limit && s.depth == ins->a) {
                  if (--s.remaining == 0) {
                    // Budget spent: drop the record and every suspension
                    // the limited expression still holds above it.
                    truncResume(i);
                  }
                  break;
                }
              }
              VM_NEXT();
            }
            VM_OP(kLoopBegin)
              loops_.push_back({static_cast<std::int32_t>(marks_.size()),
                                static_cast<std::int32_t>(resume_.size()),
                                static_cast<std::int32_t>(stack_.size()), -1, ins->a, curPc_});
              VM_NEXT();
            VM_OP(kLoopBodyMark)
              marks_.push_back({ins->a, static_cast<std::int32_t>(resume_.size()),
                                static_cast<std::int32_t>(stack_.size()), curPc_});
              loops_.back().bodyMarkIdx = static_cast<std::int32_t>(marks_.size()) - 1;
              VM_NEXT();
            VM_OP(kLoopEnd)
              loops_.pop_back();
              VM_NEXT();
            VM_OP(kBreak)
              performBreak(ins->a);
              VM_FAIL();  // a broken loop fails
            VM_OP(kNext) {
              if (performNext(ins->a, ins->b != 0) == Flow::Efail) VM_FAIL();
              VM_NEXT();
            }
            VM_OP(kThrowBreak)
              throw BreakSignal{};
            VM_OP(kThrowNext)
              throw NextSignal{};
            VM_OP(kEscape) {
              GenPtr& gen = escapes_[static_cast<std::size_t>(ins->a)];
              gen->restart();  // shared per site; one live suspension per site
              Susp& s = pushSusp(Susp::Kind::Drive);
              s.gen = gen;
              s.escapeIdx = ins->a;
              Flow fl = Flow::Forward;
              if (driveTop(out, fl)) return true;
              if (fl == Flow::Efail) VM_FAIL();
              VM_NEXT();
            }
      vm_fail:
        flow = Flow::Efail;
      }
    } catch (const IconError& e) {
      if (!convertError(e)) throw;
      flow = Flow::Efail;
    }
  }
}

#undef VM_OP
#undef VM_NEXT
#undef VM_FAIL

}  // namespace congen::interp::vm
