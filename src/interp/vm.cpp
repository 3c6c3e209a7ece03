// vm.cpp — VmGen's dispatch loop. The machine's semantics are pinned to
// emitted code's at three seams:
//
//  * every value operation (binary/unary/index/field/slice) goes through
//    the shared kernel/ops helpers — agreement by construction.
//    Subscripts and null tests use their in-place forms (indexInPlace,
//    passesNullTest), and `c[i] := e` the store rules beside them
//    (subscriptInRange, subscriptGet, storeSubscript): the element is
//    written through the collection, as its trapped variable would;
//  * constructs the compiler doesn't flatten run as the same kernel
//    nodes emitted code builds, over operand sub-machines, through
//    Drive suspensions;
//  * everything else (failure order, limits, loops, &error conversion,
//    calls) is covered by the conformance corpus and the VM-vs-emitted
//    differential suite in tests/interp.
//
// Failure resolution: kEfail (or any failed op) resumes the newest
// suspension above the running activation's innermost mark; an
// exhausted region pops the mark, truncates both stacks to the mark's
// heights, and jumps to the mark's failure pc; an activation with no
// mark and no suspension left fails its call. Resuming a suspension
// restores its saved slice of the value stack, so arbitrary
// mid-expression state survives backtracking — across calls too: a Call
// suspension's slice covers the suspended callee's region, and resuming
// it hands control back to the callee, which fails into its own
// suspensions.

#include "interp/vm.hpp"

#include <algorithm>
#include <mutex>
#include <utility>

#include "concur/pipe.hpp"
#include "interp/compiler.hpp"
#include "interp/resolver.hpp"
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

// ---------------------------------------------------------------------
// ProcCode
// ---------------------------------------------------------------------

ProcCode::ProcCode(Interpreter& in, std::string name, ast::NodePtr params, ast::NodePtr body)
    : interp(in), name_(std::move(name)), params_(std::move(params)), body_(std::move(body)) {}

const Chunk& ProcCode::compile() {
  std::call_once(once_, [&] {
    const FrameLayout layout = resolve(params_, body_, *interp.globalScope());
    ChunkCompiler cc(interp, &layout);
    chunk_ = cc.compileBody(name_, body_);
    ready_.store(chunk_.get(), std::memory_order_release);
  });
  return *chunk_;
}

// ---------------------------------------------------------------------
// Construction, slots and escapes
// ---------------------------------------------------------------------

VmGen::VmGen(Interpreter& interp, ChunkPtr chunk, FramePtr frame)
    : interp_(interp), chunk_(std::move(chunk)) {
  root_.chunk = chunk_.get();
  root_.frame = std::move(frame);
  root_.ics.resize(static_cast<std::size_t>(chunk_->nCaches));
  root_.escapes.resize(chunk_->escapes.size());
  root_.marks.reserve(8);
  stack_.reserve(16);
  resume_.reserve(8);
}

std::shared_ptr<VmGen> VmGen::call(Interpreter& interp, Value proc, std::vector<Value> args) {
  auto c = std::make_shared<Chunk>();
  c->name = "<call>";
  c->consts.reserve(args.size() + 1);
  c->consts.push_back(std::move(proc));
  for (Value& a : args) c->consts.push_back(std::move(a));
  c->code.reserve(c->consts.size() + 2);
  for (std::size_t i = 0; i < c->consts.size(); ++i) {
    c->code.push_back({Op::kConst, static_cast<std::int32_t>(i)});
  }
  c->code.push_back({Op::kInvoke, static_cast<std::int32_t>(args.size())});
  c->code.push_back({Op::kYield});
  return create(interp, std::move(c), nullptr);
}

void VmGen::layoutSlots(Act& a, Value* args, std::size_t nargs) {
  const Chunk& c = *a.chunk;
  const auto base = static_cast<std::size_t>(a.slotBase);
  const auto n = static_cast<std::size_t>(c.nSlots);
  const std::size_t np = std::min(nargs, static_cast<std::size_t>(c.nParams));
  slots_.resize(base + n);
  for (std::size_t i = 0; i < np; ++i) slots_[base + i] = std::move(args[i]);
  if (c.cellSlots.empty()) return;
  a.frame = std::make_shared<Frame>(n);
  for (const CellSlot& cs : c.cellSlots) {
    const auto slot = static_cast<std::size_t>(cs.slot);
    auto cell = std::make_shared<CellVar>(std::move(slots_[base + slot]));
    if (cs.late) {
      a.frame->bind(slot, LateBoundVar::create(cs.name, interp_.globalScope(), std::move(cell)));
    } else {
      a.frame->bind(slot, std::move(cell));
    }
  }
}

GenPtr VmGen::operandGen(const ChunkPtr& c, const FramePtr& frame) {
  if (c->code.size() == 2 && c->code[1].op == Op::kYield) {
    const Insn& load = c->code[0];
    switch (load.op) {
      case Op::kConst: return ConstGen::create(c->consts[static_cast<std::size_t>(load.a)]);
      case Op::kLoadVar: return VarGen::create(c->vars[static_cast<std::size_t>(load.a)]);
      case Op::kLoadCell:
      case Op::kLoadLate: return VarGen::create(frame->var(static_cast<std::size_t>(load.a)));
      default: break;
    }
  }
  return create(interp_, c, frame);
}

/// Each call builds the body's frame from its captures (§9 of
/// docs/INTERNALS.md). A late slot that names a global at that moment —
/// a LateBoundVar that finds one, or a creator slot already settled to
/// it — shares the global; one acting as a local is copied like any
/// local and stays local, even if a global of its name appears later.
GenFactory VmGen::bodyFactory(const ChunkPtr& body, const FramePtr& frame) {
  // Keep only the creator's cells the body names — never the frame.
  std::vector<VarPtr> from;
  for (const Capture& c : body->captures) {
    from.push_back(c.mode == Capture::Mode::Fresh ? nullptr
                                                  : frame->var(static_cast<std::size_t>(c.slot)));
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

GenPtr VmGen::buildEscape(const EscapeSite& site, const Act& a) {
  const ast::Node& n = *site.node;
  if (n.kind == ast::Kind::Unary && n.text != "@" && n.text != "^") {
    GenFactory body = bodyFactory(site.operands[0], a.frame);
    if (n.text == "|>") return makePipeCreateGen(std::move(body));
    return CoExprCreateGen::create(std::move(body));  // <>, |<>
  }
  std::vector<GenPtr> ops;
  ops.reserve(site.operands.size());
  for (const auto& c : site.operands) ops.push_back(operandGen(c, a.frame));
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

// ---------------------------------------------------------------------
// Variables of stack entries
// ---------------------------------------------------------------------

void VmGen::refSet(const Ref& r, const Value& v) {
  if (r.slot >= 0) {
    slots_[static_cast<std::size_t>(r.slot)] = v;
  } else {
    storeInto(r.var, v);
  }
}

VarPtr VmGen::materialize(Ref& r) const {
  return r.slot >= 0 ? CellVar::create(slots_[static_cast<std::size_t>(r.slot)]) : std::move(r.var);
}

void VmGen::yieldTop(Result& out, std::uint8_t flags) {
  Ref r = takeTopRef();
  out.value = std::move(stack_.back());
  stack_.pop_back();
  out.ref = r.slot >= 0 || r.var != nullptr ? materialize(r) : nullptr;
  out.flags = flags;
}

// ---------------------------------------------------------------------
// Activations
// ---------------------------------------------------------------------

void VmGen::enterCall(const Chunk& chunk, std::size_t calleeIdx, std::size_t nargs, bool stripped) {
  if (acts_.size() >= kMaxActivations) throw errDepthQuota();
  chargeDepth();  // --max-depth: one level per active call (may throw 813)
  Act& a = acts_.push();
  a.chunk = &chunk;
  a.proc = std::move(stack_[calleeIdx]);
  a.caller = cur_;
  a.retPc = pc_;
  a.callPc = curPc_;
  a.slotBase = static_cast<std::int32_t>(slots_.size());
  a.valBase = static_cast<std::int32_t>(calleeIdx);
  a.suspBase = static_cast<std::int32_t>(resume_.size());
  a.auxTop = -1;
  a.stripped = stripped;
  a.reDrive = false;
  try {
    layoutSlots(a, stack_.data() + calleeIdx + 1, nargs);
    a.escapes.resize(chunk.escapes.size());
    a.ics.resize(static_cast<std::size_t>(chunk.nCaches));
  } catch (...) {
    a.frame.reset();  // possibly half-bound
    popActsFrom(static_cast<std::size_t>(a.index));
    throw;
  }
  shrinkStack(calleeIdx);
  cur_ = &a;
  pc_ = 0;
  traceEnter(a);
}

void VmGen::traceLeave(Act& a, const Value* v) {
  if (a.traceDepth < 0) return;
  if (v != nullptr) {
    trace::produced(a.bodySpan, *v, a.traceDepth + 1);
    trace::produced(a.callSpan, *v, a.traceDepth);
  } else {
    trace::failed(a.bodySpan, a.traceDepth + 1);
    trace::failed(a.callSpan, a.traceDepth);
  }
  a.traceDepth = -1;
}

void VmGen::popActsFrom(std::size_t idx) {
  if (idx >= acts_.size()) return;
  const auto slotTop = static_cast<std::size_t>(acts_[idx].slotBase);
  // A variable still on the stack that names a dying slot keeps its
  // value in a cell of its own.
  for (Ref& r : refs_) {
    if (r.slot >= 0 && static_cast<std::size_t>(r.slot) >= slotTop) {
      r.var = materialize(r);
      r.slot = -1;
    }
  }
  while (acts_.size() > idx) {
    acts_.pop();
    releaseDepth(1);
  }
  while (slots_.size() > slotTop) slots_.pop_back();
}

void VmGen::suspendToCaller(Value v, Ref ref, bool reDrive) {
  Act& b = *cur_;
  traceLeave(b, &v);
  b.reDrive = reDrive;
  cur_ = b.caller;
  curPc_ = b.callPc;
  // The caller's resume point for b: its slice runs from the caller's
  // mark through b's whole region, which the caller is about to reuse.
  Susp& s = pushSusp(Susp::Kind::Call);
  s.callee = b.index;
  const auto at = static_cast<std::size_t>(b.valBase);
  shrinkStack(at);
  stack_.push_back(std::move(v));
  if (!b.stripped && (ref.slot >= 0 || ref.var != nullptr)) {
    ref.at = b.valBase;
    refs_.push_back(std::move(ref));
  }
  pc_ = b.retPc;
}

void VmGen::returnToCaller(Value v, Ref ref) {
  Act& b = *cur_;
  traceLeave(b, &v);
  Act* caller = b.caller;
  const auto at = static_cast<std::size_t>(b.valBase);
  const std::int32_t retPc = b.retPc;
  const bool hasRef = !b.stripped && (ref.slot >= 0 || ref.var != nullptr);
  if (hasRef && ref.slot >= 0) {
    // The slot dies with b: the caller gets a cell holding its value.
    ref.var = materialize(ref);
    ref.slot = -1;
  }
  shrinkStack(at);
  truncResume(b.suspBase);
  popActsFrom(static_cast<std::size_t>(b.index));
  cur_ = caller;
  stack_.push_back(std::move(v));
  if (hasRef) {
    ref.at = static_cast<std::int32_t>(at);
    refs_.push_back(std::move(ref));
  }
  pc_ = retPc;
}

void VmGen::leaveCallees() {
  while (cur_ != &root_) {
    curPc_ = cur_->callPc;
    failToCaller();
  }
}

void VmGen::failToCaller() {
  Act& b = *cur_;
  traceLeave(b, nullptr);
  Act* caller = b.caller;
  shrinkStack(static_cast<std::size_t>(b.valBase));
  truncResume(b.suspBase);
  popActsFrom(static_cast<std::size_t>(b.index));
  cur_ = caller;
}

// ---------------------------------------------------------------------
// Suspensions, loops, fuel
// ---------------------------------------------------------------------

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
  refs_.clear();
  stack_.clear();
  while (!resume_.empty()) resume_.pop_back();
  popActsFrom(0);
  cur_ = &root_;
  root_.marks.clear();
  root_.loops.clear();
  root_.auxTop = -1;
  root_.reDrive = false;
  argScratch_.clear();
  pc_ = curPc_ = 0;
  steps_ = 0;
  fuelSyncBase_ = 0;
  stepLimitTrip_ = kFuelSyncInterval;
  phase_ = Phase::Start;
  for (auto& g : root_.escapes) {
    if (g) g->restart();
  }
  // Inline caches deliberately survive restarts: the scope-version check
  // keeps them correct.
}

VmGen::Susp& VmGen::pushSusp(Susp::Kind kind) {
  // The record may be a retired one whose vectors kept their capacity;
  // every scalar field is reinitialized here (retire() already cleared
  // slice, refs and gen), so nothing of the previous occupant shows.
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
  s.callee = -1;
  s.remaining = 0;
  s.slice.assign(stack_.begin() + s.base, stack_.end());
  if (!refs_.empty() && refs_.back().at >= s.base) {
    std::size_t k = refs_.size();
    while (k > 0 && refs_[k - 1].at >= s.base) --k;
    s.refs.assign(refs_.begin() + static_cast<std::ptrdiff_t>(k), refs_.end());
  }
  return s;
}

void VmGen::popSusp() {
  if (cur_->auxTop == static_cast<std::int32_t>(resume_.size()) - 1) {
    cur_->auxTop = resume_.back().prevAux;
  }
  resume_.pop_back();
}

void VmGen::truncResume(std::int32_t h) {
  Act& a = *cur_;
  while (a.auxTop >= h) a.auxTop = resume_[static_cast<std::size_t>(a.auxTop)].prevAux;
  // Dropping a Call suspension ends its callee, and with it everything
  // the callee (or a later sibling) left suspended above it.
  std::int32_t cut = -1;
  while (static_cast<std::int32_t>(resume_.size()) > h) {
    if (resume_.back().kind == Susp::Kind::Call) cut = resume_.back().callee;
    resume_.pop_back();
  }
  if (cut >= 0) popActsFrom(static_cast<std::size_t>(cut));
}

void VmGen::performBreak(std::int32_t depth) {
  Act& a = *cur_;
  const LoopRec rec = a.loops[static_cast<std::size_t>(depth)];
  a.marks.resize(static_cast<std::size_t>(rec.marksH));
  truncResume(rec.suspH);
  shrinkStack(static_cast<std::size_t>(rec.valH));
  a.loops.resize(static_cast<std::size_t>(depth));
  // Caller efails: a broken loop contributes no value (LoopGen parity).
}

VmGen::Flow VmGen::performNext(std::int32_t depth, bool inBody) {
  Act& a = *cur_;
  const LoopRec rec = a.loops[static_cast<std::size_t>(depth)];
  if (inBody) {
    // `next` from the body: abandon the body region (its mark's failure
    // pc is exactly the loop's continue point) but keep the control
    // expression's suspensions below it alive.
    const MarkRec m = a.marks[static_cast<std::size_t>(rec.bodyMarkIdx)];
    pc_ = m.failPc;
    truncResume(m.suspH);
    shrinkStack(static_cast<std::size_t>(m.valH));
    a.marks.resize(static_cast<std::size_t>(rec.bodyMarkIdx));
    a.loops.resize(static_cast<std::size_t>(depth) + 1);
    return Flow::Forward;
  }
  // `next` from inside the control expression (via an escape operand).
  a.marks.resize(static_cast<std::size_t>(rec.marksH));
  truncResume(rec.suspH);
  shrinkStack(static_cast<std::size_t>(rec.valH));
  const LoopShape& shape = a.chunk->loops[static_cast<std::size_t>(rec.shapeIdx)];
  if (shape.topPc >= 0) {
    // while/until/repeat re-evaluate the control from the top.
    a.loops.resize(static_cast<std::size_t>(depth) + 1);
    pc_ = shape.topPc;
    return Flow::Forward;
  }
  // `every <e containing next>`: emitted code's LoopGen livelocks here
  // (the signal re-drives the same control state forever); the machine
  // ends the loop instead. Documented divergence (docs/INTERNALS.md).
  a.loops.resize(static_cast<std::size_t>(depth));
  return Flow::Efail;
}

bool VmGen::driveTop(Result& out, Flow& flow) {
  Susp& s = resume_.back();
  curPc_ = s.opPc;
  Result r;
  bool produced;
  if (s.escapeIdx >= 0) {
    const EscapeSite& site = cur_->chunk->escapes[static_cast<std::size_t>(s.escapeIdx)];
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
    // procedure bodies): the activation's own suspend, return or fail.
    // Return and fail also end the activation; suspend re-drives.
    const bool ends = (r.flags & (Result::kReturn | Result::kFailBody)) != 0;
    if (cur_ == &root_) {
      phase_ = ends ? Phase::Done : Phase::ReDrive;
      out = std::move(r);
      return true;
    }
    if ((r.flags & Result::kFailBody) != 0) {
      failToCaller();
      flow = Flow::Efail;
      return false;
    }
    Ref ref{-1, -1, std::move(r.ref)};
    if (ends) {
      returnToCaller(std::move(r.value), std::move(ref));
    } else {
      suspendToCaller(std::move(r.value), std::move(ref), true);
    }
    flow = Flow::Forward;
    return false;
  }
  pc_ = s.opPc + 1;
  restoreSlice(s);
  stack_.push_back(std::move(r.value));
  if (r.ref != nullptr) pushVarRef(stack_.size() - 1, std::move(r.ref));
  flow = Flow::Forward;
  return false;
}

bool VmGen::convertError(const IconError& e) {
  for (;;) {
    const Chunk& c = *cur_->chunk;
    const std::int32_t h = curPc_ >= 0 && static_cast<std::size_t>(curPc_) < c.convHandler.size()
                               ? c.convHandler[static_cast<std::size_t>(curPc_)]
                               : -1;
    if (h >= 0) {
      if (!ErrorEnv::convertToFailure(e)) {
        leaveCallees();
        return false;
      }
      // Unwind everything created inside the handler op's operand span
      // [bracket, handler]. All such records are contiguous at the tops
      // of the activation's stacks (anything pushed while executing span
      // pcs carries a span pc). The value stack needs no explicit
      // cleanup: the efail that follows resumes below the span or
      // truncates at a surviving mark.
      const std::int32_t lo = c.code[static_cast<std::size_t>(h)].b;
      const std::int32_t hi = h;
      Act& a = *cur_;
      while (static_cast<std::int32_t>(resume_.size()) > a.suspBase && resume_.back().opPc >= lo &&
             resume_.back().opPc <= hi) {
        if (resume_.back().kind == Susp::Kind::Call) {
          // A suspended call in the span: drop it with its callee.
          truncResume(acts_[static_cast<std::size_t>(resume_.back().callee)].suspBase);
        } else {
          popSusp();
        }
      }
      while (!a.marks.empty() && a.marks.back().markPc >= lo && a.marks.back().markPc <= hi) {
        a.marks.pop_back();
      }
      while (!a.loops.empty() && a.loops.back().beginPc >= lo && a.loops.back().beginPc <= hi) {
        a.loops.pop_back();
      }
      return true;
    }
    if (cur_ == &root_) return false;
    // Nothing in this callee converts it: the call ends, and the error
    // surfaces at the caller's kInvoke.
    curPc_ = cur_->callPc;
    failToCaller();
  }
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
// After a call, return or suspend switched activations.
#define VM_RELOAD()             \
  do {                          \
    ck = cur_->chunk;           \
    code = ck->code.data();     \
  } while (0)

bool VmGen::run(Result& out) {
  // The live callee activations (a host-side call's procedure is one)
  // count against --max-depth while this run is on the thread's stack,
  // as an emitted body's guard would.
  struct DepthHold {
    VmGen& m;
    ~DepthHold() { m.releaseDepth(m.depthHeld_); }
  } hold{*this};
  if (governor::depthActive()) [[unlikely]] {
    for (std::size_t i = 0; i < acts_.size(); ++i) chargeDepth();
  }

  Flow flow = Flow::Forward;
  switch (phase_) {
    case Phase::Done:
      return false;
    case Phase::Start:
      cur_ = &root_;
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

  // Indexed by Op; order must mirror the enum (pinned by the assert).
  static const void* const kOpLabels[] = {
      &&op_kConst,      &&op_kLoadVar,     &&op_kLoadSlot,   &&op_kLoadCell,
      &&op_kLoadLate,   &&op_kStoreVar,    &&op_kStoreSlot,  &&op_kStoreCell,
      &&op_kPop,        &&op_kMark,        &&op_kUnmark,     &&op_kJump,
      &&op_kEfail,      &&op_kYield,       &&op_kSuspend,    &&op_kReturn,
      &&op_kFailBody,   &&op_kBinOp,       &&op_kUnOp,       &&op_kAssign,
      &&op_kAugAssign,  &&op_kSwap,        &&op_kIndex,      &&op_kSubTarget,
      &&op_kStoreSub,   &&op_kField,       &&op_kSlice,      &&op_kListLit,
      &&op_kInvoke,     &&op_kToBy,        &&op_kPromote,    &&op_kAltBegin,
      &&op_kRaltBegin,  &&op_kRaltNote,    &&op_kLimitBegin, &&op_kLimitExit,
      &&op_kLoopBegin,  &&op_kLoopBodyMark, &&op_kLoopEnd,   &&op_kBreak,
      &&op_kNext,       &&op_kThrowBreak,  &&op_kThrowNext,  &&op_kEscape,
  };
  static_assert(sizeof(kOpLabels) / sizeof(kOpLabels[0]) == kOpCount,
                "dispatch table out of sync with the Op enum");
  const Chunk* ck = nullptr;
  const Insn* code = nullptr;
  const Insn* ins = nullptr;
  for (;;) {
    try {
      for (;;) {
        if (flow == Flow::Efail) {
          bool resolved = false;
          while (!resolved) {
            Act& act = *cur_;
            const std::int32_t floor = act.marks.empty() ? act.suspBase : act.marks.back().suspH;
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
                    restoreSlice(s);
                    stack_.push_back(Value::integer(nxt));
                    resolved = true;
                  }
                  break;
                }
                case Susp::Kind::Alt: {
                  // One shot: jump to the right branch with the left's
                  // entry stack restored.
                  pc_ = s.target;
                  restoreSlice(s);
                  popSusp();
                  resolved = true;
                  break;
                }
                case Susp::Kind::Ralt: {
                  if (s.produced) {
                    // Last pass produced something: run e again.
                    s.produced = false;
                    pc_ = s.opPc + 1;
                    restoreSlice(s);
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
                case Susp::Kind::Call: {
                  // Resume a suspended callee in place: restore its region
                  // and fail into its own suspensions (or re-drive the
                  // escape it suspended through).
                  Act& callee = acts_[static_cast<std::size_t>(s.callee)];
                  restoreSlice(s);
                  popSusp();
                  cur_ = &callee;
                  traceEnter(callee);
                  if (callee.reDrive) {
                    callee.reDrive = false;
                    Flow f = Flow::Forward;
                    if (driveTop(out, f)) return true;
                    if (f == Flow::Forward) resolved = true;
                  }
                  break;
                }
              }
            } else if (!act.marks.empty()) {
              const MarkRec m = act.marks.back();
              act.marks.pop_back();
              truncResume(m.suspH);
              shrinkStack(static_cast<std::size_t>(m.valH));
              pc_ = m.failPc;
              resolved = true;
            } else if (cur_ == &root_) {
              phase_ = Phase::Done;
              return false;  // machine failure; Gen auto-restart re-arms
            } else {
              failToCaller();  // the callee is exhausted: its call fails
            }
          }
          flow = Flow::Forward;
        }

        // Forward dispatch. Within an op body: VM_NEXT() executes the
        // next instruction, VM_FAIL() efails the current one, `return`
        // yields. Jump ops assign pc_ directly.
        VM_RELOAD();
        VM_NEXT();
      vm_step_limit:
        // Not a limit at all: the periodic fuel sync point. syncFuel may
        // throw the typed 810/816 quota error (caught by the handler
        // below like any run-time error — &error conversion applies);
        // otherwise re-dispatch the already-fetched instruction.
        syncFuel();
        goto* kOpLabels[static_cast<std::size_t>(ins->op)];
            VM_OP(kConst)
              stack_.push_back(ck->consts[static_cast<std::size_t>(ins->a)]);
              VM_NEXT();
            VM_OP(kLoadVar) {
              const VarPtr& v = ck->vars[static_cast<std::size_t>(ins->a)];
              const Value* c = v->cell();  // plain cells skip the virtual get
              stack_.push_back(c != nullptr ? *c : v->get());
              if (ins->b == 0) pushVarRef(stack_.size() - 1, v);
              VM_NEXT();
            }
            VM_OP(kLoadSlot) {
              const auto slot = static_cast<std::size_t>(cur_->slotBase + ins->a);
              stack_.push_back(slots_[slot]);
              if (ins->b == 0) {
                refs_.push_back(Ref{static_cast<std::int32_t>(stack_.size()) - 1,
                                    static_cast<std::int32_t>(slot), nullptr});
              }
              VM_NEXT();
            }
            VM_OP(kLoadCell) {
              const VarPtr& v = cur_->frame->var(static_cast<std::size_t>(ins->a));
              const Value* c = v->cell();
              stack_.push_back(c != nullptr ? *c : v->get());
              if (ins->b == 0) pushVarRef(stack_.size() - 1, v);
              VM_NEXT();
            }
            VM_OP(kLoadLate) {
              // The pushed variable is always the LateBoundVar (assignment
              // through it re-resolves); the cache accelerates the value
              // read only. Version is read before resolving, so a racing
              // declare makes the entry stale, never wrong.
              const VarPtr& lv = cur_->frame->var(static_cast<std::size_t>(ins->a));
              ICEntry& ic = cur_->ics[static_cast<std::size_t>(ins->b)];
              const std::uint64_t ver = interp_.globalScope()->version();
              if (ic.ver != ver) {
                ++icMissTally_;
                ic.target = static_cast<LateBoundVar*>(lv.get())->target();
                ic.ver = ver;
              } else {
                ++icHitTally_;
              }
              stack_.push_back(ic.target->get());
              pushVarRef(stack_.size() - 1, lv);
              VM_NEXT();
            }
            // Direct stores: the top value is stored and stays as the
            // result; its variable travels only when something reads it.
            VM_OP(kStoreVar) {
              const VarPtr& var = ck->vars[static_cast<std::size_t>(ins->a & ~kRefStripped)];
              const std::size_t top = stack_.size() - 1;
              storeInto(var, stack_[top]);
              dropRefsFrom(top);
              if ((ins->a & kRefStripped) == 0) pushVarRef(top, var);
              VM_NEXT();
            }
            VM_OP(kStoreSlot) {
              const auto slot = static_cast<std::size_t>(cur_->slotBase + (ins->a & ~kRefStripped));
              const std::size_t top = stack_.size() - 1;
              slots_[slot] = stack_[top];
              dropRefsFrom(top);
              if ((ins->a & kRefStripped) == 0) {
                refs_.push_back(
                    Ref{static_cast<std::int32_t>(top), static_cast<std::int32_t>(slot), nullptr});
              }
              VM_NEXT();
            }
            VM_OP(kStoreCell) {
              const VarPtr& var = cur_->frame->var(static_cast<std::size_t>(ins->a & ~kRefStripped));
              const std::size_t top = stack_.size() - 1;
              storeInto(var, stack_[top]);
              dropRefsFrom(top);
              if ((ins->a & kRefStripped) == 0) pushVarRef(top, var);
              VM_NEXT();
            }
            VM_OP(kPop)
              stack_.pop_back();
              dropRefsFrom(stack_.size());
              VM_NEXT();
            VM_OP(kMark)
              cur_->marks.push_back({ins->a, static_cast<std::int32_t>(resume_.size()),
                                     static_cast<std::int32_t>(stack_.size()), curPc_});
              VM_NEXT();
            VM_OP(kUnmark) {
              // Leave the bounded expression's single result; drop its
              // pending resumptions (the expression is bounded).
              const MarkRec m = cur_->marks.back();
              cur_->marks.pop_back();
              truncResume(m.suspH);
              VM_NEXT();
            }
            VM_OP(kJump)
              pc_ = ins->a;
              VM_NEXT();
            VM_OP(kEfail)
              VM_FAIL();
            VM_OP(kYield)
              // Only root chunks (expressions, statements, operands,
              // bodies) yield; procedure bodies suspend or return.
              yieldTop(out, Result::kNone);
              phase_ = Phase::Backtrack;
              return true;
            VM_OP(kSuspend) {
              if (cur_ == &root_) {
                yieldTop(out, Result::kSuspend);
                phase_ = Phase::Backtrack;
                return true;
              }
              {
                Ref r = takeTopRef();
                Value v = std::move(stack_.back());
                stack_.pop_back();
                suspendToCaller(std::move(v), std::move(r), false);
              }
              VM_RELOAD();
              VM_NEXT();
            }
            VM_OP(kReturn) {
              if (cur_ == &root_) {
                yieldTop(out, Result::kReturn);
                phase_ = Phase::Done;
                return true;
              }
              {
                Ref r = takeTopRef();
                Value v = std::move(stack_.back());
                stack_.pop_back();
                returnToCaller(std::move(v), std::move(r));
              }
              VM_RELOAD();
              VM_NEXT();
            }
            VM_OP(kFailBody)
              if (cur_ == &root_) {
                out.set(Value::null(), nullptr, Result::kFailBody);
                phase_ = Phase::Done;
                return true;
              }
              failToCaller();
              VM_FAIL();
            VM_OP(kBinOp) {
              const std::size_t n = stack_.size();
              Value& a = stack_[n - 2];
              const Value& b = stack_[n - 1];
              if (a.isSmallInt() && b.isSmallInt()) {
                // Small-int fast path. Must match the generic ops path
                // exactly: arithmetic falls back on overflow (BigInt
                // promotion), comparisons yield the right operand or
                // fail. Everything else drops to applyBinary below.
                const std::int64_t x = a.smallInt(), y = b.smallInt();
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
                  a = Value::integer(r);
                  dropRefsFrom(n - 2);
                  VM_NEXT();
                }
              }
              {
                auto res = applyBinary(static_cast<BinKind>(ins->a), a, b);
                if (!res) {
                  shrinkStack(n - 2);
                  VM_FAIL();
                }
                stack_.pop_back();
                a = std::move(*res);
                dropRefsFrom(n - 2);
              }
              VM_NEXT();
            }
            VM_OP(kUnOp) {
              const auto k = static_cast<UnKind>(ins->a);
              if (k == UnKind::NonNull || k == UnKind::IfNull) {
                // The entry is the result as it stands, variable
                // included, or there is none.
                if (!passesNullTest(k, stack_.back())) {
                  shrinkStack(stack_.size() - 1);
                  VM_FAIL();
                }
                VM_NEXT();
              }
              {
                const std::size_t top = stack_.size() - 1;
                Result opnd(std::move(stack_[top]));
                auto res = applyUnary(k, opnd);
                if (!res) {
                  shrinkStack(top);
                  VM_FAIL();
                }
                stack_[top] = std::move(res->value);
                dropRefsFrom(top);
              }
              VM_NEXT();
            }
            // Assignments through a computed target work in place: the
            // left entry becomes the result, keeping its variable, and
            // the right entry is popped.
            VM_OP(kAssign) {
              const std::size_t n = stack_.size();
              const Ref* l = refAt(n - 2);
              if (l == nullptr) throw errInvalidValue("assignment to a non-variable");
              refSet(*l, stack_[n - 1]);
              stack_[n - 2] = std::move(stack_[n - 1]);
              shrinkStack(n - 1);
              VM_NEXT();
            }
            VM_OP(kAugAssign) {
              const std::size_t n = stack_.size();
              {
                const Ref* l = refAt(n - 2);
                if (l == nullptr) throw errInvalidValue("augmented assignment to a non-variable");
                auto v = applyBinary(static_cast<BinKind>(ins->a), refGet(*l), stack_[n - 1]);
                if (!v) {
                  shrinkStack(n - 2);
                  VM_FAIL();  // comparison-augmented ops can fail
                }
                refSet(*l, *v);
                stack_[n - 2] = std::move(*v);
              }
              shrinkStack(n - 1);
              VM_NEXT();
            }
            VM_OP(kSwap) {
              const std::size_t n = stack_.size();
              {
                const Ref* l = refAt(n - 2);
                const Ref* r = refAt(n - 1);
                if (l == nullptr || r == nullptr) throw errInvalidValue("swap of a non-variable");
                Value lv = refGet(*l);
                Value rv = refGet(*r);
                refSet(*l, rv);
                refSet(*r, lv);
                stack_[n - 2] = std::move(rv);
              }
              shrinkStack(n - 1);
              VM_NEXT();
            }
            VM_OP(kIndex) {
              // The collection entry becomes the element. kRefStripped:
              // nothing reads the element's variable (compiler.cpp), so no
              // trapped variable is built.
              const std::size_t n = stack_.size();
              {
                const bool stripped = (ins->a & kRefStripped) != 0;
                VarPtr trapped;
                if (!indexInPlace(stack_[n - 2], stack_[n - 1], stripped ? nullptr : &trapped)) {
                  shrinkStack(n - 2);
                  VM_FAIL();
                }
                shrinkStack(n - 1);
                dropRefsFrom(n - 2);
                if (trapped != nullptr) pushVarRef(n - 2, std::move(trapped));
              }
              VM_NEXT();
            }
            VM_OP(kSubTarget) {
              const std::size_t n = stack_.size();
              if (!subscriptInRange(stack_[n - 2], stack_[n - 1])) {
                shrinkStack(n - 2);
                VM_FAIL();
              }
              VM_NEXT();
            }
            VM_OP(kStoreSub) {
              // c[i] := v (a=0) or c[i] op:= v: written through the
              // collection at the key, as the element's trapped variable
              // would be — built only when the result's variable is read.
              const std::size_t n = stack_.size();
              const std::int32_t aug = ins->a & ~kRefStripped;
              const bool stripped = (ins->a & kRefStripped) != 0;
              {
                Value& c = stack_[n - 3];
                const Value& i = stack_[n - 2];
                Value& v = stack_[n - 1];
                if (aug != 0) {
                  auto combined = applyBinary(static_cast<BinKind>(aug - 1), subscriptGet(c, i), v);
                  if (!combined) {
                    shrinkStack(n - 3);
                    VM_FAIL();
                  }
                  v = std::move(*combined);
                }
                VarPtr trapped;
                if (!stripped) trapped = subscriptVar(c, i);
                storeSubscript(c, i, v);
                c = std::move(v);
                shrinkStack(n - 2);
                dropRefsFrom(n - 3);
                if (trapped != nullptr) pushVarRef(n - 3, std::move(trapped));
              }
              VM_NEXT();
            }
            VM_OP(kField) {
              {
                const std::size_t top = stack_.size() - 1;
                Result o(std::move(stack_[top]));
                auto res = fieldTuple(o, ck->consts[static_cast<std::size_t>(ins->a)].str());
                if (!res) {
                  shrinkStack(top);
                  VM_FAIL();
                }
                stack_[top] = std::move(res->value);
                dropRefsFrom(top);
                if (res->ref != nullptr) pushVarRef(top, std::move(res->ref));
              }
              VM_NEXT();
            }
            VM_OP(kSlice) {
              {
                const std::size_t n = stack_.size();
                auto res = sliceTuple(stack_[n - 3], stack_[n - 2], stack_[n - 1]);
                if (!res) {
                  shrinkStack(n - 3);
                  VM_FAIL();
                }
                shrinkStack(n - 2);
                stack_.back() = std::move(*res);
                dropRefsFrom(n - 3);
              }
              VM_NEXT();
            }
            VM_OP(kListLit) {
              {
                const std::size_t n = stack_.size();
                const std::size_t first = n - static_cast<std::size_t>(ins->a);
                auto list = ListImpl::create();
                for (std::size_t i = first; i < n; ++i) list->put(stack_[i]);
                shrinkStack(first);
                stack_.push_back(Value::list(std::move(list)));
              }
              VM_NEXT();
            }
            VM_OP(kInvoke) {
              const std::size_t n = stack_.size();
              const auto nargs = static_cast<std::size_t>(ins->a & ~kRefStripped);
              const std::size_t calleeIdx = n - 1 - nargs;
              // Borrow the callee in place — the resize below is what
              // destroys its stack entry, so every use of `f` must come
              // first. Moving it out instead costs a variant move + an
              // extra destroy per call, which backtracking pays per
              // candidate.
              const Value& f = stack_[calleeIdx];
              if (!f.isProc()) throw errCallableExpected(f.image());
              const ProcImpl& p = *f.proc();
              if (p.codeOwner() == &interp_) {
                // A VM procedure of this interpreter: a new activation on
                // this machine, no generator.
                enterCall(static_cast<ProcCode*>(p.code())->chunk(), calleeIdx, nargs,
                          (ins->a & kRefStripped) != 0);
                VM_RELOAD();
                VM_NEXT();
              }
              if (argScratch_.size() == nargs) {
                // Reuse the scratch storage: move-assign over the old
                // args instead of destroy + reconstruct.
                for (std::size_t i = 0; i < nargs; ++i) {
                  argScratch_[i] = std::move(stack_[calleeIdx + 1 + i]);
                }
              } else {
                argScratch_.clear();
                argScratch_.reserve(nargs);
                for (std::size_t i = calleeIdx + 1; i < n; ++i) {
                  argScratch_.push_back(std::move(stack_[i]));  // resized away below
                }
              }
              if (const auto& nf = p.nativeFn()) {
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
                  stack_.push_back(std::move(*r));
                }
                VM_NEXT();
              }
              Flow fl = Flow::Forward;
              {
                auto gen = p.invoke(std::move(argScratch_));
                argScratch_ = {};
                shrinkStack(calleeIdx);
                Susp& s = pushSusp(Susp::Kind::Drive);
                s.gen = std::move(gen);
                if (driveTop(out, fl)) return true;
              }
              if (fl == Flow::Efail) VM_FAIL();
              VM_RELOAD();
              VM_NEXT();
            }
            VM_OP(kToBy) {
              const std::size_t n = stack_.size();
              const Value& fromV = stack_[n - 3];
              const Value& toV = stack_[n - 2];
              const Value& byV = stack_[n - 1];
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
                stack_.push_back(Value::integer(cur));
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
                Value v = std::move(stack_.back());
                shrinkStack(stack_.size() - 1);
                auto gen = PromoteGen::makeElementGen(v);  // may throw: !x on a non-sequence
                Susp& s = pushSusp(Susp::Kind::Drive);
                s.gen = std::move(gen);
                if (driveTop(out, fl)) return true;
              }
              if (fl == Flow::Efail) VM_FAIL();
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
              s.prevAux = cur_->auxTop;
              cur_->auxTop = static_cast<std::int32_t>(resume_.size()) - 1;
              VM_NEXT();
            }
            VM_OP(kRaltNote) {
              for (std::int32_t i = cur_->auxTop; i >= 0;
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
                Value bound = std::move(stack_.back());
                shrinkStack(stack_.size() - 1);
                nvals = bound.requireInt64("limit bound");
              }
              if (nvals <= 0) VM_FAIL();  // e \ 0 produces nothing
              Susp& s = pushSusp(Susp::Kind::Limit);
              s.depth = ins->a;
              s.remaining = nvals;
              s.prevAux = cur_->auxTop;
              cur_->auxTop = static_cast<std::int32_t>(resume_.size()) - 1;
              pc_ = ins->b;  // jump back to the limited expression
              VM_NEXT();
            }
            VM_OP(kLimitExit) {
              for (std::int32_t i = cur_->auxTop; i >= 0;
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
              cur_->loops.push_back({static_cast<std::int32_t>(cur_->marks.size()),
                                     static_cast<std::int32_t>(resume_.size()),
                                     static_cast<std::int32_t>(stack_.size()), -1, ins->a, curPc_});
              VM_NEXT();
            VM_OP(kLoopBodyMark)
              cur_->marks.push_back({ins->a, static_cast<std::int32_t>(resume_.size()),
                                     static_cast<std::int32_t>(stack_.size()), curPc_});
              cur_->loops.back().bodyMarkIdx = static_cast<std::int32_t>(cur_->marks.size()) - 1;
              VM_NEXT();
            VM_OP(kLoopEnd)
              cur_->loops.pop_back();
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
              Flow fl = Flow::Forward;
              {
                GenPtr& gen = cur_->escapes[static_cast<std::size_t>(ins->a)];
                if (gen == nullptr) {
                  gen = buildEscape(ck->escapes[static_cast<std::size_t>(ins->a)], *cur_);
                }
                gen->restart();  // shared per site; one live suspension per site
                Susp& s = pushSusp(Susp::Kind::Drive);
                s.gen = gen;
                s.escapeIdx = ins->a;
                if (driveTop(out, fl)) return true;
              }
              if (fl == Flow::Efail) VM_FAIL();
              VM_RELOAD();
              VM_NEXT();
            }
      vm_fail:
        flow = Flow::Efail;
      }
    } catch (const IconError& e) {
      if (!convertError(e)) throw;
      flow = Flow::Efail;
    } catch (const BreakSignal&) {
      if (cur_ == &root_) throw;  // an enclosing machine's loop
      const IconError e(506, "break outside of a loop");
      curPc_ = cur_->callPc;
      failToCaller();
      if (!convertError(e)) throw e;
      flow = Flow::Efail;
    } catch (const NextSignal&) {
      if (cur_ == &root_) throw;
      const IconError e(506, "next outside of a loop");
      curPc_ = cur_->callPc;
      failToCaller();
      if (!convertError(e)) throw e;
      flow = Flow::Efail;
    } catch (...) {
      leaveCallees();  // the machine stays consistent for a restart
      throw;
    }
  }
}

#undef VM_OP
#undef VM_NEXT
#undef VM_FAIL
#undef VM_RELOAD

}  // namespace congen::interp::vm
