#include "interp/compiler.hpp"

#include <stdexcept>

#include "builtins/builtins.hpp"
#include "runtime/error.hpp"

namespace congen::interp::vm {

using ast::Kind;
using ast::NodePtr;

namespace {

// Optional NrDIGITS radix prefix, arbitrary precision (the emitter reads
// literals the same way).
Value parseIntLiteral(const std::string& text) {
  const auto r = text.find_first_of("rR");
  if (r != std::string::npos) {
    const unsigned radix = static_cast<unsigned>(std::stoul(text.substr(0, r)));
    return Value::integer(BigInt::fromString(text.substr(r + 1), radix));
  }
  return Value::integer(BigInt::fromString(text, 10));
}

/// Ops whose node is an &error conversion point — exactly the kernel
/// nodes built on UnOpGen/BinOpGen/DelegateGen, which carry the convert-
/// to-failure catch in emitted code.
bool isConvertible(Op op) {
  switch (op) {
    case Op::kBinOp:
    case Op::kUnOp:
    case Op::kAssign:
    case Op::kAugAssign:
    case Op::kSwap:
    case Op::kIndex:
    case Op::kSubTarget:
    case Op::kStoreSub:
    case Op::kStoreVar:
    case Op::kStoreSlot:
    case Op::kStoreCell:
    case Op::kField:
    case Op::kSlice:
    case Op::kListLit:
    case Op::kInvoke:
    case Op::kToBy:
      return true;
    default:
      return false;
  }
}

}  // namespace

// ---------------------------------------------------------------------
// Emission plumbing
// ---------------------------------------------------------------------

std::int32_t ChunkCompiler::emit(Op op, std::int32_t a, std::int32_t b) {
  chunk_.code.push_back(Insn{op, a, b});
  chunk_.lines.push_back(curLine_);
  return static_cast<std::int32_t>(chunk_.code.size()) - 1;
}

namespace {

/// Mark an instruction whose result's variable nobody reads: a load
/// skips the ref push (b=1), a subscript the trapped variable, and a
/// store or call hands on its value alone (kRefStripped on `a`).
void stripRef(Insn& ins) {
  switch (ins.op) {
    case Op::kLoadVar:
    case Op::kLoadSlot:
    case Op::kLoadCell: ins.b = 1; break;
    case Op::kIndex:
    case Op::kStoreVar:
    case Op::kStoreSlot:
    case Op::kStoreCell:
    case Op::kStoreSub:
    case Op::kInvoke: ins.a |= kRefStripped; break;
    default: break;
  }
}

/// Nodes whose last instruction is the node's own result producer, so
/// a consumer that reads no variable can strip it there. A product's
/// result is its right operand's (normalization's `(t in e) & f(t)`).
bool endsInProducer(const NodePtr& n) {
  switch (n->kind) {
    case Kind::Index:
    case Kind::Invoke:
    case Kind::NativeInvoke:
    case Kind::BoundIter:
    case Kind::Assign: return true;
    case Kind::Binary: return n->text == "&" && endsInProducer(n->kids[1]);
    default: return false;
  }
}

}  // namespace

std::int32_t ChunkCompiler::emitPop() {
  auto& code = chunk_.code;
  // The popped value's producer: the last instruction, or the one before
  // a trailing kUnmark (which leaves the value stack alone).
  std::size_t at = code.size();
  if (at > 0 && code[at - 1].op == Op::kUnmark) --at;
  if (at > 0) {
    Insn& last = code[at - 1];
    if (last.op == Op::kUnOp && at > 1 &&
               (last.a == static_cast<std::int32_t>(UnKind::NonNull) ||
                last.a == static_cast<std::int32_t>(UnKind::IfNull))) {
      // `\e` and `/e` pass their operand's entry through unchanged, so
      // a dropped null test drops its operand's variable too.
      stripRef(code[at - 2]);
    } else {
      stripRef(last);
    }
  }
  return emit(Op::kPop);
}

std::int32_t ChunkCompiler::constIdx(const Value& v) {
  // Scalars and interned atoms/builtins dedup by rendered identity; the
  // only non-scalar constants are the process-interned builtin values
  // (one per name), for which the image is unique.
  const std::string key = v.typeName() + '\x1f' + v.image();
  const auto [it, inserted] =
      constKeys_.try_emplace(key, static_cast<std::int32_t>(chunk_.consts.size()));
  if (inserted) chunk_.consts.push_back(v);
  return it->second;
}

std::int32_t ChunkCompiler::varIdx(const VarPtr& var, const std::string& name) {
  const auto [it, inserted] =
      varKeys_.try_emplace(var.get(), static_cast<std::int32_t>(chunk_.vars.size()));
  if (inserted) {
    chunk_.vars.push_back(var);
    chunk_.varNames.push_back(name);
  }
  return it->second;
}

ChunkPtr ChunkCompiler::finish() {
  chunk_.nSlots = layout_ ? static_cast<std::int32_t>(layout_->slotCount()) : 0;
  // Innermost-enclosing-convertible-op table: process ops in emission
  // order (operands emit before their op, so inner ops come first) and
  // claim each pc of the op's bracket span only where unclaimed.
  chunk_.convHandler.assign(chunk_.code.size(), -1);
  for (std::size_t pc = 0; pc < chunk_.code.size(); ++pc) {
    const Insn& ins = chunk_.code[pc];
    if (!isConvertible(ins.op)) continue;
    for (std::int32_t q = ins.b; q <= static_cast<std::int32_t>(pc); ++q) {
      if (chunk_.convHandler[static_cast<std::size_t>(q)] == -1) {
        chunk_.convHandler[static_cast<std::size_t>(q)] = static_cast<std::int32_t>(pc);
      }
    }
  }
  return std::make_shared<Chunk>(std::move(chunk_));
}

ChunkPtr ChunkCompiler::compileBody(const std::string& name, const NodePtr& body) {
  chunk_.name = name;
  std::vector<std::uint8_t> nested(layout_->slotCount(), 0);
  nestedUse_ = &nested;
  statement(body);
  // A Block never falls through (its trailing kEfail is the body-mode
  // fail-at-end); for any other body shape, drain plain results (a
  // statement's value is not a procedure result): discard and resume
  // until exhaustion.
  emitPop();
  emit(Op::kEfail);
  nestedUse_ = nullptr;
  placeSlots(nested);
  return finish();
}

/// A procedure's slots are its activation's Values, except the ones that
/// something else must alias: a late name (its LateBoundVar falls back
/// to a cell) and a name a nested chunk reaches (an escape operand's
/// machine, a co-expression body's frame). Those move into cells, and
/// their slot ops become cell ops.
void ChunkCompiler::placeSlots(const std::vector<std::uint8_t>& nested) {
  chunk_.nParams = static_cast<std::int32_t>(layout_->nParams);
  std::vector<bool> cell(layout_->slotCount(), false);
  for (std::size_t s = 0; s < cell.size(); ++s) {
    if (!layout_->late[s] && nested[s] == 0) continue;
    cell[s] = true;
    chunk_.cellSlots.push_back(
        CellSlot{static_cast<std::int32_t>(s), static_cast<bool>(layout_->late[s]), layout_->slotNames[s]});
  }
  for (Insn& ins : chunk_.code) {
    if (ins.op == Op::kLoadSlot && cell[static_cast<std::size_t>(ins.a)]) {
      ins.op = Op::kLoadCell;
    } else if (ins.op == Op::kStoreSlot && cell[static_cast<std::size_t>(ins.a & ~kRefStripped)]) {
      ins.op = Op::kStoreCell;
    }
  }
}

ChunkPtr ChunkCompiler::compileExpr(const NodePtr& e) {
  chunk_.name = "<expr>";
  expr(e);
  emit(Op::kYield);
  return finish();
}

ChunkPtr ChunkCompiler::compileStmt(const NodePtr& s) {
  chunk_.name = "<stmt>";
  statement(s);
  emit(Op::kYield);
  return finish();
}

// ---------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------

/// Compile an operand whose consumer never reads the variable reference
/// (operator and invoke operands, to-by bounds, subscripts, list
/// elements, the right side of `:=` and `op:=`). When the operand is a
/// bare variable load, the ref push is stripped (b=1): suspension slices
/// spanning the operand then skip the VarPtr refcount churn on every
/// backtracking restore. When it is a whole subscript, the trapped
/// variable is never built; when it is a call or an assignment, the
/// result travels without its variable.
void ChunkCompiler::valueOperand(const NodePtr& n) {
  const std::int32_t from = here();
  expr(n);
  if (here() == from + 1 || endsInProducer(n)) stripRef(chunk_.code.back());
}

void ChunkCompiler::expr(const NodePtr& n) {
  if (n->line > 0) curLine_ = n->line;
  switch (n->kind) {
    case Kind::IntLit: emit(Op::kConst, constIdx(parseIntLiteral(n->text))); return;
    case Kind::RealLit: emit(Op::kConst, constIdx(Value::real(std::stod(n->text)))); return;
    case Kind::StrLit: emit(Op::kConst, constIdx(Value::string(n->text))); return;
    case Kind::NullLit: emit(Op::kConst, constIdx(Value::null())); return;
    case Kind::FailLit: emit(Op::kEfail); return;
    case Kind::Ident:
    case Kind::TempRef: identifier(n); return;
    case Kind::KeywordVar: escape(n); return;
    case Kind::ListLit: {
      const std::int32_t bracket = here();
      for (const auto& k : n->kids) valueOperand(k);
      emit(Op::kListLit, static_cast<std::int32_t>(n->kids.size()), bracket);
      return;
    }
    case Kind::Binary: binary(n); return;
    case Kind::Unary: unary(n); return;
    case Kind::Assign: {
      if (n->text == "<-") { escape(n); return; }
      const std::int32_t bracket = here();
      const NodePtr& lhs = n->kids[0];
      std::optional<BinKind> aug;
      if (n->text != ":=") {
        const auto op = std::string_view(n->text).substr(0, n->text.size() - 2);
        aug = binKindOf(op);
        if (!aug) throw std::invalid_argument("unknown binary operator: " + std::string(op));
      } else if (const auto target = storeTarget(lhs, kUsed)) {
        // A named variable: store straight into it.
        valueOperand(n->kids[1]);
        emit(target->op, target->a, bracket);
        return;
      }
      if (lhs->kind == Kind::Index) {
        // c[i] := e and c[i] op:= e store through the collection and
        // key the target leaves on the stack: no trapped variable.
        subscriptTarget(lhs);
        valueOperand(n->kids[1]);
        emit(Op::kStoreSub, aug ? 1 + static_cast<std::int32_t>(*aug) : 0, bracket);
        return;
      }
      expr(lhs);
      valueOperand(n->kids[1]);  // := and op:= read the right value only
      if (aug) {
        emit(Op::kAugAssign, static_cast<std::int32_t>(*aug), bracket);
      } else {
        emit(Op::kAssign, 0, bracket);
      }
      return;
    }
    case Kind::Swap: {
      if (n->text == "<->") { escape(n); return; }
      const std::int32_t bracket = here();
      expr(n->kids[0]);
      expr(n->kids[1]);
      emit(Op::kSwap, 0, bracket);
      return;
    }
    case Kind::ToBy: {
      const std::int32_t bracket = here();
      valueOperand(n->kids[0]);
      valueOperand(n->kids[1]);
      if (n->kids.size() > 2) {
        valueOperand(n->kids[2]);
      } else {
        emit(Op::kConst, constIdx(Value::integer(1)));
      }
      emit(Op::kToBy, 0, bracket);
      return;
    }
    case Kind::Limit: {
      // Compile order is source order (e1 before the bound — temp
      // declarations are compile-time effects); evaluation order matches
      // LimitGen (bound first, bounded): hop over e1 to the bound, then
      // kLimitBegin jumps back.
      const std::int32_t jOver = emit(Op::kJump);
      const std::int32_t depth = limitDepth_++;
      const std::int32_t exprPc = here();
      expr(n->kids[0]);
      emit(Op::kLimitExit, depth);
      const std::int32_t jEnd = emit(Op::kJump);
      patchA(jOver, here());
      const std::int32_t mark = emit(Op::kMark);
      valueOperand(n->kids[1]);
      emit(Op::kUnmark);
      emit(Op::kLimitBegin, depth, exprPc);
      patchA(mark, here());
      emit(Op::kEfail);  // bound failed: the limit fails
      patchA(jEnd, here());
      --limitDepth_;
      return;
    }
    case Kind::Index: {
      const std::int32_t bracket = here();
      valueOperand(n->kids[0]);
      valueOperand(n->kids[1]);
      emit(Op::kIndex, 0, bracket);
      return;
    }
    case Kind::Slice: {
      const std::int32_t bracket = here();
      valueOperand(n->kids[0]);
      valueOperand(n->kids[1]);
      valueOperand(n->kids[2]);
      emit(Op::kSlice, 0, bracket);
      return;
    }
    case Kind::Field: {
      const std::int32_t bracket = here();
      valueOperand(n->kids[0]);
      emit(Op::kField, constIdx(Value::string(n->text)), bracket);
      return;
    }
    case Kind::Invoke: {
      const std::int32_t bracket = here();
      for (const auto& k : n->kids) valueOperand(k);
      emit(Op::kInvoke, static_cast<std::int32_t>(n->kids.size()) - 1, bracket);
      return;
    }
    case Kind::NativeInvoke: {
      // recv::name(args): this::f(x) calls f(x); anything else calls
      // f(recv, x...). The callee name's resolution rides on the node.
      const std::int32_t bracket = here();
      const NodePtr& recv = n->kids[0];
      const bool isThis = recv->kind == Kind::Ident && recv->text == "this";
      {
        const std::int32_t calleeFrom = here();
        identifier(n);
        if (here() == calleeFrom + 1) stripRef(chunk_.code.back());
      }
      std::int32_t argc = 0;
      if (!isThis) {
        valueOperand(recv);
        ++argc;
      }
      for (std::size_t i = 1; i < n->kids.size(); ++i) {
        valueOperand(n->kids[i]);
        ++argc;
      }
      emit(Op::kInvoke, argc, bracket);
      return;
    }
    case Kind::ExprSeq: {
      if (n->kids.empty()) {
        emit(Op::kConst, constIdx(Value::null()));
        return;
      }
      for (std::size_t i = 0; i + 1 < n->kids.size(); ++i) {
        const std::int32_t mark = emit(Op::kMark);
        statement(n->kids[i]);
        emit(Op::kUnmark);
        emitPop();
        patchA(mark, here());
      }
      statement(n->kids.back());  // last term delegates (Expression mode)
      return;
    }
    case Kind::Not: {
      const std::int32_t mark = emit(Op::kMark);
      expr(n->kids[0]);
      emit(Op::kUnmark);
      emitPop();
      emit(Op::kEfail);  // e succeeded: not e fails
      patchA(mark, here());
      emit(Op::kConst, constIdx(Value::null()));
      return;
    }
    case Kind::BoundIter: {
      // (x in e) binds x to each result of e: a store, but no &error
      // conversion point of its own (its span is the store alone).
      valueOperand(n->kids[0]);
      if (layout_ && n->slot >= 0) {
        noteSlot(n->slot, kUsed | kBound);
        emit(slotStoreOp(n->slot), n->slot, here());
      } else {
        emit(Op::kStoreVar, varIdx(interp_.globalScope()->declare(n->text), n->text), here());
      }
      return;
    }
    case Kind::IfStmt:
    case Kind::Block:
    case Kind::EveryStmt:
    case Kind::WhileStmt:
    case Kind::UntilStmt:
    case Kind::RepeatStmt:
    case Kind::CaseStmt:
    case Kind::SuspendStmt:
      statement(n);
      return;
    default:
      throw IconError(600, "cannot evaluate node in expression position: " + ast::dump(n));
  }
}

// ---------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------

void ChunkCompiler::statement(const NodePtr& n) {
  if (n->line > 0) curLine_ = n->line;
  switch (n->kind) {
    case Kind::Block: {
      for (const auto& k : n->kids) {
        const std::int32_t mark = emit(Op::kMark);
        statement(k);
        emit(Op::kUnmark);
        emitPop();
        patchA(mark, here());
      }
      emit(Op::kEfail);  // body mode: fail at the end
      return;
    }
    case Kind::ExprStmt: expr(n->kids[0]); return;
    case Kind::DeclList: {
      bool anyInit = false;
      for (const auto& decl : n->kids) {
        const bool slotted = layout_ && decl->slot >= 0;
        VarPtr var;
        if (slotted) {
          noteSlot(decl->slot, kBound);
        } else {
          var = interp_.globalScope()->declare(decl->text);  // a compile-time effect
        }
        if (decl->kids.empty()) continue;
        anyInit = true;
        const std::int32_t mark = emit(Op::kMark);
        const std::int32_t bracket = here();
        if (slotted) noteSlot(decl->slot, kUsed);
        valueOperand(decl->kids[0]);
        if (slotted) {
          emit(slotStoreOp(decl->slot), decl->slot, bracket);
        } else {
          emit(Op::kStoreVar, varIdx(var, decl->text), bracket);
        }
        emit(Op::kUnmark);
        emitPop();
        patchA(mark, here());
      }
      if (anyInit) {
        emit(Op::kEfail);  // SeqGen body mode over the inits
      } else {
        emit(Op::kConst, constIdx(Value::null()));
      }
      return;
    }
    case Kind::EveryStmt: loop(n, LoopShape::Kind::Every); return;
    case Kind::WhileStmt: loop(n, LoopShape::Kind::While); return;
    case Kind::UntilStmt: loop(n, LoopShape::Kind::Until); return;
    case Kind::RepeatStmt: loop(n, LoopShape::Kind::Repeat); return;
    case Kind::IfStmt: {
      const std::int32_t mark = emit(Op::kMark);
      expr(n->kids[0]);
      emit(Op::kUnmark);  // condition is bounded; the branch decides
      emitPop();
      statement(n->kids[1]);
      const std::int32_t jEnd = emit(Op::kJump);
      patchA(mark, here());
      if (n->kids.size() > 2) {
        statement(n->kids[2]);
      } else {
        emit(Op::kEfail);  // no else: if fails with the condition
      }
      patchA(jEnd, here());
      return;
    }
    case Kind::SuspendStmt: {
      if (n->kids.empty()) {
        emit(Op::kConst, constIdx(Value::null()));
      } else {
        expr(n->kids[0]);
      }
      emit(Op::kSuspend);
      return;
    }
    case Kind::ReturnStmt: {
      const std::int32_t mark = emit(Op::kMark);
      if (n->kids.empty()) {
        emit(Op::kConst, constIdx(Value::null()));
      } else {
        expr(n->kids[0]);
      }
      emit(Op::kReturn);
      patchA(mark, here());
      emit(Op::kFailBody);  // `return e` with failing e fails the body
      return;
    }
    case Kind::FailStmt: emit(Op::kFailBody); return;
    case Kind::BreakStmt: {
      if (loopCtx_.empty()) {
        emit(Op::kThrowBreak);  // signal the enclosing machine's loop, if any
      } else {
        emit(Op::kBreak, static_cast<std::int32_t>(loopCtx_.size()) - 1);
      }
      return;
    }
    case Kind::NextStmt: {
      if (loopCtx_.empty()) {
        emit(Op::kThrowNext);
      } else {
        emit(Op::kNext, static_cast<std::int32_t>(loopCtx_.size()) - 1,
             loopCtx_.back().inBody ? 1 : 0);
      }
      return;
    }
    case Kind::CaseStmt: escape(n); return;
    case Kind::RecordDecl: {
      interp_.globalScope()->declare(n->text, Value::proc(Interpreter::makeRecordConstructor(n)));
      emit(Op::kConst, constIdx(Value::null()));
      return;
    }
    case Kind::GlobalDecl: {
      const ScopePtr& globals = interp_.globalScope();
      for (const auto& name : n->kids) {
        if (!globals->lookup(name->text)) globals->declare(name->text);
      }
      emit(Op::kConst, constIdx(Value::null()));
      return;
    }
    case Kind::Def: {
      interp_.globalScope()->declare(n->text, Value::proc(interp_.makeProcedure(n)));
      emit(Op::kConst, constIdx(Value::null()));
      return;
    }
    default: expr(n); return;
  }
}

// ---------------------------------------------------------------------
// Identifiers — slot, global, builtin, then the global table
// ---------------------------------------------------------------------

void ChunkCompiler::noteSlot(std::int32_t slot, std::uint8_t how) {
  if (slotUse_ != nullptr) (*slotUse_)[static_cast<std::size_t>(slot)] |= how;
  if (cellSlots_ && nestedUse_ != nullptr) (*nestedUse_)[static_cast<std::size_t>(slot)] = 1;
}

bool ChunkCompiler::lateSlot(std::int32_t slot) const {
  return !lateSettled_ && layout_->late[static_cast<std::size_t>(slot)];
}

void ChunkCompiler::slotLoad(std::int32_t slot) {
  noteSlot(slot, kUsed);
  if (lateSlot(slot)) {
    emit(Op::kLoadLate, slot, chunk_.nCaches++);
  } else {
    emit(cellSlots_ ? Op::kLoadCell : Op::kLoadSlot, slot);
  }
}

Op ChunkCompiler::slotStoreOp(std::int32_t slot) const {
  // A late name stores through its LateBoundVar, which re-resolves.
  return cellSlots_ || lateSlot(slot) ? Op::kStoreCell : Op::kStoreSlot;
}

/// Where `:=` on `n` can store directly — a slot, or a global — mirroring
/// identifier()'s resolution order; nullopt for anything else (a builtin
/// name, a computed target), which takes the generic kAssign.
std::optional<ChunkCompiler::StoreTarget> ChunkCompiler::storeTarget(const NodePtr& n,
                                                                    std::uint8_t how) {
  if (n->kind != Kind::Ident && n->kind != Kind::TempRef) return std::nullopt;
  if (n->line > 0) curLine_ = n->line;
  auto slotTarget = [&](std::int32_t slot) {
    noteSlot(slot, how);
    return StoreTarget{slotStoreOp(slot), slot};
  };
  const ScopePtr& globals = interp_.globalScope();
  if (layout_) {
    switch (n->res) {
      case ast::Res::Slot:
      case ast::Res::Late:
        return slotTarget(n->slot);
      case ast::Res::Global:
        if (auto var = globals->lookup(n->text)) return StoreTarget{Op::kStoreVar, varIdx(var, n->text)};
        break;
      case ast::Res::Builtin:
        if (builtins::lookupConst(n->text) != nullptr) return std::nullopt;
        break;
      case ast::Res::Unresolved:
        if (const auto slot = layout_->slotOf(n->text); slot >= 0) return slotTarget(slot);
        break;
    }
  }
  if (auto var = globals->lookup(n->text)) return StoreTarget{Op::kStoreVar, varIdx(var, n->text)};
  if (builtins::lookupConst(n->text) != nullptr) return std::nullopt;
  return StoreTarget{Op::kStoreVar, varIdx(globals->declare(n->text), n->text)};
}

/// `c[i]` as an assignment target. The subscript is checked where it is
/// evaluated, before the right side runs (an out-of-range `l[9] := f()`
/// never calls f), exactly where kIndex would fail or raise.
void ChunkCompiler::subscriptTarget(const NodePtr& n) {
  if (n->line > 0) curLine_ = n->line;
  const std::int32_t bracket = here();
  valueOperand(n->kids[0]);
  valueOperand(n->kids[1]);
  emit(Op::kSubTarget, 0, bracket);
}

void ChunkCompiler::identifier(const NodePtr& n) {
  if (layout_) {
    switch (n->res) {
      case ast::Res::Slot:
      case ast::Res::Late:
        slotLoad(n->slot);
        return;
      case ast::Res::Global:
        if (auto var = interp_.globalScope()->lookup(n->text)) {
          emit(Op::kLoadVar, varIdx(var, n->text));
          return;
        }
        break;  // resolved-away global: fall back by name
      case ast::Res::Builtin:
        if (const Value* b = builtins::lookupConst(n->text)) {
          emit(Op::kConst, constIdx(*b));
          return;
        }
        break;
      case ast::Res::Unresolved:
        if (const auto slot = layout_->slotOf(n->text); slot >= 0) {
          slotLoad(slot);
          return;
        }
        break;
    }
  }
  const ScopePtr& globals = interp_.globalScope();
  if (auto var = globals->lookup(n->text)) {
    emit(Op::kLoadVar, varIdx(var, n->text));
    return;
  }
  if (const Value* b = builtins::lookupConst(n->text)) {
    emit(Op::kConst, constIdx(*b));
    return;
  }
  // Undeclared at top level: implicitly global (Unicon default).
  emit(Op::kLoadVar, varIdx(globals->declare(n->text), n->text));
}

// ---------------------------------------------------------------------
// Operators
// ---------------------------------------------------------------------

void ChunkCompiler::binary(const NodePtr& n) {
  if (n->text == "&") {  // product: left's value is discarded, kept as a
    expr(n->kids[0]);    // backtrack point by its suspensions
    emitPop();
    expr(n->kids[1]);
    return;
  }
  if (n->text == "|") {
    const std::int32_t alt = emit(Op::kAltBegin);
    expr(n->kids[0]);
    const std::int32_t jEnd = emit(Op::kJump);
    patchA(alt, here());
    expr(n->kids[1]);
    patchA(jEnd, here());
    return;
  }
  if (n->text == "?") {  // string scanning: a ScanGen escape
    escape(n);
    return;
  }
  const std::int32_t bracket = here();
  const auto k = binKindOf(n->text);
  if (!k) throw std::invalid_argument("unknown binary operator: " + n->text);
  valueOperand(n->kids[0]);
  valueOperand(n->kids[1]);
  emit(Op::kBinOp, static_cast<std::int32_t>(*k), bracket);
}

void ChunkCompiler::unary(const NodePtr& n) {
  const std::string& op = n->text;
  if (op == "!") {
    valueOperand(n->kids[0]);
    emit(Op::kPromote);
    return;
  }
  if (op == "@" || op == "^" || op == "<>" || op == "|<>" || op == "|>") {
    escape(n);
    return;
  }
  if (op == "|") {  // repeated alternation
    const std::int32_t depth = raltDepth_++;
    emit(Op::kRaltBegin, depth);
    expr(n->kids[0]);
    emit(Op::kRaltNote, depth);
    --raltDepth_;
    return;
  }
  const std::int32_t bracket = here();
  const auto k = unKindOf(op);
  if (!k) throw std::invalid_argument("unknown unary operator: " + op);
  // \e and /e pass the operand's variable reference through; every other
  // unary operator reads the value only.
  if (*k == UnKind::NonNull || *k == UnKind::IfNull) {
    expr(n->kids[0]);
  } else {
    valueOperand(n->kids[0]);
  }
  emit(Op::kUnOp, static_cast<std::int32_t>(*k), bracket);
}

// ---------------------------------------------------------------------
// Loops
// ---------------------------------------------------------------------

void ChunkCompiler::loop(const NodePtr& n, LoopShape::Kind kind) {
  const std::int32_t shapeIdx = static_cast<std::int32_t>(chunk_.loops.size());
  chunk_.loops.push_back(LoopShape{kind, -1});
  emit(Op::kLoopBegin, shapeIdx);
  loopCtx_.push_back(LoopCtx{shapeIdx, false});
  const bool hasBody = n->kids.size() > 1 && n->kids[1] != nullptr;

  switch (kind) {
    case LoopShape::Kind::Every: {
      const std::int32_t mExh = emit(Op::kMark);
      expr(n->kids[0]);  // control generator: NOT bounded
      emitPop();
      if (hasBody) {
        const std::int32_t mBody = emit(Op::kLoopBodyMark);  // → resume point
        loopCtx_.back().inBody = true;
        statement(n->kids[1]);
        emit(Op::kUnmark);
        emitPop();
        patchA(mBody, here());
      }
      emit(Op::kEfail);  // resume the control generator
      patchA(mExh, here());
      emit(Op::kLoopEnd);
      emit(Op::kEfail);
      break;
    }
    case LoopShape::Kind::While: {
      const std::int32_t top = here();
      chunk_.loops[static_cast<std::size_t>(shapeIdx)].topPc = top;
      const std::int32_t mExh = emit(Op::kMark);
      expr(n->kids[0]);
      emit(Op::kUnmark);  // condition bounded per iteration
      emitPop();
      if (hasBody) {
        const std::int32_t mBody = emit(Op::kLoopBodyMark, top);
        loopCtx_.back().inBody = true;
        statement(n->kids[1]);
        emit(Op::kUnmark);
        emitPop();
        (void)mBody;
      }
      emit(Op::kJump, top);
      patchA(mExh, here());
      emit(Op::kLoopEnd);
      emit(Op::kEfail);
      break;
    }
    case LoopShape::Kind::Until: {
      const std::int32_t top = here();
      chunk_.loops[static_cast<std::size_t>(shapeIdx)].topPc = top;
      const std::int32_t mBody = emit(Op::kMark);  // condition FAILS → body
      expr(n->kids[0]);
      emit(Op::kUnmark);
      emitPop();
      emit(Op::kLoopEnd);  // condition succeeded: loop over (and fails)
      emit(Op::kEfail);
      patchA(mBody, here());
      if (hasBody) {
        const std::int32_t mb = emit(Op::kLoopBodyMark, top);
        loopCtx_.back().inBody = true;
        statement(n->kids[1]);
        emit(Op::kUnmark);
        emitPop();
        (void)mb;
      }
      emit(Op::kJump, top);
      break;
    }
    case LoopShape::Kind::Repeat: {
      const std::int32_t top = here();
      chunk_.loops[static_cast<std::size_t>(shapeIdx)].topPc = top;
      emit(Op::kLoopBodyMark, top);  // body failure restarts the body
      loopCtx_.back().inBody = true;
      statement(n->kids[0]);
      emit(Op::kUnmark);
      emitPop();
      emit(Op::kJump, top);
      break;
    }
  }
  loopCtx_.pop_back();
}

// ---------------------------------------------------------------------
// Escapes
// ---------------------------------------------------------------------

void ChunkCompiler::escape(const NodePtr& n) {
  EscapeSite site;
  site.node = n;
  if (!loopCtx_.empty()) {
    site.loopDepth = static_cast<std::int32_t>(loopCtx_.size()) - 1;
    site.inLoopBody = loopCtx_.back().inBody;
  }
  const std::int32_t idx = static_cast<std::int32_t>(chunk_.escapes.size());
  const std::string prefix = chunk_.name + "/" + std::to_string(idx) + ".";
  auto operand = [&](const NodePtr& k, bool stmtPos) {
    site.operands.push_back(
        operandChunk(k, stmtPos, prefix + std::to_string(site.operands.size())));
  };
  switch (n->kind) {
    case Kind::KeywordVar:
      break;
    case Kind::CaseStmt:
      operand(n->kids[0], false);
      for (std::size_t i = 1; i < n->kids.size(); ++i) {
        const NodePtr& b = n->kids[i];
        if (b->text != "default") operand(b->kids[0], false);
        operand(b->kids.back(), true);
      }
      break;
    case Kind::Unary:
      if (n->text == "@" || n->text == "^") {
        operand(n->kids[0], false);
      } else {  // <>, |<>, |>
        site.operands.push_back(bodyChunk(n->kids[0], n->text != "<>", prefix + "0"));
      }
      break;
    default:  // e1 ? e2, e1 <- e2, e1 <-> e2
      operand(n->kids[0], false);
      operand(n->kids[1], false);
      break;
  }
  chunk_.escapes.push_back(std::move(site));
  emit(Op::kEscape, idx);
}

ChunkPtr ChunkCompiler::operandChunk(const NodePtr& n, bool stmtPos, std::string name) {
  ChunkCompiler sub(*this, layout_, std::move(name));
  if (stmtPos) {
    sub.statement(n);
  } else {
    sub.expr(n);
  }
  sub.emit(Op::kYield);
  return sub.finish();
}

/// A co-expression body compiles once, here, with its site. Inside a
/// procedure (or another body) it keeps the enclosing layout, and its
/// captures name the slots it uses: `<>` shares them; `|<>`/`|>` copy
/// the ones it reads free and make fresh cells for the ones it binds
/// (Sec. V.D, "any referenced method local variables and parameters").
/// Only used slots are captured, so a co-expression stored in one of the
/// creator's other locals (mapReduce's `put(tasks, t)`) cannot close a
/// cell → value → frame → cell cycle. At top level a `<>` body stays in
/// global mode, and a shadowing body gets a layout of its own: every
/// name in it is fresh per creation, unless it names a global.
ChunkPtr ChunkCompiler::bodyChunk(const NodePtr& n, bool shadow, std::string name) {
  FrameLayout own;
  const FrameLayout* layout = layout_;
  if (layout == nullptr && shadow) {
    own = resolve(nullptr, n, *interp_.globalScope());
    layout = &own;
  }
  std::vector<std::uint8_t> use(layout != nullptr ? layout->slotCount() : 0, 0);
  ChunkCompiler sub(*this, layout, std::move(name));
  sub.lateSettled_ = lateSettled_ || shadow;
  sub.slotUse_ = layout != nullptr ? &use : nullptr;
  if (layout != layout_) sub.nestedUse_ = nullptr;  // a layout of its own
  sub.expr(n);
  sub.emit(Op::kYield);
  for (std::size_t slot = 0; slot < use.size(); ++slot) {
    // The creator's frame must hold every slot a nested body takes, and
    // a name bound anywhere inside is not free in the enclosing body.
    if (layout == layout_ && slotUse_ != nullptr) (*slotUse_)[slot] |= use[slot];
    if ((use[slot] & kUsed) == 0) continue;
    Capture::Mode mode = Capture::Mode::Share;
    if (layout == &own || (shadow && (use[slot] & kBound) != 0)) {
      mode = Capture::Mode::Fresh;
    } else if (shadow) {
      mode = Capture::Mode::Copy;
    }
    sub.chunk_.captures.push_back(Capture{static_cast<std::int32_t>(slot), mode,
                                          static_cast<bool>(layout->late[slot]),
                                          layout->slotNames[slot]});
  }
  return sub.finish();
}

}  // namespace congen::interp::vm
