// compiler.hpp — resolver-annotated AST → bytecode chunk.
//
// Two modes:
//  - global mode (top-level statements, eval, a top-level `<>` body):
//    identifiers resolve against the global table at COMPILE time and
//    bake as direct VarPtr loads, with implicit declaration on first use;
//  - frame mode (procedure bodies, co-expression bodies in them, and a
//    top-level `|<>`/`|>` body over a layout of its own): the resolution
//    pass has already classified every name, so identifiers compile to
//    slot ops, and slot counts carry over from the FrameLayout
//    unchanged. A procedure body's slots are its
//    activation's Values (kLoadSlot/kStoreSlot) except those a nested
//    chunk reaches or a late name falls back to, which are frame cells
//    (kLoadCell/kStoreCell, kLoadLate); nested chunks reach every slot
//    through cells.
//
// Assignments to a named variable and `in` bindings compile to direct
// stores; `c[i] := e` and `c[i] op:= e` store through the collection and
// key (kSubTarget, kStoreSub). A variable is pushed only where something
// reads it (emitPop and valueOperand strip it everywhere else).
//
// Compile order is source order, node for node (declarations and temp
// bindings are compile-time side effects), even where the emitted layout
// differs (e1\e2 emits e1 first but jumps to evaluate the bound first,
// exactly as LimitGen does). Escape operands, co-expression bodies
// included, compile to sub-chunks at their place in that order.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "interp/chunk.hpp"
#include "interp/interpreter.hpp"
#include "interp/resolver.hpp"

namespace congen::interp::vm {

class ChunkCompiler {
 public:
  /// Frame mode over `layout`; a null layout is global mode.
  explicit ChunkCompiler(Interpreter& interp, const FrameLayout* layout = nullptr)
      : interp_(interp), layout_(layout) {}

  /// One chunk per procedure body (frame mode).
  ChunkPtr compileBody(const std::string& name, const ast::NodePtr& body);

  /// Expression chunk ending in kYield (eval).
  ChunkPtr compileExpr(const ast::NodePtr& e);

  /// Top-level statement chunk ending in kYield (loadProgram).
  ChunkPtr compileStmt(const ast::NodePtr& s);

 private:
  struct LoopCtx {
    std::int32_t shapeIdx;
    bool inBody = false;
  };

  /// A direct store: the op and its slot or var-table index.
  struct StoreTarget {
    Op op;
    std::int32_t a;
  };

  /// A sub-chunk compiler inheriting `parent`'s line and body context.
  /// Its slots are frame cells shared with the enclosing activation.
  ChunkCompiler(const ChunkCompiler& parent, const FrameLayout* layout, std::string name)
      : interp_(parent.interp_), layout_(layout), lateSettled_(parent.lateSettled_),
        cellSlots_(true), slotUse_(parent.slotUse_), nestedUse_(parent.nestedUse_),
        curLine_(parent.curLine_) {
    chunk_.name = std::move(name);
  }

  // -- emission ---------------------------------------------------------
  std::int32_t emit(Op op, std::int32_t a = 0, std::int32_t b = 0);
  /// Emit kPop, first stripping the variable-ness of the entry being
  /// discarded when the producing instruction is statically the one just
  /// emitted (stripRef in compiler.cpp). Paths that jump over the
  /// producer land on the kPop itself, so only entries this kPop
  /// discards are affected.
  std::int32_t emitPop();
  [[nodiscard]] std::int32_t here() const noexcept {
    return static_cast<std::int32_t>(chunk_.code.size());
  }
  void patchA(std::int32_t pc, std::int32_t v) { chunk_.code[static_cast<std::size_t>(pc)].a = v; }
  void patchB(std::int32_t pc, std::int32_t v) { chunk_.code[static_cast<std::size_t>(pc)].b = v; }

  std::int32_t constIdx(const Value& v);
  std::int32_t varIdx(const VarPtr& var, const std::string& name);
  ChunkPtr finish();

  // -- per-node emitters ------------------------------------------------
  void expr(const ast::NodePtr& n);
  void valueOperand(const ast::NodePtr& n);
  void statement(const ast::NodePtr& n);
  void identifier(const ast::NodePtr& n);
  void slotLoad(std::int32_t slot);
  [[nodiscard]] bool lateSlot(std::int32_t slot) const;
  [[nodiscard]] Op slotStoreOp(std::int32_t slot) const;
  std::optional<StoreTarget> storeTarget(const ast::NodePtr& n, std::uint8_t how);
  void subscriptTarget(const ast::NodePtr& n);
  void placeSlots(const std::vector<std::uint8_t>& nested);
  void binary(const ast::NodePtr& n);
  void unary(const ast::NodePtr& n);
  void loop(const ast::NodePtr& n, LoopShape::Kind kind);
  void escape(const ast::NodePtr& n);
  /// One escape operand as its own chunk (same mode), ending in kYield.
  ChunkPtr operandChunk(const ast::NodePtr& n, bool stmtPos, std::string name);
  /// A `<>` (shadow = false), `|<>` or `|>` body with its captures.
  ChunkPtr bodyChunk(const ast::NodePtr& n, bool shadow, std::string name);
  /// Mark a slot used or bound in the body being compiled, if any.
  void noteSlot(std::int32_t slot, std::uint8_t how);

  static constexpr std::uint8_t kUsed = 1, kBound = 2;

  Interpreter& interp_;
  const FrameLayout* layout_ = nullptr;  // frame mode only
  /// Inside a `|<>`/`|>` body: each creation settles every late slot to
  /// a global or a private cell, so late names load as plain slots.
  bool lateSettled_ = false;
  /// A nested chunk (escape operand, co-expression body): every slot is
  /// a frame cell.
  bool cellSlots_ = false;
  std::vector<std::uint8_t>* slotUse_ = nullptr;  // innermost body's marks
  /// The procedure body's slots some nested chunk names (they become
  /// cells); null outside compileBody or under a layout of its own.
  std::vector<std::uint8_t>* nestedUse_ = nullptr;
  Chunk chunk_;
  std::int32_t curLine_ = 0;
  std::vector<LoopCtx> loopCtx_;
  std::int32_t limitDepth_ = 0;
  std::int32_t raltDepth_ = 0;
  std::unordered_map<std::string, std::int32_t> constKeys_;
  std::unordered_map<const Var*, std::int32_t> varKeys_;
};

}  // namespace congen::interp::vm
