// chunk.hpp — the compact bytecode form of a resolved procedure body.
//
// The interpreter's execution form: where emitted code re-enters a chain
// of virtual doNext() calls per produced element, the VM re-enters a
// flat dispatch loop at a saved pc. A Chunk is the static half of that:
// fixed-width instructions, a constant table the chunk owns (its literals
// die with it; builtin constants are shared), a line map for
// diagnostics, and the side tables the resumable machine needs — loop
// shapes, escape sites (constructs that run as kernel nodes over operand
// sub-chunks), and the &error conversion-handler map.
//
// A procedure body's locals are the Value slots of its activation
// (kLoadSlot/kStoreSlot). Only a slot something else must alias lives
// in a cell of the activation's frame (kLoadCell/kStoreCell): a late
// name, or a name a nested chunk reaches — an escape operand's machine
// or a co-expression body. Every other chunk (escape operands,
// co-expression bodies) reaches its slots through frame cells.
//
// Goal-directed failure is a jump target here: `kMark` opens a bounded
// region with a failure continuation pc, and `kEfail` either resumes the
// innermost suspension above the current mark or pops the mark and jumps
// to its failure pc (the paper's outcome protocol, flattened).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "frontend/ast.hpp"
#include "kernel/ops.hpp"  // BinKind / UnKind — shared with the kernel nodes
#include "runtime/value.hpp"

namespace congen::interp::vm {

using congen::BinKind;
using congen::UnKind;

enum class Op : std::uint8_t {
  // -- values ----------------------------------------------------------
  kConst,     // a: constant index — push the value
  kLoadVar,   // a: var-table index — push var->get() and the variable; b=1: ref-stripped
  kLoadSlot,  // a: activation slot (a procedure's plain Value slot); b=1: ref-stripped
  kLoadCell,  // a: frame slot held in a cell (shared with a nested chunk); b=1: ref-stripped
  kLoadLate,  // a: frame slot (a LateBoundVar), b: inline-cache index
  kStoreVar,  // a: var index — store the top value into the variable; it stays as the result
  kStoreSlot, // a: activation slot — as kStoreVar, into a plain slot
  kStoreCell, // a: frame slot held in a cell — as kStoreVar, through the cell
  kPop,       // discard the top stack entry

  // -- control ---------------------------------------------------------
  kMark,      // a: failure pc — open a bounded region
  kUnmark,    // close the innermost region, dropping its suspensions
  kJump,      // a: target pc
  kEfail,     // goal-directed failure: resume or unwind
  kYield,     // expression result (eval, top-level and operand chunks)
  kSuspend,   // `suspend e`: hand the top entry to the caller, keep the activation
  kReturn,    // `return e`: hand the top entry to the caller, end the activation
  kFailBody,  // `fail`: end the activation with failure

  // -- operators (b = bracket start pc: the &error conversion span) ----
  kBinOp,      // a: BinKind — pop r, l; push fn(l,r) or efail
  kUnOp,       // a: UnKind — pop r; push fn(r) or efail
  kAssign,     // pop r, l; store r through l's variable; push {r, l's variable}
  kAugAssign,  // a: BinKind — pop r, l; combine-and-store
  kSwap,       // pop r, l; exchange; push {old r, l's variable}
  kIndex,      // pop i, c; push element (trapped var) or efail; a:
               // kRefStripped — nothing reads the variable, so no
               // trapped var is built
  kSubTarget,  // c[i] as an assignment target: check the subscript (efail
               // or error as kIndex would), leave c and i for kStoreSub
  kStoreSub,   // a: 0 (:=) or 1 + BinKind (op:=) — pop v, i, c; store
               // through c at i; push the stored value
  kField,      // a: field-name constant index — pop o; push field var
  kSlice,      // pop to, from, c; push section or efail
  kListLit,    // a: element count — pop n entries; push the list
  kInvoke,     // a: argc — pop args and callee; call it
  kToBy,       // pop by, to, from; inline int range or drive a RangeGen

  // -- generators ------------------------------------------------------
  kPromote,    // !e — pop v; drive PromoteGen::makeElementGen(v)
  kAltBegin,   // a: pc of the second branch — push an Alt suspension
  kRaltBegin,  // |e — a: static ralt depth — push a Ralt record
  kRaltNote,   // a: ralt depth — mark the pass as productive
  kLimitBegin, // e1\e2 — a: static limit depth, b: pc of e1 — pop the
               // bound, push a Limit record, jump to e1
  kLimitExit,  // a: limit depth — count one value through the limit

  // -- loops -----------------------------------------------------------
  kLoopBegin,    // a: loop-shape index — push a loop record
  kLoopBodyMark, // a: failure pc — body-bounded mark, registered on the
                 // innermost loop record (the `next` re-entry point)
  kLoopEnd,      // pop the innermost loop record
  kBreak,        // a: static loop depth — unwind to the loop entry, efail
  kNext,         // a: loop depth, b: 1 = body position
  kThrowBreak,   // break with no enclosing loop in this chunk
  kThrowNext,    // next with no enclosing loop in this chunk

  // -- escapes ---------------------------------------------------------
  kEscape,  // a: escape-site index — drive the site's kernel node
};

/// Flag on `a` of the loads' siblings — the store ops, kIndex,
/// kStoreSub and kInvoke: nothing reads the result's variable
/// (compiler.cpp), so none travels with it.
inline constexpr std::int32_t kRefStripped = 1 << 30;

/// Number of opcodes — sizes the VM's dispatch table (vm.cpp pins its
/// label array to this with a static_assert).
inline constexpr std::size_t kOpCount = static_cast<std::size_t>(Op::kEscape) + 1;

/// Fixed-width instruction. Two operands cover every op; the bracket
/// operand of convertible ops rides in `b` uniformly.
struct Insn {
  Op op;
  std::int32_t a = 0;
  std::int32_t b = 0;
};

struct Chunk;
using ChunkPtr = std::shared_ptr<const Chunk>;

/// A construct the machine runs as a kernel node instead of flattening
/// it (scanning, case, reversible assignment, keyword variables, @, ^,
/// co-expression and pipe creation): VmGen builds the node the emitter
/// targets, over one sub-machine per operand chunk, and drives it through
/// the next() protocol. Operand chunks compile inline, in source order,
/// and their machines share the enclosing activation's frame. A `<>`,
/// `|<>` or `|>` body is an operand chunk too, but each creation (and ^)
/// runs it on a frame of its own, built from the body's captures.
struct EscapeSite {
  ast::NodePtr node;
  std::vector<ChunkPtr> operands;  // case: control, then [value,] body per branch
  std::int32_t loopDepth = -1;     // innermost chunk loop at the site (-1: none)
  bool inLoopBody = false;         // body vs control position of that loop
};

/// A procedure slot that lives in a cell of its activation's frame.
struct CellSlot {
  std::int32_t slot;
  bool late;         // a LateBoundVar over the cell, named `name`
  std::string name;
};

/// One slot of a co-expression body's frame, as each creation fills it
/// from the creator's frame (Sec. III.A, V.D).
struct Capture {
  enum class Mode : std::uint8_t {
    Share,  // <>: the creator's cell itself
    Copy,   // |<>, |>, a name the body reads free: a new cell holding its value
    Fresh,  // |<>, |>, a name the body binds: a new &null cell
  };
  std::int32_t slot;
  Mode mode;
  bool late;         // may bind to the global of that name instead (vm.cpp)
  std::string name;
};

struct LoopShape {
  enum class Kind : std::uint8_t { Every, While, Until, Repeat };
  Kind kind;
  std::int32_t topPc = -1;  // control re-entry pc (While/Until/Repeat)
};

/// One compiled body or expression.
struct Chunk {
  std::string name;                 // procedure name, "<expr>", or "<parent>/site.operand"
  std::vector<Insn> code;
  std::vector<std::int32_t> lines;  // per-insn source line (diagnostics)
  std::vector<Value> consts;        // interned atoms / builtin constants
  std::vector<VarPtr> vars;         // compile-time-resolved variables
  std::vector<std::string> varNames;
  std::vector<EscapeSite> escapes;
  std::vector<LoopShape> loops;
  /// convHandler[pc]: pc of the innermost enclosing convertible op whose
  /// operand span contains pc, or -1. An IconError raised at pc converts
  /// (under &error credit) by failing exactly that op's node — the
  /// flattened equivalent of the UnOp/BinOp/Delegate catch clauses.
  std::vector<std::int32_t> convHandler;
  /// Co-expression bodies: the slots each creation puts in the body's
  /// frame (none for a top-level `<>`, compiled in global mode).
  std::vector<Capture> captures;
  /// Procedure bodies: the slots held in frame cells (late, or reached
  /// by a nested chunk); every other slot is a plain activation Value.
  std::vector<CellSlot> cellSlots;
  std::int32_t nCaches = 0;  // inline-cache slots (kLoadLate sites)
  std::int32_t nSlots = 0;   // frame slots (0: global mode, no frame)
  std::int32_t nParams = 0;  // procedure bodies: leading parameter slots
};

/// Human-readable listing (congen-dis, the dis_golden tests).
std::string disassemble(const Chunk& chunk);

/// Op mnemonic (stable: golden disassembly depends on these spellings).
const char* opName(Op op);

}  // namespace congen::interp::vm
