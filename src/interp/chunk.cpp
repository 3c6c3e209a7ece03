#include "interp/chunk.hpp"

#include <iomanip>
#include <sstream>

namespace congen::interp::vm {

const char* opName(Op op) {
  switch (op) {
    case Op::kConst: return "CONST";
    case Op::kLoadVar: return "LOADVAR";
    case Op::kLoadSlot: return "LOADSLOT";
    case Op::kLoadCell: return "LOADCELL";
    case Op::kLoadLate: return "LOADLATE";
    case Op::kStoreVar: return "STOREVAR";
    case Op::kStoreSlot: return "STORESLOT";
    case Op::kStoreCell: return "STORECELL";
    case Op::kPop: return "POP";
    case Op::kMark: return "MARK";
    case Op::kUnmark: return "UNMARK";
    case Op::kJump: return "JUMP";
    case Op::kEfail: return "EFAIL";
    case Op::kYield: return "YIELD";
    case Op::kSuspend: return "SUSPEND";
    case Op::kReturn: return "RETURN";
    case Op::kFailBody: return "FAILBODY";
    case Op::kBinOp: return "BINOP";
    case Op::kUnOp: return "UNOP";
    case Op::kAssign: return "ASSIGN";
    case Op::kAugAssign: return "AUGASSIGN";
    case Op::kSwap: return "SWAP";
    case Op::kIndex: return "INDEX";
    case Op::kSubTarget: return "SUBTARGET";
    case Op::kStoreSub: return "STORESUB";
    case Op::kField: return "FIELD";
    case Op::kSlice: return "SLICE";
    case Op::kListLit: return "LISTLIT";
    case Op::kInvoke: return "INVOKE";
    case Op::kToBy: return "TOBY";
    case Op::kPromote: return "PROMOTE";
    case Op::kAltBegin: return "ALT";
    case Op::kRaltBegin: return "RALT";
    case Op::kRaltNote: return "RALTNOTE";
    case Op::kLimitBegin: return "LIMIT";
    case Op::kLimitExit: return "LIMITEXIT";
    case Op::kLoopBegin: return "LOOP";
    case Op::kLoopBodyMark: return "BODYMARK";
    case Op::kLoopEnd: return "LOOPEND";
    case Op::kBreak: return "BREAK";
    case Op::kNext: return "NEXT";
    case Op::kThrowBreak: return "THROWBREAK";
    case Op::kThrowNext: return "THROWNEXT";
    case Op::kEscape: return "ESCAPE";
  }
  return "?";
}

namespace {

const char* loopKindName(LoopShape::Kind k) {
  switch (k) {
    case LoopShape::Kind::Every: return "every";
    case LoopShape::Kind::While: return "while";
    case LoopShape::Kind::Until: return "until";
    case LoopShape::Kind::Repeat: return "repeat";
  }
  return "?";
}

/// Escape-site node kinds are a small closed set (the constructs the VM
/// embeds rather than flattens); anything else prints generically.
const char* escapeKindName(ast::Kind k) {
  switch (k) {
    case ast::Kind::KeywordVar: return "keyword";
    case ast::Kind::Binary: return "scan";
    case ast::Kind::Unary: return "unary";
    case ast::Kind::CaseStmt: return "case";
    case ast::Kind::Assign: return "revassign";
    case ast::Kind::Swap: return "revswap";
    default: return "node";
  }
}

/// Which operands an op actually carries, so the listing shows only the
/// meaningful ones (every Insn physically stores both).
enum class Operands { None, A, AB, ABracket, ABBracket };

Operands operandsOf(Op op) {
  switch (op) {
    case Op::kPop:
    case Op::kUnmark:
    case Op::kEfail:
    case Op::kYield:
    case Op::kSuspend:
    case Op::kReturn:
    case Op::kFailBody:
    case Op::kPromote:
    case Op::kLoopEnd:
    case Op::kThrowBreak:
    case Op::kThrowNext:
      return Operands::None;
    case Op::kAssign:
    case Op::kSwap:
    case Op::kIndex:
    case Op::kSubTarget:
    case Op::kSlice:
      return Operands::ABracket;  // a unused, b = bracket
    case Op::kBinOp:
    case Op::kUnOp:
    case Op::kAugAssign:
    case Op::kField:
    case Op::kListLit:
    case Op::kInvoke:
    case Op::kToBy:
    case Op::kStoreVar:
    case Op::kStoreSlot:
    case Op::kStoreCell:
    case Op::kStoreSub:
      return Operands::ABBracket;  // a meaningful, b = bracket
    case Op::kLoadLate:
    case Op::kLimitBegin:
    case Op::kNext:
      return Operands::AB;
    default:
      return Operands::A;
  }
}

void describeA(std::ostringstream& os, const Chunk& c, Op op, std::int32_t a) {
  switch (op) {
    case Op::kConst:
      os << "  ; " << c.consts[static_cast<std::size_t>(a)].image();
      break;
    case Op::kLoadVar:
    case Op::kStoreVar:
      if (a >= 0 && static_cast<std::size_t>(a) < c.varNames.size()) {
        os << "  ; " << c.varNames[static_cast<std::size_t>(a)];
      }
      break;
    case Op::kField:
      os << "  ; ." << c.consts[static_cast<std::size_t>(a)].image();
      break;
    case Op::kBinOp:
      os << "  ; " << binKindName(static_cast<BinKind>(a));
      break;
    case Op::kAugAssign:
      os << "  ; " << binKindName(static_cast<BinKind>(a)) << ":=";
      break;
    case Op::kStoreSub:
      if (a != 0) os << "  ; " << binKindName(static_cast<BinKind>(a - 1)) << ":=";
      break;
    case Op::kUnOp:
      os << "  ; " << unKindName(static_cast<UnKind>(a));
      break;
    case Op::kLoopBegin:
      os << "  ; " << loopKindName(c.loops[static_cast<std::size_t>(a)].kind);
      break;
    case Op::kEscape: {
      const EscapeSite& e = c.escapes[static_cast<std::size_t>(a)];
      os << "  ; " << escapeKindName(e.node->kind);
      if (!e.node->text.empty()) os << " " << e.node->text;
      break;
    }
    default:
      break;
  }
}

/// A load that pushes no ref, a subscript that builds no trapped
/// variable, or a store or call whose result travels without one: the
/// compiler proved nothing reads the variable.
bool refStripped(const Insn& ins) {
  switch (ins.op) {
    case Op::kLoadVar:
    case Op::kLoadSlot:
    case Op::kLoadCell: return ins.b == 1;
    case Op::kStoreVar:
    case Op::kStoreSlot:
    case Op::kStoreCell:
    case Op::kStoreSub:
    case Op::kIndex:
    case Op::kInvoke: return (ins.a & kRefStripped) != 0;
    default: return false;
  }
}

}  // namespace

std::string disassemble(const Chunk& chunk) {
  std::ostringstream os;
  os << "chunk " << chunk.name << "  slots=" << chunk.nSlots << " caches=" << chunk.nCaches
     << " escapes=" << chunk.escapes.size() << "\n";
  std::int32_t lastLine = -1;
  for (std::size_t pc = 0; pc < chunk.code.size(); ++pc) {
    const Insn& ins = chunk.code[pc];
    os << std::setw(4) << std::setfill('0') << pc << std::setfill(' ');
    if (chunk.lines[pc] != lastLine) {
      lastLine = chunk.lines[pc];
      os << std::setw(5) << lastLine;
    } else {
      os << "     ";
    }
    os << "  " << std::left << std::setw(10) << opName(ins.op) << std::right;
    switch (operandsOf(ins.op)) {
      case Operands::None:
        break;
      case Operands::A:
        os << " " << ins.a;
        describeA(os, chunk, ins.op, ins.a);
        break;
      case Operands::AB:
        os << " " << ins.a << " " << ins.b;
        break;
      case Operands::ABracket:
        os << " [" << ins.b << "]";
        break;
      case Operands::ABBracket: {
        const std::int32_t a = ins.a & ~kRefStripped;
        os << " " << a << " [" << ins.b << "]";
        describeA(os, chunk, ins.op, a);
        break;
      }
    }
    if (refStripped(ins)) os << "  (stripped)";
    os << "\n";
  }
  if (!chunk.consts.empty()) {
    os << "consts:";
    for (std::size_t i = 0; i < chunk.consts.size(); ++i) os << " k" << i << "=" << chunk.consts[i].image();
    os << "\n";
  }
  if (!chunk.varNames.empty()) {
    os << "vars:";
    for (std::size_t i = 0; i < chunk.varNames.size(); ++i) os << " v" << i << "=" << chunk.varNames[i];
    os << "\n";
  }
  if (!chunk.captures.empty()) {
    os << "captures:";
    static const char* const kModes[] = {"share", "copy", "fresh"};  // Capture::Mode order
    for (const Capture& c : chunk.captures) {
      os << " " << kModes[static_cast<int>(c.mode)] << " s" << c.slot << "=" << c.name;
    }
    os << "\n";
  }
  if (!chunk.cellSlots.empty()) {
    os << "cells:";
    for (const CellSlot& c : chunk.cellSlots) os << " s" << c.slot << "=" << c.name << (c.late ? " late" : "");
    os << "\n";
  }
  for (std::size_t i = 0; i < chunk.loops.size(); ++i) {
    os << "loop " << i << ": " << loopKindName(chunk.loops[i].kind) << " top=" << chunk.loops[i].topPc
       << "\n";
  }
  for (std::size_t i = 0; i < chunk.escapes.size(); ++i) {
    const EscapeSite& e = chunk.escapes[i];
    os << "escape " << i << ": " << escapeKindName(e.node->kind);
    if (!e.node->text.empty()) os << " '" << e.node->text << "'";
    if (e.loopDepth >= 0) os << " loop=" << e.loopDepth << (e.inLoopBody ? " body" : " control");
    os << "\n";
    // Operand chunks follow their site, indented one level per nesting.
    for (const auto& operand : e.operands) {
      std::istringstream lines(disassemble(*operand));
      for (std::string line; std::getline(lines, line);) os << "  " << line << "\n";
    }
  }
  return os.str();
}

}  // namespace congen::interp::vm
