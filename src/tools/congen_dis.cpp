// congen-dis — disassembler for the bytecode VM.
//
// Compiles scripts (or single expressions) to interp/chunk.hpp chunks
// and prints the stable textual disassembly (interp/chunk.cpp) — the
// same renderer the golden tests in tests/interp/dis_golden pin.
//
// Usage:
//   congen-dis <script.jn> [proc...]   disassemble procedures (all
//                                      defined ones, or just the named)
//   congen-dis -e "<expr>"             disassemble one expression chunk
//
// Procedures are compiled exactly as the interpreter would at first
// invocation: the whole program's definitions are declared first (so
// global references resolve the same way), then each body is resolved
// and chunk-compiled. Top-level statements are NOT executed.
//
// Reading a listing: LOADSLOT/STORESLOT reach a procedure's plain Value
// slots, LOADCELL/STORECELL a slot held in a cell (listed on the
// chunk's `cells:` line when a procedure has any, and every slot of an
// escape operand or co-expression body), STOREVAR a global. A subscript
// assignment is SUBTARGET (the checked target) … STORESUB (the store
// through collection and key). `(stripped)` marks a load, subscript,
// store or call whose variable nothing reads.
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>

#include "frontend/parser.hpp"
#include "interp/compiler.hpp"
#include "interp/interpreter.hpp"
#include "interp/resolver.hpp"
#include "transform/normalize.hpp"

namespace {

using congen::interp::Interpreter;
using congen::interp::resolve;
using congen::interp::vm::ChunkCompiler;
using congen::interp::vm::disassemble;

int disassembleScript(const std::string& path, const std::set<std::string>& only) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "congen-dis: cannot open " << path << "\n";
    return 2;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();

  Interpreter interp;
  auto prog = congen::frontend::parseProgram(buffer.str());
  if (interp.options().normalize) prog = congen::transform::normalizeProgram(prog);

  // Declare every program-level name first so the resolver's Global vs
  // Late split matches what the interpreter sees at first call.
  const auto& globals = interp.globalScope();
  for (const auto& item : prog->kids) {
    switch (item->kind) {
      case congen::ast::Kind::Def:
      case congen::ast::Kind::RecordDecl:
        globals->declare(item->text);
        break;
      case congen::ast::Kind::GlobalDecl:
        for (const auto& name : item->kids) globals->declare(name->text);
        break;
      default:
        break;
    }
  }

  bool any = false;
  for (const auto& item : prog->kids) {
    if (item->kind != congen::ast::Kind::Def) continue;
    if (!only.empty() && only.find(item->text) == only.end()) continue;
    auto layout = resolve(item->kids[0], item->kids[1], *globals);
    ChunkCompiler cc(interp, &layout);
    std::cout << disassemble(*cc.compileBody(item->text, item->kids[1]));
    any = true;
  }
  if (!only.empty() && !any) {
    std::cerr << "congen-dis: no matching procedure in " << path << "\n";
    return 1;
  }
  return 0;
}

int disassembleExpr(const std::string& source) {
  Interpreter interp;
  auto tree = congen::frontend::parseExpression(source);
  if (interp.options().normalize) {
    congen::transform::TempNames names;
    tree = congen::transform::normalize(tree, names);
  }
  ChunkCompiler cc(interp);
  std::cout << disassemble(*cc.compileExpr(tree));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc >= 3 && std::string(argv[1]) == "-e") return disassembleExpr(argv[2]);
    if (argc >= 2) {
      std::set<std::string> only;
      for (int i = 2; i < argc; ++i) only.insert(argv[i]);
      return disassembleScript(argv[1], only);
    }
  } catch (const std::exception& e) {
    std::cerr << "congen-dis: " << e.what() << "\n";
    return 1;
  }
  std::cerr << "usage: congen-dis <script.jn> [proc...] | congen-dis -e \"<expr>\"\n";
  return 2;
}
