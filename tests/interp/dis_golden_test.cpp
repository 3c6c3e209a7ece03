// dis_golden_test.cpp — golden-file tests for the bytecode compiler's
// disassembly (interp/chunk.cpp, the same renderer congen-dis prints).
// Each representative procedure's full listing is compared byte-for-byte
// against a committed tests/interp/dis_golden/<name>.golden file, so any
// change to instruction selection, operand layout, constant interning,
// or the ref-stripping peephole shows up as a reviewable diff.
//
// To regenerate after an intentional compiler change:
//   ./dis_golden_test --update-golden    (or CONGEN_UPDATE_GOLDEN=1)
// then review and commit the .golden diffs.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "frontend/parser.hpp"
#include "interp/compiler.hpp"
#include "interp/interpreter.hpp"
#include "interp/resolver.hpp"
#include "transform/normalize.hpp"

namespace congen::interp::vm {
namespace {

bool g_updateGolden = false;

std::string goldenPath(const std::string& name) {
  return std::string(CONGEN_SOURCE_DIR) + "/tests/interp/dis_golden/" + name + ".golden";
}

void expectMatchesGolden(const std::string& name, const std::string& actual) {
  const std::string path = goldenPath(name);
  if (g_updateGolden) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " — regenerate with: dis_golden_test --update-golden";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(expected.str(), actual)
      << "disassembly changed for '" << name
      << "'. If intentional, regenerate with: dis_golden_test --update-golden";
}

/// Compile `procName` from a whole program exactly as the interpreter
/// would at first invocation (the congen-dis pipeline): declare every
/// program-level name first so Global vs Late resolution matches, then
/// resolve and chunk-compile the one body.
std::string disassembleProc(const std::string& source, const std::string& procName) {
  Interpreter interp;
  auto prog = frontend::parseProgram(source);
  if (interp.options().normalize) prog = transform::normalizeProgram(prog);
  const auto& globals = interp.globalScope();
  for (const auto& item : prog->kids) {
    switch (item->kind) {
      case ast::Kind::Def:
      case ast::Kind::RecordDecl:
        globals->declare(item->text);
        break;
      case ast::Kind::GlobalDecl:
        for (const auto& name : item->kids) globals->declare(name->text);
        break;
      default:
        break;
    }
  }
  for (const auto& item : prog->kids) {
    if (item->kind != ast::Kind::Def || item->text != procName) continue;
    auto layout = resolve(item->kids[0], item->kids[1], *globals);
    ChunkCompiler cc(interp, &layout);
    return disassemble(*cc.compileBody(item->text, item->kids[1]));
  }
  ADD_FAILURE() << "no procedure " << procName << " in source";
  return {};
}

TEST(DisGolden, SuspendEvery) {
  expectMatchesGolden("suspend_every", disassembleProc(R"(
procedure gen(a, b)
  local i
  every i := a to b do suspend i * i
  fail
end
)",
                                                       "gen"));
}

TEST(DisGolden, AltLimitRalt) {
  expectMatchesGolden("alt_limit_ralt", disassembleProc(R"(
procedure pick(n)
  suspend ((|(1 | 2)) \ n) | (n to 1 by -1)
end
)",
                                                        "pick"));
}

TEST(DisGolden, GoalSearch) {
  expectMatchesGolden("goal_search", disassembleProc(R"(
procedure search(lo, hi)
  return (lo to hi) = isprime(lo to hi)
end
)",
                                                     "search"));
}

TEST(DisGolden, LoopsBreakNext) {
  expectMatchesGolden("loops_break_next", disassembleProc(R"(
procedure count(n)
  local v
  v := 0
  while v < n do {
    v := v + 1
    if v = 3 then next
    if v > 7 then break
    write(v)
  }
  return v
end
)",
                                                          "count"));
}

TEST(DisGolden, ListOps) {
  expectMatchesGolden("list_ops", disassembleProc(R"(
procedure juggle(n)
  local l, x
  l := [n, n + 1, n + 2]
  x := l[1]
  l[2] :=: l[3]
  return l[1:3]
end
)",
                                                  "juggle"));
}

TEST(DisGolden, ScanEscape) {
  expectMatchesGolden("scan_escape", disassembleProc(R"(
procedure words(s)
  s ? while tab(upto("abc")) do suspend tab(many("abc"))
end
)",
                                                     "words"));
}

TEST(DisGolden, LateAndGlobal) {
  expectMatchesGolden("late_and_global", disassembleProc(R"(
global total
procedure tally(x)
  total := total + helper(x)
  return total
end
procedure helper(x)
  return x * 2
end
)",
                                                         "tally"));
}

TEST(DisGolden, PipeCoexpr) {
  expectMatchesGolden("pipe_coexpr", disassembleProc(R"(
procedure stream(n)
  local c
  c := create (1 to n)
  suspend @c
  suspend ! (|> (1 to n))
end
)",
                                                     "stream"));
}

// A copy of the search benchmark's two hot procedures (nqueens' q and a
// goal-directed subset-sum). Every subscript in them is either assigned
// through or only tested and dropped, so the listing shows which
// trapped variables the compiler strips.
TEST(DisGolden, SearchWorkload) {
  const std::string source = R"(global n, rows, ups, downs, solution, xs;

def q(c) {
  local r;
  every r := 1 to n do {
    if /rows[r] & /ups[n + r - c] & /downs[r + c - 1] then {
      rows[r] := ups[n + r - c] := downs[r + c - 1] := 1;
      solution[c] := r;
      if c == n then suspend solution;
      else suspend q(c + 1);
      rows[r] := ups[n + r - c] := downs[r + c - 1] := &null;
    }
  }
}

def subsum(xs, i, t) {
  if t == 0 then return "";
  if i > *xs | t < 0 then fail;
  suspend xs[i] || " " || subsum(xs, i + 1, t - xs[i]);
  suspend subsum(xs, i + 1, t);
}
)";
  expectMatchesGolden("search_workload",
                      disassembleProc(source, "q") + disassembleProc(source, "subsum"));
}

}  // namespace
}  // namespace congen::interp::vm

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--update-golden") congen::interp::vm::g_updateGolden = true;
  }
  if (std::getenv("CONGEN_UPDATE_GOLDEN") != nullptr) congen::interp::vm::g_updateGolden = true;
  return RUN_ALL_TESTS();
}
