// resolution_test.cpp — the name-resolution pass and slot-indexed
// frames: identifier classification (slot / global / builtin / late),
// procedure-scoped locals, keep-and-rebind redeclaration, co-expression
// environments over slots, and distinct slots for every activation.
#include <gtest/gtest.h>

#include "frontend/parser.hpp"
#include "interp/interpreter.hpp"
#include "interp/resolver.hpp"
#include "interp/scope.hpp"

namespace congen::interp {
namespace {

using ast::Kind;
using ast::NodePtr;

std::vector<std::int64_t> evalInts(Interpreter& interp, const std::string& src) {
  std::vector<std::int64_t> out;
  for (const auto& v : interp.evalAll(src)) out.push_back(v.requireInt64("test"));
  return out;
}

/// First Ident/TempRef node spelled `text`, depth-first.
NodePtr findIdent(const NodePtr& n, const std::string& text) {
  if (!n) return nullptr;
  if ((n->kind == Kind::Ident || n->kind == Kind::TempRef) && n->text == text) return n;
  for (const auto& k : n->kids) {
    if (auto found = findIdent(k, text)) return found;
  }
  return nullptr;
}

/// Resolve the single def in `src` against `globals`; returns its layout
/// and leaves the (annotated) def in `defOut`.
FrameLayout resolveDef(const std::string& src, const Scope& globals, NodePtr& defOut) {
  const NodePtr program = frontend::parseProgram(src);
  for (const auto& item : program->kids) {
    if (item->kind == Kind::Def) {
      defOut = item;
      return resolve(item->kids[0], item->kids[1], globals);
    }
  }
  ADD_FAILURE() << "no def in source";
  return {};
}

TEST(ResolverLayout, ParamsLeadTheFrameAndLocalsFollow) {
  auto globals = Scope::makeGlobal();
  NodePtr def;
  const auto layout =
      resolveDef("def f(a, b) { local x; x := a + b; return x; }", *globals, def);
  EXPECT_EQ(layout.nParams, 2u);
  EXPECT_EQ(layout.slotOf("a"), 0);
  EXPECT_EQ(layout.slotOf("b"), 1);
  EXPECT_GE(layout.slotOf("x"), 2);

  const auto a = findIdent(def->kids[1], "a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->res, ast::Res::Slot);
  EXPECT_EQ(a->slot, 0);
}

TEST(ResolverLayout, GlobalsBuiltinsAndLateNamesAreClassified) {
  auto globals = Scope::makeGlobal();
  globals->declare("g");
  NodePtr def;
  const auto layout = resolveDef(
      "def f() { acc := g + sqrt(4) + mystery; return acc; }", *globals, def);

  const auto body = def->kids[1];
  ASSERT_NE(findIdent(body, "g"), nullptr);
  EXPECT_EQ(findIdent(body, "g")->res, ast::Res::Global)
      << "a name bound in the global scope resolves there at compile time";
  ASSERT_NE(findIdent(body, "sqrt"), nullptr);
  EXPECT_EQ(findIdent(body, "sqrt")->res, ast::Res::Builtin);
  ASSERT_NE(findIdent(body, "acc"), nullptr);
  EXPECT_EQ(findIdent(body, "acc")->res, ast::Res::Late)
      << "undeclared free names are late slots: implicitly local unless a "
         "global of that name (ever) exists";
  ASSERT_NE(findIdent(body, "mystery"), nullptr);
  EXPECT_EQ(findIdent(body, "mystery")->res, ast::Res::Late);
  EXPECT_GE(layout.slotOf("acc"), 0) << "late names still own a fallback slot";
  EXPECT_GE(layout.slotOf("mystery"), 0);
}

TEST(ScopeSemantics, RedeclarationKeepsTheCell) {
  auto scope = Scope::makeGlobal();
  const VarPtr first = scope->declare("x");
  first->set(Value::integer(5));
  const VarPtr second = scope->declare("x");
  EXPECT_EQ(first.get(), second.get())
      << "redeclaring rebinds the existing cell, it does not mint a new one";
  EXPECT_TRUE(second->get().isNull()) << "the value is rebound to the initial";
  EXPECT_EQ(scope->declare("x", Value::integer(9)).get(), first.get());
  EXPECT_EQ(first->get().smallInt(), 9);
}

TEST(EvalResolution, LocalShadowsGlobalAcrossScopes) {
  Interpreter interp;
  interp.evalOne("g := 10");
  interp.load("def f() { local g; g := 1; return g; }");
  EXPECT_EQ(interp.evalOne("f()")->smallInt(), 1);
  EXPECT_EQ(interp.evalOne("g")->smallInt(), 10) << "the global cell is untouched";
}

TEST(EvalResolution, BlockLocalsAreProcedureScoped) {
  // Icon locals live in one flat frame per procedure, not per block: a
  // declaration inside a nested block is visible after the block.
  Interpreter interp;
  interp.load("def f() { if 1 == 1 then { local y; y := 5; }; return y; }");
  EXPECT_EQ(interp.evalOne("f()")->smallInt(), 5);
}

TEST(EvalResolution, ShadowCoExprsCopySlotLocalsAtCreation) {
  // Three |<> environments are created while i walks 1..3 and only
  // activated afterwards: each must have copied its own i.
  Interpreter interp;
  interp.load(R"(
    def caps() {
      local i, t, tasks, acc;
      tasks := [];
      every i := 1 to 3 do put(tasks, |<> (i * 10));
      acc := 0;
      every t := !tasks do acc := acc + @t;
      return acc;
    }
  )");
  EXPECT_EQ(interp.evalOne("caps()")->smallInt(), 60)
      << "each |<> saw the slot value at creation, not the final one";
}

TEST(EvalResolution, RefreshRestoresInitialSlotValues) {
  // The first activation mutates the shadowed copy; ^ rebuilds the
  // environment from the current outer slots, discarding that mutation.
  Interpreter interp;
  interp.load(R"(
    def run() {
      local x, c, a, b;
      x := 1;
      c := |<> (x +:= 1);
      a := @c;
      b := @(^c);
      return a * 10 + b;
    }
  )");
  EXPECT_EQ(interp.evalOne("run()")->smallInt(), 22);
}

TEST(EvalResolution, GlobalDeclaredAfterFirstReference) {
  Interpreter interp;
  interp.load("def probe() { if /flag then return -1; return flag; }");
  EXPECT_EQ(interp.evalOne("probe()")->smallInt(), -1)
      << "before the global exists the late slot reads its null fallback";
  interp.evalOne("flag := 7");
  EXPECT_EQ(interp.evalOne("probe()")->smallInt(), 7)
      << "the late-bound slot re-checks globals per access";
}

TEST(EvalResolution, LocalDeclaredTwiceKeepsItsCell) {
  // Regression for `local x` twice: redeclaration must not mint a new
  // cell, so a co-expression created before the second `local x` still
  // observes writes made after it.
  Interpreter interp;
  interp.load(R"(
    def f() {
      local x, c;
      x := 1;
      c := <> x;
      local x;
      x := 2;
      return @c;
    }
  )");
  EXPECT_EQ(interp.evalOne("f()")->smallInt(), 2);
  EXPECT_EQ(interp.evalOne("f()")->smallInt(), 2) << "stable on repeated calls";
}

TEST(EvalResolution, PooledFramesRebindLocalsBetweenCalls) {
  // A reused body must not leak the previous activation's locals.
  Interpreter interp;
  interp.load("def f() { local x; if /x then x := 1; else x := 99; return x; }");
  EXPECT_EQ(interp.evalOne("f()")->smallInt(), 1);
  EXPECT_EQ(interp.evalOne("f()")->smallInt(), 1) << "second call sees a fresh null x";
  EXPECT_EQ(interp.evalOne("f()")->smallInt(), 1);
}

TEST(EvalResolution, RecursionGetsDistinctFrames) {
  // Nested activations of the same procedure each get slots of their
  // own on the machine: an inner call never writes an outer one's n.
  Interpreter interp;
  interp.load("def fib(n) { if n < 2 then return n; return fib(n - 1) + fib(n - 2); }");
  EXPECT_EQ(interp.evalOne("fib(12)")->smallInt(), 144);
  EXPECT_EQ(interp.evalOne("fib(12)")->smallInt(), 144);
}

TEST(EvalResolution, GoalDirectedResumptionThroughSlots) {
  Interpreter interp;
  interp.load("def pick() { local i; every i := 1 to 10 do suspend i; }");
  EXPECT_EQ(evalInts(interp, "pick() > 8"), (std::vector<std::int64_t>{8, 8}))
      << "suspended bodies resume with their slot state intact";
}

}  // namespace
}  // namespace congen::interp
