// parser_test.cpp — grammar shapes via s-expression dumps.
#include "frontend/parser.hpp"

#include <gtest/gtest.h>

namespace congen::frontend {
namespace {

std::string expr(const std::string& src) { return ast::dump(parseExpression(src)); }
std::string prog(const std::string& src) { return ast::dump(parseProgram(src)); }

TEST(ParsePrecedence, ConjunctionIsLoosest) {
  EXPECT_EQ(expr("a & b | c"), "(bin & (id a) (bin | (id b) (id c)))");
  EXPECT_EQ(expr("x := 1 & y := 2"), "(bin & (assign := (id x) (int 1)) (assign := (id y) (int 2)))");
}

TEST(ParsePrecedence, AssignmentBindsLooserThanToBy) {
  EXPECT_EQ(expr("i := 1 to 10"), "(assign := (id i) (toby (int 1) (int 10)))");
  EXPECT_EQ(expr("i := 1 to 10 by 2"), "(assign := (id i) (toby (int 1) (int 10) (int 2)))");
}

TEST(ParsePrecedence, ArithmeticTower) {
  EXPECT_EQ(expr("1 + 2 * 3"), "(bin + (int 1) (bin * (int 2) (int 3)))");
  EXPECT_EQ(expr("2 ^ 3 ^ 2"), "(bin ^ (int 2) (bin ^ (int 3) (int 2)))") << "^ right-assoc";
  EXPECT_EQ(expr("1 - 2 - 3"), "(bin - (bin - (int 1) (int 2)) (int 3))") << "- left-assoc";
  EXPECT_EQ(expr("a < b + 1"), "(bin < (id a) (bin + (id b) (int 1)))");
  EXPECT_EQ(expr("a || b + c"), "(bin || (id a) (bin + (id b) (id c)))");
}

TEST(ParsePrecedence, AlternationVsComparison) {
  EXPECT_EQ(expr("a | b < c"), "(bin | (id a) (bin < (id b) (id c)))");
}

TEST(ParseUnary, ConcurrencyOperators) {
  EXPECT_EQ(expr("<> e"), "(un <> (id e))");
  EXPECT_EQ(expr("|<> e"), "(un |<> (id e))");
  EXPECT_EQ(expr("|> e"), "(un |> (id e))");
  EXPECT_EQ(expr("@ c"), "(un @ (id c))");
  EXPECT_EQ(expr("! c"), "(un ! (id c))");
  EXPECT_EQ(expr("^ c"), "(un ^ (id c))");
  EXPECT_EQ(expr("create e"), "(un |<> (id e))") << "Unicon create = |<>";
  EXPECT_EQ(expr("|e"), "(un | (id e))") << "prefix | is repeated alternation";
}

TEST(ParseUnary, NestedPipesFromThePaper) {
  // x * ! |> factorial(! |> sqrt(y))   (Section III.B)
  EXPECT_EQ(expr("x * ! |> factorial(! |> sqrt(y))"),
            "(bin * (id x) (un ! (un |> (invoke (id factorial) "
            "(un ! (un |> (invoke (id sqrt) (id y))))))))");
}

TEST(ParsePostfix, InvocationIndexFieldChains) {
  EXPECT_EQ(expr("f(x, y)"), "(invoke (id f) (id x) (id y))");
  EXPECT_EQ(expr("f()"), "(invoke (id f))");
  EXPECT_EQ(expr("a[i]"), "(index (id a) (id i))");
  EXPECT_EQ(expr("o.f"), "(field f (id o))");
  EXPECT_EQ(expr("e(x).c[i]"), "(index (field c (invoke (id e) (id x))) (id i))")
      << "the primary chain of Section V.A";
}

TEST(ParsePostfix, NativeInvocation) {
  EXPECT_EQ(expr("this::hash(x)"), "(native hash (id this) (id x))");
  EXPECT_EQ(expr("line::split(s)"), "(native split (id line) (id s))");
}

TEST(ParsePostfix, LimitOperator) {
  EXPECT_EQ(expr("f() \\ 3"), "(limit (invoke (id f)) (int 3))");
}

TEST(ParseLiterals, ListsAndAmpKeywords) {
  EXPECT_EQ(expr("[]"), "(listlit)");
  EXPECT_EQ(expr("[1, 2, x]"), "(listlit (int 1) (int 2) (id x))");
  EXPECT_EQ(expr("&null"), "(null)");
  EXPECT_EQ(expr("&fail"), "(failexpr)");
}

TEST(ParseExprSeq, ParenthesizedSequence) {
  EXPECT_EQ(expr("(a; b; c)"), "(seq (id a) (id b) (id c))");
  EXPECT_EQ(expr("(a)"), "(id a)") << "plain parens are transparent";
}

TEST(ParseExprSeq, BraceExpression) {
  // `|> { local x; x }` — Fig. 4's pipe body.
  EXPECT_EQ(expr("{ local x; x }"), "(seq (decls (vardecl x)) (stmt (id x)))");
}

TEST(ParseAssign, FormsAndSugar) {
  EXPECT_EQ(expr("x := y"), "(assign := (id x) (id y))");
  EXPECT_EQ(expr("x = y"), "(assign := (id x) (id y))") << "Groovy-style = is assignment";
  EXPECT_EQ(expr("x +:= 1"), "(assign +:= (id x) (int 1))");
  EXPECT_EQ(expr("x :=: y"), "(swap :=: (id x) (id y))");
  EXPECT_EQ(expr("a := b := c"), "(assign := (id a) (assign := (id b) (id c)))")
      << "right-associative";
}

TEST(ParseStatements, Loops) {
  EXPECT_EQ(prog("every x := !l do f(x);"),
            "(program (every (assign := (id x) (un ! (id l))) (stmt (invoke (id f) (id x)))))");
  EXPECT_EQ(prog("while c do b;"), "(program (while (id c) (stmt (id b))))");
  EXPECT_EQ(prog("until c;"), "(program (until (id c)))");
  EXPECT_EQ(prog("repeat { break; }"), "(program (repeat (block (break))))");
}

TEST(ParseStatements, IfThenElseNesting) {
  EXPECT_EQ(prog("if a then b; else c;"),
            "(program (if (id a) (stmt (id b)) (stmt (id c))))");
  // Dangling else binds to the nearest if.
  EXPECT_EQ(prog("if a then if b then c; else d;"),
            "(program (if (id a) (if (id b) (stmt (id c)) (stmt (id d)))))");
}

TEST(ParseStatements, SuspendReturnFail) {
  EXPECT_EQ(prog("suspend 1 to 3;"), "(program (suspend (toby (int 1) (int 3))))");
  EXPECT_EQ(prog("suspend;"), "(program (suspend))");
  EXPECT_EQ(prog("return x;"), "(program (return (id x)))");
  EXPECT_EQ(prog("return;"), "(program (return))");
  EXPECT_EQ(prog("fail;"), "(program (fail))");
}

TEST(ParseDefs, BraceForm) {
  EXPECT_EQ(prog("def f(a, b) { return a + b; }"),
            "(program (def f (params (id a) (id b)) (block (return (bin + (id a) (id b))))))");
}

TEST(ParseDefs, ProcedureEndForm) {
  EXPECT_EQ(prog("procedure f(a); suspend a; end"),
            "(program (def f (params (id a)) (block (suspend (id a)))))");
}

TEST(ParseDefs, LocalDeclarationsWithInit) {
  EXPECT_EQ(prog("def f() { local a, b := 2; }"),
            "(program (def f (params) (block (decls (vardecl a) (vardecl b (int 2))))))");
}

TEST(ParseErrors, Diagnostics) {
  EXPECT_THROW(parseExpression("1 +"), SyntaxError);
  EXPECT_THROW(parseExpression("f("), SyntaxError);
  EXPECT_THROW(parseExpression("(a; b"), SyntaxError);
  EXPECT_THROW(parseExpression("1 2"), SyntaxError) << "trailing input rejected";
  EXPECT_THROW(parseProgram("def { }"), SyntaxError) << "missing procedure name";
  EXPECT_THROW(parseProgram("if a b"), SyntaxError) << "missing then";
  EXPECT_THROW(parseProgram("{ unclosed"), SyntaxError);
}

std::string repeat(const std::string& s, int n) {
  std::string out;
  for (int i = 0; i < n; ++i) out += s;
  return out;
}

std::string nestedParens(int n) { return repeat("(", n) + "1" + repeat(")", n); }

std::string chainOf(const std::string& op, int terms) {
  std::string out = "1";
  for (int i = 1; i < terms; ++i) out += op + "1";
  return out;
}

TEST(ParseNesting, DeepInputsAreSyntaxErrors) {
  // Each of these once overflowed the native stack (SIGSEGV) in the
  // parser or in a pass that recurses on the tree it builds.
  EXPECT_THROW(parseExpression("write(" + nestedParens(3000) + ")"), SyntaxError);
  EXPECT_THROW(parseExpression(repeat("[", 5000) + repeat("]", 5000)), SyntaxError);
  EXPECT_THROW(parseExpression(repeat("-", 100000) + "1"), SyntaxError);
  EXPECT_THROW(parseExpression(chainOf(" + ", 50000)), SyntaxError);
  EXPECT_THROW(parseExpression(chainOf("^", 5000)), SyntaxError);
  EXPECT_THROW(parseExpression(repeat("x := ", 5000) + "1"), SyntaxError);
  EXPECT_THROW(parseProgram(repeat("{", 5000) + repeat("}", 5000)), SyntaxError);
  EXPECT_THROW(parseExpression("x" + repeat(".a", 5000)), SyntaxError);
  try {
    parseExpression(chainOf(" + ", 50000));
  } catch (const SyntaxError& e) {
    EXPECT_NE(std::string(e.what()).find("nesting too deep"), std::string::npos) << e.what();
  }
}

TEST(ParseNesting, ChainsInsideChainsAddUp) {
  // A chain's first operand sinks one level per fold, so chains nested
  // through parentheses cannot hide their combined depth: 40 levels of
  // 40-term sums is over 1600 deep.
  std::string e = "1";
  for (int i = 0; i < 40; ++i) e = "(" + e + ")" + repeat(" + 1", 40);
  EXPECT_THROW(parseExpression(e), SyntaxError);
}

TEST(ParseNesting, ProgramAtTheLimitParses) {
  // The limit is 1000 levels. An expression statement costs two
  // (statement, expression) and each parenthesis one more.
  EXPECT_NO_THROW(parseProgram(nestedParens(998)));
  EXPECT_THROW(parseProgram(nestedParens(999)), SyntaxError);
  EXPECT_NO_THROW(parseExpression(chainOf(" + ", 1000)));
  EXPECT_THROW(parseExpression(chainOf(" + ", 1001)), SyntaxError);
}

TEST(ParseRegression, Fig3PipelineExpression) {
  // The embedded expression of Fig. 3 parses cleanly.
  EXPECT_NO_THROW(parseExpression(
      "this::hashNumber( ! (|> this::wordToNumber( ! splitWords(readLines()))))"));
}

TEST(ParseRegression, Fig4MapReduceBody) {
  EXPECT_NO_THROW(parseProgram(R"(
    def mapReduce(f, s, r, i) {
      local c, t, tasks;
      tasks := [];
      every (c := chunk(<> s())) do {
        t := |> { local x; x := i; every (x := r(x, f(!c))); x };
        put(tasks, t);
      };
      suspend ! (! tasks);
    }
  )"));
}

}  // namespace
}  // namespace congen::frontend
