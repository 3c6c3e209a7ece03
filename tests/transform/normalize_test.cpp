// normalize_test.cpp — the generator-flattening pass of Section V.A,
// including semantic-equivalence properties (raw vs normalized trees
// produce identical result sequences when interpreted).
#include "transform/normalize.hpp"

#include <gtest/gtest.h>

#include "frontend/parser.hpp"
#include "interp/interpreter.hpp"

namespace congen::transform {
namespace {

std::string norm(const std::string& src) {
  TempNames names;
  return ast::dump(normalize(frontend::parseExpression(src), names));
}

TEST(IsSimpleTest, Classification) {
  EXPECT_TRUE(isSimple(frontend::parseExpression("x")));
  EXPECT_TRUE(isSimple(frontend::parseExpression("42")));
  EXPECT_TRUE(isSimple(frontend::parseExpression("\"s\"")));
  EXPECT_TRUE(isSimple(frontend::parseExpression("&null")));
  EXPECT_FALSE(isSimple(frontend::parseExpression("f(x)")));
  EXPECT_FALSE(isSimple(frontend::parseExpression("1 to 3")));
  EXPECT_FALSE(isSimple(frontend::parseExpression("a + b")));
}

TEST(NormalizeShape, SimpleOperandsUntouched) {
  EXPECT_EQ(norm("f(x, y)"), "(invoke (id f) (id x) (id y))")
      << "already-simple invocations are preserved (native evaluation)";
  EXPECT_EQ(norm("a[i]"), "(index (id a) (id i))");
  EXPECT_EQ(norm("o.f"), "(field f (id o))");
}

TEST(NormalizeShape, GeneratorArgumentHoisted) {
  // f(1 to 3) → (x_0 in 1 to 3) & f(x_0)
  EXPECT_EQ(norm("f(1 to 3)"),
            "(bin & (in x_0 (toby (int 1) (int 3))) (invoke (id f) (tmp x_0)))");
}

TEST(NormalizeShape, MultipleArgumentsHoistLeftToRight) {
  EXPECT_EQ(norm("f(g(x), 1 to 2)"),
            "(bin & (in x_0 (invoke (id g) (id x))) "
            "(bin & (in x_1 (toby (int 1) (int 2))) "
            "(invoke (id f) (tmp x_0) (tmp x_1))))");
}

TEST(NormalizeShape, PaperPrimaryChain) {
  // The running example of Section V.A: e(ex, ey).c[ei] becomes a chain
  // of bound iterators with only simple operands left in the primary.
  const std::string out = norm("e(ex, ey).c[ei]");
  // The innermost invocation keeps simple operands:
  EXPECT_NE(out.find("(invoke (id e) (id ex) (id ey))"), std::string::npos) << out;
  // Its result is bound and the field selection applies to the binding:
  EXPECT_NE(out.find("(field c (tmp x_0))"), std::string::npos) << out;
  // ...which is itself bound before subscripting:
  EXPECT_NE(out.find("(index (tmp x_1) (id ei))"), std::string::npos) << out;
}

TEST(NormalizeShape, AssignmentKeepsLValueShape) {
  // The LHS must still yield a variable: Index stays, its operands hoist.
  EXPECT_EQ(norm("a[f(i)] := 5"),
            "(bin & (in x_0 (invoke (id f) (id i))) "
            "(assign := (index (id a) (tmp x_0)) (int 5)))");
  EXPECT_EQ(norm("x := f(1 to 2)"),
            "(assign := (id x) (bin & (in x_0 (toby (int 1) (int 2))) "
            "(invoke (id f) (tmp x_0))))");
}

TEST(NormalizeShape, NativeInvokeHoists) {
  EXPECT_EQ(norm("this::h(g(x))"),
            "(bin & (in x_0 (invoke (id g) (id x))) (native h (id this) (tmp x_0)))")
      << "nested primaries hoist recursively; the simple receiver stays in place";
}

TEST(NormalizeShape, TempNamesFollowFig5Convention) {
  TempNames names;
  EXPECT_EQ(names.fresh(), "x_0");
  EXPECT_EQ(names.fresh(), "x_1");
  EXPECT_EQ(names.used(), 2);
}

TEST(NormalizeStatements, RecursesThroughControl) {
  TempNames names;
  const auto prog = normalize(
      frontend::parseProgram("every i := f(1 to 3) do write(i);"), names);
  const std::string out = ast::dump(prog);
  EXPECT_NE(out.find("(in x_0 (toby (int 1) (int 3)))"), std::string::npos) << out;
}

TEST(FreeIdentsTest, CollectsUnboundNames) {
  const auto e = frontend::parseExpression("f(x) + y");
  EXPECT_EQ(freeIdents(e), (std::vector<std::string>{"f", "x", "y"}));
}

TEST(FreeIdentsTest, ExcludesBoundNames) {
  // Declarations and bound iterators bind; parameters bind.
  const auto prog = frontend::parseProgram("def g(a) { local b; suspend a + b + c; }");
  EXPECT_EQ(freeIdents(prog), (std::vector<std::string>{"c"}));

  TempNames names;
  const auto e = normalize(frontend::parseExpression("f(1 to 3)"), names);
  EXPECT_EQ(freeIdents(e), (std::vector<std::string>{"f"})) << "x_0 is bound by its BoundIter";
}

// ---------------------------------------------------------------------
// Semantic equivalence: interpreting the raw tree and the normalized
// tree must produce identical result sequences — normalization is a
// semantics-preserving rewriting (Section V: "semantically equivalent").
// ---------------------------------------------------------------------

class NormalizationEquivalence : public ::testing::TestWithParam<const char*> {};

TEST_P(NormalizationEquivalence, SameResultSequence) {
  const std::string defs = R"(
    def dbl(x) { return x * 2; }
    def gen(n) { suspend 1 to n; }
    def pick(x) { if x % 2 == 0 then return x; fail; }
  )";

  interp::Interpreter raw(interp::Interpreter::Options{.normalize = false});
  interp::Interpreter normd(interp::Interpreter::Options{.normalize = true});
  raw.load(defs);
  normd.load(defs);

  auto rawValues = raw.evalAll(GetParam());
  auto normValues = normd.evalAll(GetParam());
  ASSERT_EQ(rawValues.size(), normValues.size()) << GetParam();
  for (std::size_t i = 0; i < rawValues.size(); ++i) {
    // Compare by image: structures are equal under === only by identity,
    // but the two interpreters necessarily build distinct lists.
    EXPECT_EQ(rawValues[i].image(), normValues[i].image()) << GetParam() << " result " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, NormalizationEquivalence,
    ::testing::Values(
        "dbl(1 to 5)",
        "dbl(dbl(gen(3)))",
        "gen(2) + gen(2)",
        "pick(1 to 10)",
        "(1 to 2) * pick(4 to 7)",
        "dbl(gen(3)) + 1",
        "[gen(2), 9]",
        "(x := gen(3)) & x * 10",
        "dbl(if 1 < 2 then 5 else 6)",
        "gen(3) \\ 2",
        "-gen(3)",
        "dbl(3 | 1 | 2)",
        "\"abc\"[gen(3)]",
        "pick(gen(10)) > 5"));

}  // namespace
}  // namespace congen::transform
