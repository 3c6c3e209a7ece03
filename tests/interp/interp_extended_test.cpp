// interp_extended_test.cpp — extended Icon/Unicon features: records,
// case, slices, null tests, globals, and the string-analysis builtins.
#include <gtest/gtest.h>

#include "interp/interpreter.hpp"
#include "runtime/collections.hpp"
#include "runtime/error.hpp"
#include "runtime/record.hpp"

namespace congen::interp {
namespace {

std::vector<std::int64_t> evalInts(Interpreter& interp, const std::string& src) {
  std::vector<std::int64_t> out;
  for (const auto& v : interp.evalAll(src)) out.push_back(v.requireInt64("test"));
  return out;
}

TEST(Records, DeclarationAndConstruction) {
  Interpreter interp;
  interp.load("record point(x, y)");
  interp.evalOne("p := point(3, 4)");
  EXPECT_EQ(interp.evalOne("type(p)")->str(), "point") << "type() is the record name";
  EXPECT_EQ(interp.evalOne("p.x")->smallInt(), 3);
  EXPECT_EQ(interp.evalOne("p.y")->smallInt(), 4);
  EXPECT_EQ(interp.evalOne("*p")->smallInt(), 2);
}

TEST(Records, MissingConstructorArgsAreNull) {
  Interpreter interp;
  interp.load("record pair(a, b)");
  interp.evalOne("p := pair(1)");
  EXPECT_EQ(interp.evalOne("type(p.b)")->str(), "null");
}

TEST(Records, FieldsAreAssignable) {
  Interpreter interp;
  interp.load("record point(x, y)");
  interp.evalOne("p := point(1, 2)");
  interp.evalOne("p.x := 10");
  interp.evalOne("p.y +:= 5");
  EXPECT_EQ(interp.evalOne("p.x")->smallInt(), 10);
  EXPECT_EQ(interp.evalOne("p.y")->smallInt(), 7);
}

TEST(Records, PositionalSubscriptAndPromotion) {
  Interpreter interp;
  interp.load("record point(x, y)");
  interp.evalOne("p := point(8, 9)");
  EXPECT_EQ(interp.evalOne("p[1]")->smallInt(), 8);
  EXPECT_EQ(interp.evalOne("p[-1]")->smallInt(), 9);
  interp.evalOne("p[2] := 99");
  EXPECT_EQ(interp.evalOne("p.y")->smallInt(), 99);
  EXPECT_EQ(evalInts(interp, "!p"), (std::vector<std::int64_t>{8, 99})) << "! generates fields";
}

TEST(Records, UnknownFieldErrors) {
  Interpreter interp;
  interp.load("record point(x, y)");
  interp.evalOne("p := point(1, 2)");
  EXPECT_THROW(interp.evalAll("p.z"), IconError);
  EXPECT_TRUE(interp.evalAll("p[3]").empty()) << "positional out-of-range fails";
}

TEST(Records, ReferenceSemanticsAndImage) {
  Interpreter interp;
  interp.load(R"(
    record point(x, y)
    def mutate(q) { q.x := 42; return q; }
  )");
  interp.evalOne("p := point(1, 2)");
  interp.evalOne("mutate(p)");
  EXPECT_EQ(interp.evalOne("p.x")->smallInt(), 42) << "records pass by reference";
  EXPECT_EQ(interp.evalOne("image(p)")->str(), "record point(42,2)");
}

TEST(Records, UsedInsidePipes) {
  Interpreter interp;
  interp.load(R"(
    record item(id, weight)
    def stream(n) { local i; every i := 1 to n do suspend item(i, i * 10); }
  )");
  EXPECT_EQ(evalInts(interp, "(! |> stream(4)).weight"),
            (std::vector<std::int64_t>{10, 20, 30, 40}))
      << "records cross the pipe's thread boundary";
}

TEST(CaseExpr, SelectsFirstEquivalentBranch) {
  Interpreter interp;
  interp.load(R"(
    def describe(x) {
      case x of {
        0: return "zero";
        1 | 2 | 3: return "small";
        "many": return "word";
        default: return "other";
      }
    }
  )");
  EXPECT_EQ(interp.evalOne("describe(0)")->str(), "zero");
  EXPECT_EQ(interp.evalOne("describe(2)")->str(), "small") << "alternation in branch values";
  EXPECT_EQ(interp.evalOne("describe(\"many\")")->str(), "word");
  EXPECT_EQ(interp.evalOne("describe(99)")->str(), "other");
  EXPECT_EQ(interp.evalOne("describe(1.0)")->str(), "other") << "=== distinguishes 1 from 1.0";
}

TEST(CaseExpr, NoMatchNoDefaultFails) {
  Interpreter interp;
  interp.load("def f(x) { case x of { 1: return 10; } }");
  EXPECT_EQ(interp.evalOne("f(1)")->smallInt(), 10);
  EXPECT_TRUE(interp.evalAll("f(2)").empty());
}

TEST(CaseExpr, BranchDelegatesGeneration) {
  Interpreter interp;
  interp.load("def g(x) { case x of { 1: suspend 10 to 12; } }");
  EXPECT_EQ(evalInts(interp, "g(1)"), (std::vector<std::int64_t>{10, 11, 12}));
}

TEST(Slices, StringsUsePositions) {
  Interpreter interp;
  EXPECT_EQ(interp.evalOne("\"hello\"[2:4]")->str(), "el") << "positions 2..4 = chars 2..3";
  EXPECT_EQ(interp.evalOne("\"hello\"[1:6]")->str(), "hello");
  EXPECT_EQ(interp.evalOne("\"hello\"[2:2]")->str(), "") << "empty slice";
  EXPECT_EQ(interp.evalOne("\"hello\"[4:2]")->str(), "el") << "reversed bounds swap";
  EXPECT_EQ(interp.evalOne("\"hello\"[2:0]")->str(), "ello") << "0 = position past the end";
  EXPECT_EQ(interp.evalOne("\"hello\"[-3:0]")->str(), "llo") << "negative from the right";
  EXPECT_TRUE(interp.evalAll("\"hi\"[1:9]").empty()) << "out of range fails";
}

TEST(Slices, ListsCopySections) {
  Interpreter interp;
  interp.evalOne("l := [1, 2, 3, 4, 5]");
  EXPECT_EQ(interp.evalOne("image(l[2:4])")->str(), "[2,3]");
  interp.evalOne("m := l[1:3]");
  interp.evalOne("m[1] := 99");
  EXPECT_EQ(interp.evalOne("l[1]")->smallInt(), 1) << "slices are copies";
}

TEST(NullTests, BackslashAndSlash) {
  Interpreter interp;
  interp.evalOne("x := 5");
  EXPECT_EQ(interp.evalOne("\\x")->smallInt(), 5) << "\\x succeeds for non-null";
  EXPECT_TRUE(interp.evalAll("/x").empty()) << "/x fails for non-null";
  interp.evalOne("y := &null");
  EXPECT_TRUE(interp.evalAll("\\y").empty());
  EXPECT_EQ(interp.evalAll("/y").size(), 1u);
  // The classic default idiom: /x := value assigns only when null.
  interp.evalOne("/y := 7");
  EXPECT_EQ(interp.evalOne("y")->smallInt(), 7);
  interp.evalOne("/y := 100");
  EXPECT_EQ(interp.evalOne("y")->smallInt(), 7) << "already non-null: assignment fails silently";
}

// The compiler drops a subscript's trapped variable only where nothing
// can read it. These shapes read it — through a return, a suspension, a
// null test or a swap — so each assignment must still land in the list.
TEST(SubscriptRefs, ReturnedAndSuspendedSubscriptsStayAssignable) {
  Interpreter interp;
  interp.load(R"(
    global l
    def f() { return l[2]; }
    def g() { suspend l[1 to 3]; }
    def zero() { every g() := 0; }
  )");
  interp.evalOne("l := [1, 2, 3]");
  interp.evalOne("f() := 9");
  EXPECT_EQ(interp.evalOne("l[2]")->smallInt(), 9) << "f() := 9 assigns through l[2]";
  interp.evalAll("zero()");
  EXPECT_EQ(evalInts(interp, "!l"), (std::vector<std::int64_t>{0, 0, 0}))
      << "every g() := 0 assigns each suspended element";
}

TEST(SubscriptRefs, NullTestsAndSwapAssignThroughTheElement) {
  Interpreter interp;
  interp.load(R"(
    global l
    def fill() { local i; every i := 1 to 3 do /l[i] := 7; }
  )");
  interp.evalOne("l := [&null, 2, &null]");
  interp.evalAll("fill()");
  EXPECT_EQ(evalInts(interp, "!l"), (std::vector<std::int64_t>{7, 2, 7}))
      << "/l[i] := 7 fills only the null elements";
  interp.evalOne("(\\l[1]) +:= 10");
  EXPECT_EQ(interp.evalOne("l[1]")->smallInt(), 17);
  interp.evalOne("l[1] :=: l[3]");
  EXPECT_EQ(evalInts(interp, "!l"), (std::vector<std::int64_t>{7, 2, 17}));
}

TEST(SubscriptRefs, OutOfRangeSubscriptsStillFail) {
  Interpreter interp;
  interp.load(R"(
    global l
    def probe() { local r; r := "failed"; /l[9] & (r := "passed"); return r; }
  )");
  interp.evalOne("l := [1, 2, 3]");
  interp.evalOne("x := l[9] | \"nine fails\"");
  EXPECT_EQ(interp.evalOne("x")->str(), "nine fails");
  EXPECT_EQ(interp.evalOne("probe()")->str(), "failed") << "a dropped /l[9] still fails";
}

TEST(Globals, ExplicitDeclaration) {
  Interpreter interp;
  interp.load(R"(
    global counter
    def bump() { /counter := 0; counter +:= 1; return counter; }
  )");
  EXPECT_EQ(interp.evalOne("bump()")->smallInt(), 1);
  EXPECT_EQ(interp.evalOne("bump()")->smallInt(), 2) << "global persists across calls";
  EXPECT_EQ(interp.evalOne("counter")->smallInt(), 2);
}

TEST(StringBuiltins, JustifyAndReplicate) {
  Interpreter interp;
  EXPECT_EQ(interp.evalOne("left(\"ab\", 5)")->str(), "ab   ");
  EXPECT_EQ(interp.evalOne("left(\"abcdef\", 3)")->str(), "abc");
  EXPECT_EQ(interp.evalOne("right(\"ab\", 5, \".\")")->str(), "...ab");
  EXPECT_EQ(interp.evalOne("repl(\"ab\", 3)")->str(), "ababab");
  EXPECT_EQ(interp.evalOne("repl(\"x\", 0)")->str(), "");
}

TEST(StringBuiltins, CharOrd) {
  Interpreter interp;
  EXPECT_EQ(interp.evalOne("ord(\"A\")")->smallInt(), 65);
  EXPECT_EQ(interp.evalOne("char(97)")->str(), "a");
  EXPECT_EQ(interp.evalOne("char(ord(\"z\"))")->str(), "z");
  EXPECT_THROW(interp.evalAll("ord(\"ab\")"), IconError);
}

TEST(StringBuiltins, ScanningPrimitives) {
  Interpreter interp;
  EXPECT_EQ(evalInts(interp, "upto(\"aeiou\", \"banana\")"),
            (std::vector<std::int64_t>{2, 4, 6})) << "vowel positions";
  EXPECT_EQ(interp.evalOne("any(\"ab\", \"banana\")")->smallInt(), 2);
  EXPECT_TRUE(interp.evalAll("any(\"xyz\", \"banana\")").empty());
  EXPECT_EQ(interp.evalOne("many(\"ba\", \"baaab!\")")->smallInt(), 6)
      << "longest run of b/a ends before position 6... at 6";
  EXPECT_EQ(interp.evalOne("match(\"ban\", \"banana\")")->smallInt(), 4);
  EXPECT_TRUE(interp.evalAll("match(\"nan\", \"banana\")").empty());
  EXPECT_EQ(interp.evalOne("match(\"nan\", \"banana\", 3)")->smallInt(), 6);
}

TEST(HostInterop, RecordsVisibleFromHost) {
  Interpreter interp;
  interp.load("record point(x, y)");
  interp.evalOne("p := point(3, 4)");
  auto p = interp.global("p");
  ASSERT_TRUE(p && p->isRecord());
  EXPECT_EQ(p->record()->field("x")->smallInt(), 3);
  p->record()->assignField("y", Value::integer(11));
  EXPECT_EQ(interp.evalOne("p.y")->smallInt(), 11);
}

}  // namespace
}  // namespace congen::interp
