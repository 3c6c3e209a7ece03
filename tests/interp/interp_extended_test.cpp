// interp_extended_test.cpp — extended Icon/Unicon features: records,
// case, slices, null tests, globals, the string-analysis builtins, and
// procedures called from the host.
#include <gtest/gtest.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <string>

#include "interp/interpreter.hpp"
#include "kernel/basic.hpp"
#include "par/data_parallel.hpp"
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

// A string's character is not a variable: `s[i] := v` raises 205 and
// leaves the string as it was. That holds where the string sits in a
// list, table or record element too (normalization holds such a
// collection in a temporary, which must not become the target).
TEST(SubscriptStores, StringSubscriptStoreRaises205) {
  Interpreter interp;
  interp.load(R"(
    record box(f)
    def fix(s) { s[2] := "x"; return s; }
    def bang(s) { s[1] ||:= "!"; return s; }
  )");
  const auto errorOf = [&](const std::string& src) {
    try {
      interp.evalAll(src);
    } catch (const IconError& e) {
      return e.number();
    }
    return 0;
  };
  interp.evalOne("s := \"abc\"");
  EXPECT_EQ(errorOf("s[2] := \"x\""), 205) << "a global string";
  EXPECT_EQ(interp.evalOne("s")->str(), "abc");
  EXPECT_EQ(errorOf("fix(\"hello\")"), 205) << "a local string";
  EXPECT_EQ(errorOf("bang(\"hello\")"), 205) << "op:= on a character";
  interp.evalOne("l := [\"abc\"]");
  EXPECT_EQ(errorOf("l[1][2] := \"x\""), 205) << "a string in a list";
  EXPECT_EQ(interp.evalOne("l[1]")->str(), "abc");
  interp.evalOne("t := table()");
  interp.evalOne("t[\"k\"] := \"abc\"");
  EXPECT_EQ(errorOf("t[\"k\"][1] := \"x\""), 205) << "a string in a table";
  EXPECT_EQ(interp.evalOne("t[\"k\"]")->str(), "abc");
  interp.evalOne("r := box(\"abc\")");
  EXPECT_EQ(errorOf("r.f[1] := \"x\""), 205) << "a string in a record field";
  EXPECT_EQ(interp.evalOne("r.f")->str(), "abc");
  EXPECT_TRUE(interp.evalAll("s[9] := \"q\"").empty()) << "an out-of-range position fails first";
}

TEST(SubscriptStores, AssignmentResultsStayVariables) {
  // An assignment whose result is assigned again, or suspended, still
  // yields its variable: the store op hands it on when something reads
  // it.
  Interpreter interp;
  interp.load(R"(
    global x, l
    def again() { local y; (y := 1) := 2; return y; }
    def hand() { suspend x := 5; }
    def handSub() { suspend l[2] := 3; }
    def assignHanded() { every hand() := 7; every handSub() := 4; }
  )");
  EXPECT_EQ(interp.evalOne("again()")->smallInt(), 2) << "(y := 1) := 2 on a local";
  interp.evalOne("l := [1, 2, 3]");
  interp.evalOne("(l[1] := 5) := 6");
  EXPECT_EQ(interp.evalOne("l[1]")->smallInt(), 6) << "a subscript assignment assigned again";
  interp.evalAll("assignHanded()");
  EXPECT_EQ(interp.evalOne("x")->smallInt(), 7) << "a suspended global assignment";
  EXPECT_EQ(interp.evalOne("l[2]")->smallInt(), 4) << "a suspended subscript assignment";
}

TEST(SubscriptStores, SubscriptIsCheckedBeforeTheRightSide) {
  Interpreter interp;
  interp.load(R"(
    global calls
    def rhs() { calls +:= 1; return 9; }
  )");
  interp.evalOne("calls := 0");
  interp.evalOne("l := [1, 2, 3]");
  EXPECT_TRUE(interp.evalAll("l[9] := rhs()").empty());
  EXPECT_EQ(interp.evalOne("calls")->smallInt(), 0) << "an out-of-range target runs no right side";
  // A right side that shrinks the list: the element is resolved when it
  // is written, as its trapped variable would be.
  EXPECT_THROW(interp.evalAll("l[3] := (pull(l) & 7)"), IconError);
  interp.evalOne("l[-1] := (pull(l) & 8)");
  EXPECT_EQ(interp.evalOne("*l")->smallInt(), 1);
  EXPECT_EQ(interp.evalOne("l[1]")->smallInt(), 8);
}

// VM-to-VM calls run on the machine's own activation stack, not the
// native stack: runaway recursion ends in 813 at a fixed cap.
TEST(VmActivations, RunawayRecursionRaises813) {
  Interpreter interp;
  interp.load(R"(
    def f(n) { return f(n + 1); }
    def g(n) { suspend g(n + 1) | n; }
    def firstOfG() { every write(g(1)) \\ 1; }
  )");
  try {
    interp.evalAll("f(1)");
    FAIL() << "expected 813";
  } catch (const IconError& e) {
    EXPECT_EQ(e.number(), 813) << e.what();
  }
  try {
    interp.evalAll("firstOfG()");
    FAIL() << "expected 813";
  } catch (const IconError& e) {
    EXPECT_EQ(e.number(), 813) << e.what();
  }
  EXPECT_EQ(interp.evalOne("1 + 1")->smallInt(), 2) << "the interpreter stays usable";
}

TEST(VmActivations, DeepRecursionUnderTheCapReturns) {
  Interpreter interp;
  interp.load(R"(
    def down(n) { if n <= 0 then return 0; return 1 + down(n - 1); }
    def deep(n) { if n <= 0 then return 0; return deep(n - 1); }
  )");
  EXPECT_EQ(interp.evalOne("down(12000)")->smallInt(), 12000);
  EXPECT_EQ(interp.evalOne("deep(99000)")->smallInt(), 0);
  try {
    interp.evalAll("down(1000000)");
    FAIL() << "expected 813";
  } catch (const IconError& e) {
    EXPECT_EQ(e.number(), 813) << e.what();
  }
  EXPECT_EQ(interp.evalOne("down(100)")->smallInt(), 100);
}

TEST(VmActivations, SuspendedCallChainsResumeInPlace) {
  // Each level suspends while its callers run on; backtracking resumes
  // the whole chain, and a bounded expression abandons it.
  Interpreter interp;
  interp.load(R"(
    def gen(n) { if n <= 0 then fail; suspend n | gen(n - 1); }
    def pairs() { local a, b; every a := gen(3) & b := gen(a - 1) do suspend a * 10 + b; }
    def first() { return gen(5) + 100; }
  )");
  EXPECT_EQ(evalInts(interp, "gen(4)"), (std::vector<std::int64_t>{4, 3, 2, 1}));
  EXPECT_EQ(evalInts(interp, "pairs()"), (std::vector<std::int64_t>{32, 31, 21}));
  EXPECT_EQ(interp.evalOne("first()")->smallInt(), 105);
  EXPECT_EQ(evalInts(interp, "gen(3) > 1"), (std::vector<std::int64_t>{1, 1}));
}

TEST(VmActivations, CalleeReassignedBetweenCallsAtOneDepth) {
  // The record a finished call leaves on the machine is reused by the
  // next call at that depth. It must hold nothing of a procedure that is
  // gone: `f := g` frees the first f between the two calls below, and
  // the second call enters a body with an escape site.
  Interpreter interp;
  interp.load(R"(
    def f(s) { return s || "1"; }
    def g(s) { return s ? move(2); }
    def both() { local a, b; a := f("xy"); f := g; b := f("xyz"); return a || b; }
  )");
  EXPECT_EQ(interp.evalOne("both()")->str(), "xy1xy");
  EXPECT_EQ(interp.evalOne("both()")->str(), "xyxy") << "f is g from now on";
}

TEST(VmActivations, ErrorsUnwindAcrossActivations) {
  // &error converts a run-time error where an operation of the raising
  // activation covers it, else at the call that entered it.
  Interpreter interp;
  interp.load(R"(
    def bad(x) { return @x; }
    def mid(x) { return bad(x); }
    def top(x) { &error := 1; return mid(x) | "converted"; }
  )");
  EXPECT_EQ(interp.evalOne("top(3)")->str(), "converted");
  EXPECT_THROW(interp.evalAll("mid(3)"), IconError) << "no credit left: it propagates";
  EXPECT_EQ(interp.evalOne("top(4)")->str(), "converted") << "the machine is reusable";
}

// A chunk owns its literals: distinct long literals compiled and dropped
// one after another leave nothing behind in the process.
TEST(ChunkLiterals, DistinctLongLiteralsDieWithTheirChunks) {
#if !defined(__GLIBC__)
  GTEST_SKIP() << "measures in-use heap with glibc's mallinfo2";
#else
  Interpreter interp;
  const auto literal = [](int i) {
    std::string text(200, 'a');
    const std::string tag = std::to_string(i);
    text.replace(0, tag.size(), tag);
    return "\"" + text + "\"";
  };
  const auto inUse = [] { return static_cast<long long>(mallinfo2().uordblks); };
  ASSERT_EQ(interp.evalOne("*" + literal(-1))->smallInt(), 200);  // warm every cache first
  const long long before = inUse();
  for (int i = 0; i < 20000; ++i) ASSERT_EQ(interp.evalOne("*" + literal(i))->smallInt(), 200);
  const long long grown = inUse() - before;
  EXPECT_LT(grown, 1LL << 20) << "20,000 distinct 200-byte literals left " << grown
                              << " bytes in use";
#endif
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

/// Every result of `gen` until it fails, as images (an &null shows as
/// such instead of failing a conversion).
std::vector<std::string> images(Gen& gen) {
  std::vector<std::string> out;
  for (const auto& v : gen.collect()) out.push_back(v.image());
  return out;
}

// A host-side call (Interpreter::call, ProcImpl::invoke) is a generator
// like any other: driven again after it failed, it restarts from the
// beginning — the same call with the same arguments.
TEST(HostCalls, ReDrivenReturnYieldsTheSameResult) {
  Interpreter interp;
  interp.load("def f(x) { return x; }");
  auto gen = interp.call("f", {Value::integer(5)});
  EXPECT_EQ(images(*gen), (std::vector<std::string>{"5"}));
  EXPECT_EQ(images(*gen), (std::vector<std::string>{"5"})) << "the second drive sees x again";
}

TEST(HostCalls, ReDrivenSuspendsYieldTheSameResults) {
  Interpreter interp;
  interp.load("def g(x) { suspend x; suspend x + 1; }");
  auto gen = interp.call("g", {Value::integer(5)});
  EXPECT_EQ(images(*gen), (std::vector<std::string>{"5", "6"}));
  EXPECT_EQ(images(*gen), (std::vector<std::string>{"5", "6"}));
  ASSERT_TRUE(gen->next().has_value());
  gen->restart();  // mid-drive: back to the beginning state
  EXPECT_EQ(images(*gen), (std::vector<std::string>{"5", "6"}));
}

TEST(HostCalls, ReDrivenBodyStartsFromItsArguments) {
  // The first drive assigns the parameter; the second starts from the
  // argument again, not from what the first left behind — in a plain
  // slot, and in a cell a co-expression shares.
  Interpreter interp;
  interp.load(R"(
    def k(x) { x := x + 1; return x; }
    def kc(x) { local c; c := <> x; x +:= 1; suspend @c; x +:= 10; }
  )");
  auto gen = interp.call("k", {Value::integer(5)});
  EXPECT_EQ(images(*gen), (std::vector<std::string>{"6"}));
  EXPECT_EQ(images(*gen), (std::vector<std::string>{"6"}));
  auto shared = interp.call("kc", {Value::integer(5)});
  EXPECT_EQ(images(*shared), (std::vector<std::string>{"6"}));
  EXPECT_EQ(images(*shared), (std::vector<std::string>{"6"}));
}

TEST(HostCalls, FailEndsTheCallWithSuspensionsLeft) {
  // `fail` ends the procedure even where a generator inside it could
  // still resume: directly, and from inside an escape operand's body.
  Interpreter interp;
  interp.load(R"(
    def first(n) { local x; every x := 1 to n do { if x == 2 then fail; suspend x; } }
    def scanned(s) { every s ? { move(1); fail; }; suspend 9; }
  )");
  EXPECT_EQ(images(*interp.call("first", {Value::integer(5)})), (std::vector<std::string>{"1"}));
  EXPECT_TRUE(images(*interp.call("scanned", {Value::string("abc")})).empty());
}

TEST(HostCalls, BreakOrNextLeavingTheBodyRaises506) {
  Interpreter interp;
  interp.load(R"(
    def b() { break; }
    def n() { next; }
    def s(x) { x ? { move(1); break; } }
  )");
  for (const auto& [name, args] : std::vector<std::pair<std::string, std::vector<Value>>>{
           {"b", {}}, {"n", {}}, {"s", {Value::string("abc")}}}) {
    try {
      (void)interp.call(name, args)->next();
      FAIL() << name << ": expected 506";
    } catch (const IconError& e) {
      EXPECT_EQ(e.number(), 506) << name << ": " << e.what();
    }
  }
}

TEST(HostCalls, BreakOrNextAfterASuspendFromAnEscapeRaises506) {
  // The first drive suspends from inside a scan or case body; the
  // second resumes there, and the break or next leaves the procedure.
  Interpreter interp;
  interp.load(R"(
    def sb(x) { x ? { suspend 1; break; } }
    def sn(x) { x ? { suspend 1; next; } }
    def cb(x) { case x of { "abc": { suspend 10; break; } } }
    def cn(x) { case x of { "abc": { suspend 10; next; } } }
  )");
  for (const auto& [name, first] : std::vector<std::pair<std::string, std::int64_t>>{
           {"sb", 1}, {"sn", 1}, {"cb", 10}, {"cn", 10}}) {
    auto gen = interp.call(name, {Value::string("abc")});
    auto r = gen->nextValue();
    ASSERT_TRUE(r.has_value()) << name;
    EXPECT_EQ(r->smallInt(), first) << name;
    try {
      (void)gen->next();
      FAIL() << name << ": expected 506";
    } catch (const IconError& e) {
      EXPECT_EQ(e.number(), 506) << name << ": " << e.what();
    }
  }
}

TEST(HostCalls, DepthQuotaChargesTheCallAndUnwinds) {
  Interpreter::Options opts;
  opts.quotas.maxDepth = 16;
  Interpreter interp{opts};
  interp.load("def down(n) { if n <= 0 then return 0; return 1 + down(n - 1); }");
  try {
    (void)interp.call("down", {Value::integer(100)})->next();
    FAIL() << "expected 813";
  } catch (const IconError& e) {
    EXPECT_EQ(e.number(), 813) << e.what();
  }
  auto r = interp.call("down", {Value::integer(8)})->nextValue();
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->smallInt(), 8) << "the quota's levels were all given back";
  // The host's call is one level, as each call inside it is: down(15)
  // is 16 activations, down(16) one too many.
  r = interp.call("down", {Value::integer(15)})->nextValue();
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->smallInt(), 15);
  try {
    (void)interp.call("down", {Value::integer(16)})->next();
    FAIL() << "expected 813";
  } catch (const IconError& e) {
    EXPECT_EQ(e.number(), 813) << e.what();
  }
}

TEST(HostCalls, SuspendedGlobalIsAssignableThroughTheResult) {
  Interpreter interp;
  interp.load(R"(
    global counter
    def cell() { counter := 1; suspend counter; }
  )");
  auto gen = interp.call("cell", {});
  auto r = gen->next();
  ASSERT_TRUE(r.has_value());
  ASSERT_NE(r->ref, nullptr) << "a suspended variable stays a variable";
  r->ref->set(Value::integer(42));
  EXPECT_EQ(interp.global("counter")->smallInt(), 42);
}

TEST(HostCalls, ProcedureOfAnotherInterpreterYieldsPlainResults) {
  // B's machine drives A's procedure as a generator; a suspend or
  // return flag escaping it would read as B's own.
  Interpreter a;
  a.load("def two(x) { suspend x; return x + 1; }");
  Interpreter b;
  b.defineGlobal("two", *a.global("two"));
  EXPECT_EQ(evalInts(b, "two(5) + 10"), (std::vector<std::int64_t>{15, 16}));
}

TEST(HostCalls, MapReduceOverInterpreterProceduresMatchesSerialSum) {
  Interpreter interp;
  interp.load(R"(
    def sq(x) { return x * x; }
    def add(a, b) { return a + b; }
  )");
  const DataParallel dp(7);
  auto gen = dp.mapReduce(interp.global("sq")->proc(), [] {
    return RangeGen::create(Value::integer(1), Value::integer(100), Value::integer(1));
  }, interp.global("add")->proc(), Value::integer(0));
  std::int64_t total = 0;
  while (auto v = gen->nextValue()) total += v->requireInt64("test");
  std::int64_t expected = 0;
  for (std::int64_t i = 1; i <= 100; ++i) expected += i * i;
  EXPECT_EQ(total, expected);
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
