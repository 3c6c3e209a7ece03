// interp_lang_test.cpp — concurrency constructs of the embedded
// language: co-expressions, pipes, and the paper's programs end to end.
#include <gtest/gtest.h>

#include "interp/interpreter.hpp"
#include "runtime/collections.hpp"
#include "runtime/error.hpp"

namespace congen::interp {
namespace {

std::vector<std::int64_t> evalInts(Interpreter& interp, const std::string& src) {
  std::vector<std::int64_t> out;
  for (const auto& v : interp.evalAll(src)) out.push_back(v.requireInt64("test"));
  return out;
}

TEST(CoExprLang, CreateActivatePromote) {
  Interpreter interp;
  interp.evalOne("c := <> (1 to 3)");
  EXPECT_EQ(interp.evalOne("@c")->smallInt(), 1);
  EXPECT_EQ(interp.evalOne("@c")->smallInt(), 2);
  EXPECT_EQ(evalInts(interp, "!c"), (std::vector<std::int64_t>{3})) << "! drains the rest";
  EXPECT_TRUE(interp.evalAll("@c").empty()) << "exhausted until refreshed";
  interp.evalOne("c2 := ^c");
  EXPECT_EQ(interp.evalOne("@c2")->smallInt(), 1) << "^c restarts";
}

TEST(CoExprLang, CreateKeywordAlias) {
  Interpreter interp;
  interp.evalOne("c := create (10 | 20)");
  EXPECT_EQ(interp.evalOne("@c")->smallInt(), 10);
}

TEST(CoExprLang, EnvironmentShadowing) {
  Interpreter interp;
  interp.load(R"(
    def makeCo() {
      local x, c;
      x := 1;
      c := |<> (x + 100);
      x := 2;                 # mutate AFTER creation
      return @c;
    }
    def makeShared() {
      local x, c;
      x := 1;
      c := <> (x + 100);      # <> does NOT shadow
      x := 2;
      return @c;
    }
  )");
  EXPECT_EQ(interp.evalOne("makeCo()")->smallInt(), 101)
      << "|<> copies the local environment at creation";
  EXPECT_EQ(interp.evalOne("makeShared()")->smallInt(), 102)
      << "<> shares the environment";
}

TEST(CoExprLang, RefreshRecopiesEnvironment) {
  Interpreter interp;
  interp.load(R"(
    def run() {
      local x, c, a, b;
      x := 5;
      c := |<> x;
      a := @c;
      x := 9;
      b := @(^c);
      return a * 100 + b;
    }
  )");
  EXPECT_EQ(interp.evalOne("run()")->smallInt(), 509);
}

TEST(PipeLang, BasicStreaming) {
  Interpreter interp;
  EXPECT_EQ(evalInts(interp, "! |> (1 to 50)"),
            [] {
              std::vector<std::int64_t> v;
              for (int i = 1; i <= 50; ++i) v.push_back(i);
              return v;
            }());
}

TEST(PipeLang, PipelineComputesInParallelThreads) {
  Interpreter interp;
  interp.load("def sq(x) { return x * x; }");
  EXPECT_EQ(evalInts(interp, "! |> sq( ! |> (1 to 5) )"),
            (std::vector<std::int64_t>{1, 4, 9, 16, 25}))
      << "two chained pipe stages";
}

TEST(PipeLang, SectionIIIPipelineExpression) {
  Interpreter interp;
  interp.load(R"(
    def factorial(n) {
      local acc, i;
      acc := 1;
      every i := 1 to n do acc *:= i;
      return acc;
    }
  )");
  // x * ! |> factorial(! |> isqrt(y))
  EXPECT_EQ(evalInts(interp, "2 * ! |> factorial( ! |> isqrt(16 | 25) )"),
            (std::vector<std::int64_t>{48, 240}));
}

TEST(PipeLang, PipeOverGeneratorFunction) {
  Interpreter interp;
  interp.load("def odds(n) { local i; every i := 1 to n do if i % 2 == 1 then suspend i; }");
  EXPECT_EQ(evalInts(interp, "! |> odds(9)"), (std::vector<std::int64_t>{1, 3, 5, 7, 9}));
}

TEST(PipeLang, PipeShadowsLocals) {
  Interpreter interp;
  interp.load(R"(
    def run() {
      local x, p, total, tasks;
      tasks := [];
      every x := 1 to 3 do put(tasks, |> (x * 10));
      total := 0;
      every p := !tasks do total +:= @p;
      return total;
    }
  )");
  // Each pipe captured its own copy of x: 10 + 20 + 30.
  EXPECT_EQ(interp.evalOne("run()")->smallInt(), 60);
}

TEST(CaptureTrimming, StoredCoExpressionsAndPipesDieWithTheirCall) {
  // Each call keeps a <> in `c` and three pipes in `tasks`. Their bodies
  // capture only the cells they name (n, x), so no body can reach the
  // local it is stored in: every co-expression and pipe dies with its
  // call. Capturing the whole frame would close c → co-expression → frame
  // → c and leak one of each per call.
  Interpreter::Options options;
  options.governed = true;
  Interpreter interp(options);
  interp.load(R"(
    def keep(n) {
      local c, x, tasks, total;
      tasks := [];
      c := <> (n to n + 2);
      every x := 1 to 3 do put(tasks, |> (x * n));
      total := @c;
      every total +:= @!tasks;
      return total;
    }
  )");
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(interp.evalOne("keep(" + std::to_string(i) + ")")->smallInt(), 7 * i);
  }
  const auto usage = interp.resourceGovernor()->usage();
  EXPECT_EQ(usage.liveCoexprs, 0u);
  EXPECT_EQ(usage.livePipes, 0u);
}

TEST(ConcurrentActivation, SharedCoExpressionIsError803NotACrash) {
  // The pipe's producer and main both step `c`. Whichever thread meets
  // the other inside an activation raises 803 (surfacing at `@p` when it
  // is the producer); before the guard both drove one machine and the
  // process died. Should the two loops happen not to overlap, the run
  // completes instead. coexpr_test and pipe_test pin 803 exactly.
  Interpreter interp;
  interp.load(R"(
    def main(a) { local c, p; c := <> (1 to 100000000); p := |> { every 1 to 1000000 do @c; 1 }; every 1 to 1000000 do @c; write(@p) }
  )");
  try {
    auto gen = interp.call("main", {Value::list(ListImpl::create())});
    while (gen->nextValue()) {
    }
  } catch (const IconError& e) {
    EXPECT_EQ(e.number(), 803) << e.what();
  }
}

TEST(Fig3Program, WordCountPipelineMatchesSequential) {
  Interpreter interp;
  auto lines = ListImpl::create();
  lines->put(Value::string("alpha beta gamma"));
  lines->put(Value::string("delta epsilon"));
  interp.defineGlobal("lines", Value::list(lines));
  interp.load(R"(
    def readLines() { suspend ! lines; }
    def splitWords(line) { return split(line); }
    def wordToNumber(word) { return integer(word, 36); }
    def hashNumber(num) { return sqrt(num); }
    def runSequential() {
      local total, h;
      total := 0.0;
      every h := hashNumber(wordToNumber(!splitWords(readLines()))) do total +:= h;
      return total;
    }
    def runPipeline() {
      local total, h;
      total := 0.0;
      every h := hashNumber( ! (|> wordToNumber( ! splitWords(readLines()) )) ) do total +:= h;
      return total;
    }
  )");
  const double sequential = interp.evalOne("runSequential()")->real();
  const double pipelined = interp.evalOne("runPipeline()")->real();
  EXPECT_GT(sequential, 0.0);
  EXPECT_DOUBLE_EQ(sequential, pipelined)
      << "Fig. 3: the pipeline computes exactly the sequential hash";
}

TEST(Fig4Program, MapReduceFromConcurrentGenerators) {
  Interpreter interp;
  interp.load(R"(
    chunkSize := 3;
    def chunk(e) {
      local c;
      c := [];
      while put(c, @e) do {
        if (*c >= chunkSize) then { suspend c; c := []; }
      };
      if (*c > 0) then { return c; };
    }
    def mapReduce(f, s, r, i) {
      local c, t, tasks;
      tasks := [];
      every (c := chunk(<> s())) do {
        t := |> { local x; x := i; every (x := r(x, f(!c))); x };
        put(tasks, t);
      };
      suspend ! (! tasks);
    }
    def source() { suspend 1 to 10; }
    def square(x) { return x * x; }
    def add(a, b) { return a + b; }
  )");
  EXPECT_EQ(evalInts(interp, "mapReduce(square, source, add, 0)"),
            (std::vector<std::int64_t>{14, 77, 194, 100}))
      << "per-chunk sums, in order (Fig. 4)";
}

TEST(Fig4Program, ChunkGeneratorAlone) {
  Interpreter interp;
  interp.load(R"(
    chunkSize := 4;
    def chunk(e) {
      local c;
      c := [];
      while put(c, @e) do {
        if (*c >= chunkSize) then { suspend c; c := []; }
      };
      if (*c > 0) then { return c; };
    }
  )");
  auto chunks = interp.evalAll("chunk(<> (1 to 9))");
  ASSERT_EQ(chunks.size(), 3u);
  EXPECT_EQ(chunks[0].list()->size(), 4);
  EXPECT_EQ(chunks[1].list()->size(), 4);
  EXPECT_EQ(chunks[2].list()->size(), 1);
}

TEST(ThrottleLang, BoundedPipeStillDelivers) {
  Interpreter::Options options;
  options.quotas.maxPipeDepth = 2;
  Interpreter interp(options);
  std::vector<std::int64_t> expected;
  for (int i = 1; i <= 200; ++i) expected.push_back(i);
  EXPECT_EQ(evalInts(interp, "! |> (1 to 200)"), expected);
}

TEST(InterleaveLang, ExplicitSteppingMergesStreams) {
  Interpreter interp;
  interp.load(R"(
    def merge(n) {
      local a, b, i, out;
      a := <> (1 to n by 2);
      b := <> (2 to n by 2);
      out := [];
      every i := 1 to n / 2 do { put(out, @a); put(out, @b); };
      return out;
    }
  )");
  auto out = interp.evalOne("merge(8)");
  ASSERT_TRUE(out && out->isList());
  std::vector<std::int64_t> got;
  for (const auto& v : out->list()->elements()) got.push_back(v.smallInt());
  EXPECT_EQ(got, (std::vector<std::int64_t>{1, 2, 3, 4, 5, 6, 7, 8}));
}

TEST(ErrorLang, ErrorCreditConvertsErrorToFailure) {
  Interpreter interp;
  // Fresh thread-local state can carry over from other tests in this
  // process; start clean.
  interp.evalOne("errorclear()");
  interp.evalOne("&error := 0");
  EXPECT_THROW(interp.evalAll("1 / 0"), IconError) << "no credit: the error propagates";
  interp.evalOne("&error := 1");
  EXPECT_TRUE(interp.evalAll("1 / 0").empty()) << "credit converts the error to failure";
  EXPECT_EQ(interp.evalOne("&error")->smallInt(), 0) << "conversion spends the credit";
  EXPECT_THROW(interp.evalAll("1 / 0"), IconError) << "credit exhausted";
}

TEST(ErrorLang, ErrorNumberAndValueReportLastConversion) {
  Interpreter interp;
  interp.evalOne("errorclear()");
  interp.evalOne("&error := 2");
  EXPECT_TRUE(interp.evalAll("1 / 0").empty());
  EXPECT_EQ(interp.evalOne("&errornumber")->smallInt(), 201);
  EXPECT_EQ(interp.evalOne("&errorvalue")->toDisplayString(), "division by zero");
  interp.evalOne("errorclear()");
  EXPECT_TRUE(interp.evalAll("&errornumber").empty()) << "cleared: the keyword fails";
  EXPECT_TRUE(interp.evalAll("&errorvalue").empty());
  EXPECT_EQ(interp.evalOne("&error")->smallInt(), 1) << "errorclear leaves the credit";
  interp.evalOne("&error := 0");
}

TEST(ErrorLang, ConvertedErrorFailsJustTheExpression) {
  Interpreter interp;
  interp.evalOne("errorclear()");
  interp.evalOne("&error := 1");
  // Goal-directed: the failing division makes that alternative fail;
  // evaluation continues with the next one.
  EXPECT_EQ(evalInts(interp, "(1 / 0) | 7"), (std::vector<std::int64_t>{7}));
  interp.evalOne("&error := 0");
}

TEST(TimeoutLang, GenerousDeadlineYieldsTheValue) {
  Interpreter interp;
  interp.evalOne("c := |> (41 + 1)");
  EXPECT_EQ(interp.evalOne("timeout(c, 10000)")->smallInt(), 42);
}

TEST(TimeoutLang, PlainCoExpressionIgnoresDeadline) {
  Interpreter interp;
  interp.evalOne("c := <> (1 to 2)");
  EXPECT_EQ(interp.evalOne("timeout(c, 0)")->smallInt(), 1) << "base class never waits";
}

TEST(TimeoutLang, NonCoExpressionErrors) {
  Interpreter interp;
  EXPECT_THROW(interp.evalAll("timeout(3, 10)"), IconError);
}

}  // namespace
}  // namespace congen::interp
