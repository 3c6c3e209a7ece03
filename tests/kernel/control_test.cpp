// control_test.cpp — if/every/while/until/repeat, suspend/return/fail
// propagation, break/next and body roots.
#include <gtest/gtest.h>

#include "../testutil.hpp"
#include "kernel/coexpression.hpp"
#include "runtime/proc.hpp"
#include "runtime/var.hpp"

namespace congen {
namespace {

using test::ci;
using test::ints;
using test::range;

// Convenience: a procedure-style body over statements.
GenPtr body(std::vector<GenPtr> stmts) {
  return BodyRootGen::create(SeqGen::create(std::move(stmts), SeqGen::Mode::Body));
}

TEST(IfTest, GeneratesChosenBranchFully) {
  // if cond then (1 to 3): the branch delegates full iteration.
  EXPECT_EQ(ints(IfGen::create(ci(1), range(1, 3))), (std::vector<std::int64_t>{1, 2, 3}));
  EXPECT_EQ(ints(IfGen::create(FailGen::create(), range(1, 3), range(7, 8))),
            (std::vector<std::int64_t>{7, 8}));
  EXPECT_EQ(ints(IfGen::create(FailGen::create(), range(1, 3))), (std::vector<std::int64_t>{}))
      << "failing condition with no else fails";
}

TEST(IfTest, ConditionIsBounded) {
  // The condition is evaluated once per cycle, not resumed.
  int evals = 0;
  auto cond = CallbackGen::create([&evals]() -> CallbackGen::Puller {
    return [&evals]() -> std::optional<Value> {
      ++evals;
      return Value::integer(1);
    };
  });
  auto g = IfGen::create(std::move(cond), range(1, 3));
  EXPECT_EQ(ints(g).size(), 3u);
  EXPECT_EQ(evals, 1);
}

TEST(EveryTest, DrivesControlToExhaustionAndFails) {
  auto x = CellVar::create();
  std::vector<std::int64_t> seen;
  auto probe = CallbackGen::create([&]() -> CallbackGen::Puller {
    return [&]() -> std::optional<Value> {
      seen.push_back(x->get().smallInt());
      return std::nullopt;  // body statement fails; loop continues
    };
  });
  auto g = LoopGen::every(InGen::create(x, range(1, 4)), std::move(probe));
  EXPECT_FALSE(g->nextValue().has_value()) << "every itself fails";
  EXPECT_EQ(seen, (std::vector<std::int64_t>{1, 2, 3, 4}));
}

TEST(EveryTest, SuspendInBodyMakesLoopAGenerator) {
  // every x := 1 to 3 do suspend x*10 — inside a body root.
  auto x = CellVar::create();
  auto g = body({LoopGen::every(
      InGen::create(x, range(1, 3)),
      SuspendGen::create(makeBinaryOpGen("*", VarGen::create(x), ci(10))))});
  EXPECT_EQ(ints(g), (std::vector<std::int64_t>{10, 20, 30}));
}

TEST(EveryTest, BodyIsBounded) {
  // The loop body is a bounded expression: one result per iteration.
  auto x = CellVar::create();
  int bodyRuns = 0;
  auto counting = CallbackGen::create([&]() -> CallbackGen::Puller {
    return [&]() -> std::optional<Value> {
      ++bodyRuns;
      return Value::integer(0);  // infinite singleton supply
    };
  });
  auto g = LoopGen::every(InGen::create(x, range(1, 5)), std::move(counting));
  g->nextValue();
  EXPECT_EQ(bodyRuns, 5) << "exactly one body evaluation per control result";
}

TEST(WhileTest, ReevaluatesConditionEachIteration) {
  auto n = CellVar::create(Value::integer(0));
  // while n < 3 do n +:= 1
  auto g = LoopGen::whileDo(makeBinaryOpGen("<", VarGen::create(n), ci(3)),
                            makeAugAssignGen("+", VarGen::create(n), ci(1)));
  EXPECT_FALSE(g->nextValue().has_value());
  EXPECT_EQ(n->get().smallInt(), 3);
}

TEST(UntilTest, RunsUntilConditionSucceeds) {
  auto n = CellVar::create(Value::integer(0));
  auto g = LoopGen::untilDo(makeBinaryOpGen(">=", VarGen::create(n), ci(4)),
                            makeAugAssignGen("+", VarGen::create(n), ci(1)));
  EXPECT_FALSE(g->nextValue().has_value());
  EXPECT_EQ(n->get().smallInt(), 4);
}

TEST(RepeatTest, TerminatedByBreak) {
  auto n = CellVar::create(Value::integer(0));
  // repeat { n +:= 1; if n >= 5 then break; }
  auto g = LoopGen::repeat(SeqGen::create(
      [&] {
        std::vector<GenPtr> stmts;
        stmts.push_back(makeAugAssignGen("+", VarGen::create(n), ci(1)));
        stmts.push_back(IfGen::create(makeBinaryOpGen(">=", VarGen::create(n), ci(5)),
                                      BreakGen::create()));
        return stmts;
      }(),
      SeqGen::Mode::Body));
  EXPECT_FALSE(g->nextValue().has_value());
  EXPECT_EQ(n->get().smallInt(), 5);
}

TEST(NextTest, SkipsRestOfBody) {
  auto x = CellVar::create();
  auto touched = CellVar::create(Value::integer(0));
  // every x := 1 to 5 do { if x < 3 then next; touched +:= 1 }
  auto g = LoopGen::every(
      InGen::create(x, range(1, 5)),
      SeqGen::create(
          [&] {
            std::vector<GenPtr> stmts;
            stmts.push_back(IfGen::create(makeBinaryOpGen("<", VarGen::create(x), ci(3)),
                                          NextGen::create()));
            stmts.push_back(makeAugAssignGen("+", VarGen::create(touched), ci(1)));
            return stmts;
          }(),
          SeqGen::Mode::Body));
  g->nextValue();
  EXPECT_EQ(touched->get().smallInt(), 3) << "only x = 3,4,5 reach the second statement";
}

TEST(BodyRootTest, SuspendYieldsPlainResults) {
  auto g = body({SuspendGen::create(range(1, 3))});
  auto r = g->next();
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->flags, Result::kNone) << "the root strips suspend flags";
  EXPECT_EQ(r->value.smallInt(), 1);
}

TEST(BodyRootTest, ReturnTerminatesBody) {
  // { suspend 1 to 2; return 99; suspend 100; }
  auto g = body({SuspendGen::create(range(1, 2)), ReturnGen::create(ci(99)),
                 SuspendGen::create(ci(100))});
  EXPECT_EQ(ints(g), (std::vector<std::int64_t>{1, 2, 99}));
}

TEST(BodyRootTest, ReturnOfFailingExpressionFailsProcedure) {
  auto g = body({ReturnGen::create(FailGen::create())});
  EXPECT_FALSE(g->nextValue().has_value());
}

TEST(BodyRootTest, FailStatementTerminatesWithFailure) {
  auto g = body({SuspendGen::create(ci(1)), FailBodyGen::create(), SuspendGen::create(ci(2))});
  EXPECT_EQ(ints(g), (std::vector<std::int64_t>{1}));
}

TEST(BodyRootTest, FallingOffTheEndFails) {
  auto g = body({ci(42)});  // expression statement: value discarded
  EXPECT_FALSE(g->nextValue().has_value());
}

TEST(BodyRootTest, SuspendInsideNestedLoopsPropagates) {
  // every i := 1 to 2 do every j := 1 to 2 do suspend i*10+j
  auto i = CellVar::create();
  auto j = CellVar::create();
  auto inner = LoopGen::every(
      InGen::create(j, range(1, 2)),
      SuspendGen::create(makeBinaryOpGen(
          "+", makeBinaryOpGen("*", VarGen::create(i), ci(10)), VarGen::create(j))));
  auto g = body({LoopGen::every(InGen::create(i, range(1, 2)), std::move(inner))});
  EXPECT_EQ(ints(g), (std::vector<std::int64_t>{11, 12, 21, 22}));
}

TEST(BodyRootTest, BuilderRootRestartsFromItsArguments) {
  // def k(x) { x +:= 1; suspend <> x; x +:= 100; suspend x; } as an
  // emitted call builds it: cells bound from the arguments, then the tree.
  int builds = 0;
  auto root = BodyRootGen::create({Value::integer(5)}, [&builds](const std::vector<Value>& args) {
    ++builds;
    auto x = CellVar::create(args.empty() ? Value::null() : args[0]);
    std::vector<GenPtr> stmts;
    stmts.push_back(makeAugAssignGen("+", VarGen::create(x), ci(1)));
    stmts.push_back(SuspendGen::create(
        CoExprCreateGen::create([x]() -> GenPtr { return VarGen::create(x); })));
    stmts.push_back(makeAugAssignGen("+", VarGen::create(x), ci(100)));
    stmts.push_back(SuspendGen::create(VarGen::create(x)));
    return SeqGen::create(std::move(stmts), SeqGen::Mode::Body);
  });
  EXPECT_EQ(builds, 0) << "the body is built on the first drive";
  const auto first = root->nextValue();
  ASSERT_TRUE(first && first->isCoExpr());

  root->restart();  // mid-drive: the same call again, on fresh cells
  const auto again = root->nextValue();
  ASSERT_TRUE(again && again->isCoExpr());
  EXPECT_EQ(ints(root), (std::vector<std::int64_t>{106})) << "x was rebound from the arguments";
  EXPECT_EQ(builds, 2);

  EXPECT_EQ(first->coExpr()->activate()->smallInt(), 6)
      << "the first drive's cell keeps its value after the restart";
  EXPECT_EQ(again->coExpr()->activate()->smallInt(), 106) << "the second drive's cell";
}

}  // namespace
}  // namespace congen
