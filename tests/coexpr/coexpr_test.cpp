// coexpr_test.cpp — co-expressions: activation, exhaustion, refresh, and
// environment shadowing (Fig. 1's <> |<> @ ^ ! calculus).
#include <gtest/gtest.h>

#include <latch>
#include <thread>

#include "../testutil.hpp"
#include "coexpr/shadow.hpp"
#include "kernel/coexpression.hpp"
#include "runtime/error.hpp"
#include "runtime/var.hpp"

namespace congen {
namespace {

using test::ci;
using test::ints;
using test::range;

TEST(CoExprTest, ActivationStepsOneResult) {
  auto c = CoExpression::create([] { return test::range(1, 3); });
  EXPECT_EQ(c->activate()->smallInt(), 1);
  EXPECT_EQ(c->activate()->smallInt(), 2);
  EXPECT_EQ(c->resultCount(), 2u);
  EXPECT_EQ(c->activate()->smallInt(), 3);
  EXPECT_FALSE(c->activate().has_value());
  EXPECT_TRUE(c->exhausted());
}

TEST(CoExprTest, ExhaustedStaysExhausted) {
  // Unlike raw kernel generators, an exhausted co-expression does NOT
  // auto-restart — Icon requires an explicit refresh (^).
  auto c = CoExpression::create([] { return test::ci(1); });
  c->activate();
  EXPECT_FALSE(c->activate().has_value());
  EXPECT_FALSE(c->activate().has_value()) << "still exhausted";
  auto fresh = c->refreshed();
  EXPECT_EQ(fresh->activate()->smallInt(), 1);
  EXPECT_FALSE(c->exhausted() && fresh->exhausted()) << "refresh yields a NEW co-expression";
}

TEST(CoExprTest, FactoryRunsEagerlyAtCreation) {
  // The environment snapshot must happen at creation time, not first
  // activation (Section III.A).
  int built = 0;
  auto factory = [&built]() -> GenPtr {
    ++built;
    return test::ci(5);
  };
  auto c = CoExpression::create(factory);
  EXPECT_EQ(built, 1) << "body built at creation";
  c->activate();
  EXPECT_EQ(built, 1);
}

TEST(CoExprTest, SecondThreadActivatingRaises803) {
  // The first activation parks inside the body; a second thread's @
  // meanwhile must raise 803 instead of driving the same body.
  std::latch entered(1);
  std::latch release(1);
  int steps = 0;
  auto c = CoExpression::create([&]() -> GenPtr {
    return CallbackGen::create([&]() -> CallbackGen::Puller {
      return [&]() -> std::optional<Value> {
        if (++steps == 1) {
          entered.count_down();
          release.wait();
        }
        return Value::integer(steps);
      };
    });
  });
  std::optional<Value> first;
  std::thread activator([&] { first = c->activate(); });
  entered.wait();
  try {
    (void)c->activate();
    ADD_FAILURE() << "a concurrent activation must not run";
  } catch (const IconError& e) {
    EXPECT_EQ(e.number(), 803);
  }
  release.count_down();
  activator.join();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->smallInt(), 1);
  EXPECT_EQ(c->activate()->smallInt(), 2) << "activations in turn, on any thread, still work";
}

TEST(CoExprTest, SameThreadReentryIsNotConcurrent) {
  // A body that activates its own co-expression re-enters on the same
  // thread: that is not error 803.
  CoExprPtr self;
  int depth = 0;
  auto c = CoExpression::create([&]() -> GenPtr {
    return CallbackGen::create([&]() -> CallbackGen::Puller {
      return [&]() -> std::optional<Value> {
        if (++depth == 1) return self->activate();
        return Value::integer(depth);
      };
    });
  });
  self = c;
  EXPECT_EQ(c->activate()->smallInt(), 2);
  self = nullptr;
}

TEST(ShadowTest, CopiesReferencedLocals) {
  auto x = CellVar::create(Value::integer(10));
  // |<> (x + 1): the co-expression sees a copy of x at creation.
  auto factory = shadowEnv({x}, [](const std::vector<VarPtr>& copies) {
    return makeBinaryOpGen("+", VarGen::create(copies[0]), test::ci(1));
  });
  auto c = CoExpression::create(factory);
  x->set(Value::integer(999));  // mutate AFTER creation
  EXPECT_EQ(c->activate()->smallInt(), 11) << "shadowed copy is isolated from the original";
}

TEST(ShadowTest, RefreshRecopiesEnvironment) {
  auto x = CellVar::create(Value::integer(1));
  auto factory = shadowEnv({x}, [](const std::vector<VarPtr>& copies) {
    return VarGen::create(copies[0]);
  });
  auto c = CoExpression::create(factory);
  EXPECT_EQ(c->activate()->smallInt(), 1);
  x->set(Value::integer(2));
  auto fresh = c->refreshed();
  EXPECT_EQ(fresh->activate()->smallInt(), 2) << "^c re-copies the CURRENT environment";
}

TEST(ShadowTest, WritesDoNotLeakOut) {
  auto x = CellVar::create(Value::integer(5));
  auto factory = shadowEnv({x}, [](const std::vector<VarPtr>& copies) {
    // co-expression body: x := x * 2 (on the copy)
    return makeAugAssignGen("*", VarGen::create(copies[0]), test::ci(2));
  });
  auto c = CoExpression::create(factory);
  EXPECT_EQ(c->activate()->smallInt(), 10);
  EXPECT_EQ(x->get().smallInt(), 5) << "the enclosing local is untouched (no interference)";
}

TEST(CoExprCreateGenTest, YieldsFreshCoExpressionPerCycle) {
  auto node = CoExprCreateGen::create([] { return test::range(1, 2); });
  auto v1 = node->nextValue();
  ASSERT_TRUE(v1 && v1->isCoExpr());
  EXPECT_FALSE(node->nextValue().has_value()) << "singleton per cycle";
  auto v2 = node->nextValue();  // restart: a NEW co-expression
  ASSERT_TRUE(v2.has_value());
  EXPECT_NE(v1->coExpr(), v2->coExpr());
}

TEST(ActivateGenTest, OneStepPerEvaluation) {
  auto c = CoExpression::create([] { return test::range(10, 13); });
  auto cv = CellVar::create(Value::coexpr(c));
  auto node = ActivateGen::create(VarGen::create(cv));
  // Each full cycle of @c performs exactly one activation.
  EXPECT_EQ(ints(node), (std::vector<std::int64_t>{10}));
  EXPECT_EQ(ints(node), (std::vector<std::int64_t>{11}));
  EXPECT_EQ(ints(node), (std::vector<std::int64_t>{12}));
}

TEST(ActivateGenTest, ErrorsOnNonCoExpression) {
  auto node = ActivateGen::create(ci(5));
  EXPECT_THROW(node->nextValue(), IconError);
}

TEST(RefreshGenTest, ProducesRestartedCopy) {
  auto c = CoExpression::create([] { return test::range(1, 5); });
  c->activate();
  c->activate();  // advance to 2
  auto cv = CellVar::create(Value::coexpr(c));
  auto node = RefreshGen::create(VarGen::create(cv));
  auto v = node->nextValue();
  ASSERT_TRUE(v && v->isCoExpr());
  EXPECT_EQ(v->coExpr()->activate()->smallInt(), 1) << "refreshed copy starts over";
  EXPECT_EQ(c->activate()->smallInt(), 3) << "original is unaffected";
}

TEST(PromoteCoExprTest, BangLiftsToGenerator) {
  // !c drains the co-expression from its current position.
  auto c = CoExpression::create([] { return test::range(1, 4); });
  c->activate();  // consume 1
  auto g = PromoteGen::create(ConstGen::create(Value::coexpr(c)));
  EXPECT_EQ(ints(g), (std::vector<std::int64_t>{2, 3, 4}));
}

TEST(InterleavingTest, TwoCoExpressionsAlternate) {
  // The classic coroutine interleave, explicit stepping with @.
  auto odds = CoExpression::create([] {
    return RangeGen::create(Value::integer(1), Value::integer(9), Value::integer(2));
  });
  auto evens = CoExpression::create([] {
    return RangeGen::create(Value::integer(2), Value::integer(10), Value::integer(2));
  });
  std::vector<std::int64_t> merged;
  for (int i = 0; i < 4; ++i) {
    merged.push_back(odds->activate()->smallInt());
    merged.push_back(evens->activate()->smallInt());
  }
  EXPECT_EQ(merged, (std::vector<std::int64_t>{1, 2, 3, 4, 5, 6, 7, 8}));
}

TEST(CoExprValueTest, ParticipatesInValueSystem) {
  auto c = CoExpression::create([] { return test::ci(1); });
  const Value v = Value::coexpr(c);
  EXPECT_TRUE(v.isCoExpr());
  EXPECT_EQ(v.typeName(), "co-expression");
  EXPECT_TRUE(v.equals(Value::coexpr(c)));
  EXPECT_FALSE(v.equals(Value::coexpr(c->refreshed())));
}

}  // namespace
}  // namespace congen
