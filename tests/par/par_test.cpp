// par_test.cpp — the higher-order abstractions: chunk, mapReduce,
// mapFlat (Fig. 4) and Pipeline (Fig. 2).
#include <gtest/gtest.h>


#include "../testutil.hpp"
#include "builtins/builtins.hpp"
#include "par/data_parallel.hpp"
#include "par/pipeline.hpp"
#include "runtime/error.hpp"

namespace congen {
namespace {

using test::ci;
using test::ints;
using test::range;

ProcPtr squareProc() {
  return builtins::makeNative("square", [](std::vector<Value>& a) {
    return ops::mul(a.at(0), a.at(0));
  });
}

ProcPtr addProc() {
  return builtins::makeNative("add", [](std::vector<Value>& a) {
    return ops::add(a.at(0), a.at(1));
  });
}

TEST(ChunkTest, PartitionsIntoFixedSizeLists) {
  auto g = makeChunkGen(range(1, 10), 4);
  auto c1 = g->nextValue();
  ASSERT_TRUE(c1 && c1->isList());
  EXPECT_EQ(c1->list()->size(), 4);
  EXPECT_EQ(c1->list()->at(1)->smallInt(), 1);
  auto c2 = g->nextValue();
  EXPECT_EQ(c2->list()->size(), 4);
  auto c3 = g->nextValue();
  EXPECT_EQ(c3->list()->size(), 2) << "final partial chunk included";
  EXPECT_EQ(c3->list()->at(2)->smallInt(), 10);
  EXPECT_FALSE(g->nextValue().has_value());
}

TEST(ChunkTest, ExactMultipleHasNoEmptyTail) {
  auto g = makeChunkGen(range(1, 6), 3);
  EXPECT_EQ(g->nextValue()->list()->size(), 3);
  EXPECT_EQ(g->nextValue()->list()->size(), 3);
  EXPECT_FALSE(g->nextValue().has_value());
}

TEST(ChunkTest, EmptySourceYieldsNothing) {
  EXPECT_FALSE(makeChunkGen(FailGen::create(), 5)->nextValue().has_value());
}

TEST(MapReduceTest, ChunkSumsInOrder) {
  DataParallel dp(3);
  auto gen = dp.mapReduce(squareProc(), [] { return test::range(1, 10); }, addProc(),
                          Value::integer(0));
  // chunks {1,2,3} {4,5,6} {7,8,9} {10} → 14, 77, 194, 100 (Fig. 4 run).
  EXPECT_EQ(ints(gen), (std::vector<std::int64_t>{14, 77, 194, 100}));
}

TEST(MapReduceTest, TotalMatchesSerial) {
  DataParallel dp(7);
  auto gen = dp.mapReduce(squareProc(), [] { return test::range(1, 100); }, addProc(),
                          Value::integer(0));
  std::int64_t total = 0;
  for (const auto v : ints(gen)) total += v;
  std::int64_t expected = 0;
  for (int i = 1; i <= 100; ++i) expected += static_cast<std::int64_t>(i) * i;
  EXPECT_EQ(total, expected);
}

TEST(MapReduceTest, GeneratorMapFunctionContributesAllResults) {
  // f suspends TWO results per element; both join the fold.
  auto twice = ProcImpl::create("twice", [](std::vector<Value> args) -> GenPtr {
    const Value v = args.at(0);
    return AltGen::create(ConstGen::create(v), ConstGen::create(v));
  });
  DataParallel dp(10);
  auto gen = dp.mapReduce(twice, [] { return test::range(1, 3); }, addProc(), Value::integer(0));
  EXPECT_EQ(ints(gen), (std::vector<std::int64_t>{12})) << "(1+1+2+2+3+3)";
}

TEST(MapReduceTest, RestartRecomputes) {
  DataParallel dp(2);
  auto gen = dp.mapReduce(squareProc(), [] { return test::range(1, 4); }, addProc(),
                          Value::integer(0));
  EXPECT_EQ(ints(gen), (std::vector<std::int64_t>{5, 25}));
  EXPECT_EQ(ints(gen), (std::vector<std::int64_t>{5, 25})) << "second cycle spawns fresh tasks";
}

TEST(MapFlatTest, FlattensInChunkOrder) {
  DataParallel dp(2);
  auto gen = dp.mapFlat(squareProc(), [] { return test::range(1, 5); });
  EXPECT_EQ(ints(gen), (std::vector<std::int64_t>{1, 4, 9, 16, 25}))
      << "data-parallel map preserves order across chunks";
}

TEST(MapFlatTest, GeneratorFunctionFlattens) {
  // Each element maps to the full range 1..element.
  auto expand = ProcImpl::create("expand", [](std::vector<Value> args) -> GenPtr {
    return RangeGen::create(Value::integer(1), args.at(0), Value::integer(1));
  });
  DataParallel dp(2);
  auto gen = dp.mapFlat(expand, [] { return test::range(1, 3); });
  EXPECT_EQ(ints(gen), (std::vector<std::int64_t>{1, 1, 2, 1, 2, 3}));
}

// ---------------------------------------------------------------------
// Chunk errors
// ---------------------------------------------------------------------

TEST(RetryTest, DisabledRetryPropagatesOriginalError) {
  auto alwaysFail = builtins::makeNative("alwaysFail", [](std::vector<Value>&) -> std::optional<Value> {
    throw errDivisionByZero();
  });
  DataParallel dp(2);
  auto gen = dp.mapFlat(alwaysFail, [] { return test::range(1, 4); });
  try {
    ints(gen);
    FAIL() << "expected IconError 201";
  } catch (const IconError& e) {
    EXPECT_EQ(e.number(), 201);
  }
}

TEST(PipelineTest, SingleStage) {
  Pipeline p;
  p.stage(squareProc());
  EXPECT_EQ(ints(p.build([] { return test::range(1, 5); })),
            (std::vector<std::int64_t>{1, 4, 9, 16, 25}));
}

TEST(PipelineTest, MultiStageComposesInOrder) {
  auto inc = builtins::makeNative("inc", [](std::vector<Value>& a) {
    return ops::add(a.at(0), Value::integer(1));
  });
  Pipeline p;
  p.stage(squareProc()).stage(inc);  // (x^2)+1
  EXPECT_EQ(p.depth(), 2u);
  EXPECT_EQ(ints(p.build([] { return test::range(1, 4); })),
            (std::vector<std::int64_t>{2, 5, 10, 17}));
}

TEST(PipelineTest, LastInlineVariantAgrees) {
  Pipeline p;
  p.stage(squareProc());
  EXPECT_EQ(ints(p.buildLastInline([] { return test::range(1, 5); })),
            (std::vector<std::int64_t>{1, 4, 9, 16, 25}));
}

TEST(PipelineTest, StageGeneratorsExpand) {
  // A stage that suspends multiple results multiplies the stream.
  auto dup = ProcImpl::create("dup", [](std::vector<Value> args) -> GenPtr {
    const Value v = args.at(0);
    return AltGen::create(ConstGen::create(v), ConstGen::create(v));
  });
  Pipeline p;
  p.stage(dup);
  EXPECT_EQ(ints(p.build([] { return test::range(1, 2); })),
            (std::vector<std::int64_t>{1, 1, 2, 2}));
}

TEST(PipelineTest, FilteringStageDropsFailures) {
  // A goal-directed stage: only even values survive.
  auto evens = builtins::makeNative("evens", [](std::vector<Value>& a) -> std::optional<Value> {
    if (a.at(0).requireInt64() % 2 != 0) return std::nullopt;
    return a.at(0);
  });
  Pipeline p;
  p.stage(evens);
  EXPECT_EQ(ints(p.build([] { return test::range(1, 8); })),
            (std::vector<std::int64_t>{2, 4, 6, 8}));
}

TEST(PipelineTest, DeepPipeline) {
  auto inc = builtins::makeNative("inc", [](std::vector<Value>& a) {
    return ops::add(a.at(0), Value::integer(1));
  });
  Pipeline p;
  for (int i = 0; i < 8; ++i) p.stage(inc);
  EXPECT_EQ(ints(p.build([] { return test::range(0, 3); })),
            (std::vector<std::int64_t>{8, 9, 10, 11}));
}

class ChunkSizeProperty : public ::testing::TestWithParam<int> {};

TEST_P(ChunkSizeProperty, MapReduceTotalInvariantUnderChunking) {
  DataParallel dp(GetParam());
  auto gen = dp.mapReduce(squareProc(), [] { return test::range(1, 57); }, addProc(),
                          Value::integer(0));
  std::int64_t total = 0;
  for (const auto v : ints(gen)) total += v;
  EXPECT_EQ(total, 63365) << "sum of squares 1..57 regardless of chunk size";
}

TEST_P(ChunkSizeProperty, MapFlatOrderInvariantUnderChunking) {
  DataParallel dp(GetParam());
  auto gen = dp.mapFlat(squareProc(), [] { return test::range(1, 23); });
  std::vector<std::int64_t> expected;
  for (int i = 1; i <= 23; ++i) expected.push_back(static_cast<std::int64_t>(i) * i);
  EXPECT_EQ(ints(gen), expected);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ChunkSizeProperty, ::testing::Values(1, 2, 3, 8, 23, 100));

}  // namespace
}  // namespace congen
