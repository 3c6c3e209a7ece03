// collections_test.cpp — lists, tables, sets, and trapped variables.
#include "runtime/collections.hpp"

#include <gtest/gtest.h>

#include "runtime/record.hpp"
#include "runtime/var.hpp"

namespace congen {
namespace {

TEST(ListOps, QueueAndStackBehaviour) {
  auto l = ListImpl::create();
  EXPECT_TRUE(l->empty());
  l->put(Value::integer(1));   // [1]
  l->put(Value::integer(2));   // [1,2]
  l->push(Value::integer(0));  // [0,1,2]
  EXPECT_EQ(l->size(), 3);
  EXPECT_EQ(l->get()->smallInt(), 0);   // removes left
  EXPECT_EQ(l->pull()->smallInt(), 2);  // removes right
  EXPECT_EQ(l->get()->smallInt(), 1);
  EXPECT_FALSE(l->get().has_value()) << "get fails on empty";
  EXPECT_FALSE(l->pull().has_value());
}

TEST(ListOps, IconIndexing) {
  auto l = ListImpl::create({Value::integer(10), Value::integer(20), Value::integer(30)});
  EXPECT_EQ(l->at(1)->smallInt(), 10) << "1-based";
  EXPECT_EQ(l->at(3)->smallInt(), 30);
  EXPECT_EQ(l->at(-1)->smallInt(), 30) << "negative counts from the right";
  EXPECT_EQ(l->at(-3)->smallInt(), 10);
  EXPECT_FALSE(l->at(0).has_value());
  EXPECT_FALSE(l->at(4).has_value());
  EXPECT_FALSE(l->at(-4).has_value());
}

TEST(ListOps, AssignByIndex) {
  auto l = ListImpl::create({Value::integer(1), Value::integer(2)});
  EXPECT_TRUE(l->assign(2, Value::integer(99)));
  EXPECT_EQ(l->at(2)->smallInt(), 99);
  EXPECT_TRUE(l->assign(-2, Value::integer(7)));
  EXPECT_EQ(l->at(1)->smallInt(), 7);
  EXPECT_FALSE(l->assign(5, Value::integer(0)));
}

TEST(TableOps, DefaultValueSemantics) {
  auto t = TableImpl::create(Value::integer(0));
  EXPECT_EQ(t->lookup(Value::string("absent")).smallInt(), 0) << "default for absent key";
  EXPECT_FALSE(t->member(Value::string("absent"))) << "lookup does not insert";
  t->insert(Value::string("a"), Value::integer(5));
  EXPECT_EQ(t->lookup(Value::string("a")).smallInt(), 5);
  EXPECT_TRUE(t->member(Value::string("a")));
  EXPECT_EQ(t->size(), 1);
  EXPECT_TRUE(t->erase(Value::string("a")));
  EXPECT_FALSE(t->erase(Value::string("a")));
}

TEST(TableOps, MixedTypeKeys) {
  auto t = TableImpl::create();
  t->insert(Value::integer(1), Value::string("int"));
  t->insert(Value::string("1"), Value::string("str"));
  t->insert(Value::real(1.0), Value::string("real"));
  EXPECT_EQ(t->size(), 3) << "1, \"1\" and 1.0 are distinct keys";
  EXPECT_EQ(t->lookup(Value::integer(1)).str(), "int");
  EXPECT_EQ(t->lookup(Value::string("1")).str(), "str");
}

TEST(TableOps, SortedKeysDeterministic) {
  auto t = TableImpl::create();
  t->insert(Value::string("b"), Value::null());
  t->insert(Value::string("a"), Value::null());
  t->insert(Value::integer(5), Value::null());
  const auto keys = t->sortedKeys();
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys[0].smallInt(), 5) << "integers rank before strings";
  EXPECT_EQ(keys[1].str(), "a");
  EXPECT_EQ(keys[2].str(), "b");
}

TEST(SetOps, MembershipAndDedup) {
  auto s = SetImpl::create();
  EXPECT_TRUE(s->insert(Value::integer(1)));
  EXPECT_FALSE(s->insert(Value::integer(1))) << "duplicate insert";
  EXPECT_TRUE(s->insert(Value::string("1"))) << "different type, different member";
  EXPECT_EQ(s->size(), 2);
  EXPECT_TRUE(s->member(Value::integer(1)));
  EXPECT_TRUE(s->erase(Value::integer(1)));
  EXPECT_FALSE(s->member(Value::integer(1)));
}

TEST(TrappedVars, ListElemVarReadsAndWrites) {
  auto l = ListImpl::create({Value::integer(1), Value::integer(2)});
  auto v = ListElemVar::create(l, 2);
  EXPECT_EQ(v->get().smallInt(), 2);
  v->set(Value::integer(42));
  EXPECT_EQ(l->at(2)->smallInt(), 42);
}

TEST(TrappedVars, TableElemVarCreatesOnAssign) {
  auto t = TableImpl::create(Value::integer(-1));
  auto v = TableElemVar::create(t, Value::string("k"));
  EXPECT_EQ(v->get().smallInt(), -1) << "reads the default before assignment";
  v->set(Value::integer(9));
  EXPECT_EQ(t->lookup(Value::string("k")).smallInt(), 9);
}

TEST(TrappedVars, ComputedVarReadOnlyThrowsOnSet) {
  auto v = ComputedVar::create([] { return Value::integer(7); });
  EXPECT_EQ(v->get().smallInt(), 7);
  EXPECT_THROW(v->set(Value::integer(1)), IconError);
}

TEST(TrappedVars, ComputedVarRoundTrip) {
  Value storage = Value::integer(0);
  auto v = ComputedVar::create([&] { return storage; }, [&](Value x) { storage = std::move(x); });
  v->set(Value::string("hi"));
  EXPECT_EQ(storage.str(), "hi");
  EXPECT_EQ(v->get().str(), "hi");
}

TEST(ReferenceSemantics, ListsAlias) {
  auto l = ListImpl::create();
  const Value a = Value::list(l);
  const Value b = a;  // copying the Value aliases the structure
  a.list()->put(Value::integer(1));
  EXPECT_EQ(b.list()->size(), 1);
}

// A recursive teardown of these chains needs at least one native frame
// per link, more than an 8 MB stack holds (each depth is about twice
// what overflows it); the final release queues each payload's children
// instead, so the teardown runs in a loop.
TEST(ReferenceSemantics, ReleasingLongChainsDoesNotRecurse) {
  Value chain = Value::list(ListImpl::create());
  for (int i = 0; i < 100000; ++i) chain = Value::list(ListImpl::create({chain}));
  chain = Value::null();

  const auto node = RecordType::create("node", {"next"});
  Value mixed = Value::null();
  for (int i = 0; i < 300000; ++i) {
    if (i % 3 == 0) {
      mixed = Value::list(ListImpl::create({mixed}));
    } else if (i % 3 == 1) {
      auto t = TableImpl::create();
      t->insert(Value::integer(i), mixed);
      mixed = Value::table(t);
    } else {
      mixed = Value::record(RecordImpl::create(node, {mixed}));
    }
  }
  mixed = Value::null();
  EXPECT_TRUE(chain.isNull());
}

}  // namespace
}  // namespace congen
