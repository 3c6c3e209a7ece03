// metamorphic_test.cpp — algebraic laws of goal-directed evaluation,
// checked over randomly generated expressions. These are the invariants
// the paper's Section II decompositions rely on (e.g. that function
// application distributes over the iterator product of its argument
// sequences), so they pin the kernel against whole classes of
// composition bugs rather than single cases.
#include <gtest/gtest.h>

#include <random>
#include <sstream>

#include "interp/interpreter.hpp"

namespace congen::interp {
namespace {

/// Random *finite, pure* integer generator expressions: literals,
/// ranges, alternations, limited products, arithmetic. Purity matters —
/// the laws below re-evaluate subexpressions.
class ExprGen {
 public:
  explicit ExprGen(std::uint64_t seed) : rng_(seed) {}

  std::string gen(int depth = 0) {
    const int pick = depth >= 3 ? static_cast<int>(rng_() % 2) : static_cast<int>(rng_() % 6);
    std::ostringstream os;
    switch (pick) {
      case 0: os << literal(); break;
      case 1: os << "(" << literal() << " to " << literal() << ")"; break;
      case 2: os << "(" << gen(depth + 1) << " | " << gen(depth + 1) << ")"; break;
      case 3: os << "(" << gen(depth + 1) << " + " << gen(depth + 1) << ")"; break;
      case 4: os << "(" << gen(depth + 1) << " & " << gen(depth + 1) << ")"; break;
      case 5: os << "(" << gen(depth + 1) << " \\ " << (1 + rng_() % 4) << ")"; break;
    }
    return os.str();
  }

  std::string literal() { return std::to_string(static_cast<int>(rng_() % 7) - 2); }

 private:
  std::mt19937_64 rng_;
};

std::vector<std::string> images(Interpreter& interp, const std::string& src) {
  std::vector<std::string> out;
  for (const auto& v : interp.evalAll(src)) out.push_back(v.image());
  return out;
}

class MetamorphicLaws : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  Interpreter interp_;
};

TEST_P(MetamorphicLaws, AlternationConcatenatesSequences) {
  ExprGen g(GetParam());
  for (int i = 0; i < 20; ++i) {
    const std::string a = g.gen(), b = g.gen();
    auto lhs = images(interp_, "(" + a + ") | (" + b + ")");
    auto expect = images(interp_, a);
    for (auto& v : images(interp_, b)) expect.push_back(std::move(v));
    EXPECT_EQ(lhs, expect) << a << " | " << b;
  }
}

TEST_P(MetamorphicLaws, AlternationIsAssociative) {
  ExprGen g(GetParam() ^ 0xA550C);
  for (int i = 0; i < 20; ++i) {
    const std::string a = g.gen(), b = g.gen(), c = g.gen();
    EXPECT_EQ(images(interp_, "((" + a + ") | (" + b + ")) | (" + c + ")"),
              images(interp_, "(" + a + ") | ((" + b + ") | (" + c + "))"));
  }
}

TEST_P(MetamorphicLaws, ProductCountIsProductOfCounts) {
  // For independent operands, |e1 & e2| = |e1| * |e2| and the results
  // are |e1| repetitions of e2's sequence (Section II's semantics).
  ExprGen g(GetParam() ^ 0x90D);
  for (int i = 0; i < 20; ++i) {
    const std::string a = g.gen(), b = g.gen();
    const auto as = images(interp_, a);
    const auto bs = images(interp_, b);
    const auto prod = images(interp_, "(" + a + ") & (" + b + ")");
    ASSERT_EQ(prod.size(), as.size() * bs.size()) << a << " & " << b;
    std::vector<std::string> expect;
    for (std::size_t k = 0; k < as.size(); ++k) {
      for (const auto& v : bs) expect.push_back(v);
    }
    EXPECT_EQ(prod, expect);
  }
}

TEST_P(MetamorphicLaws, LimitTruncates) {
  ExprGen g(GetParam() ^ 0x11117);
  for (int i = 0; i < 20; ++i) {
    const std::string a = g.gen();
    const auto full = images(interp_, a);
    for (const int n : {0, 1, 2, 5}) {
      auto limited = images(interp_, "(" + a + ") \\ " + std::to_string(n));
      const std::size_t want = std::min(full.size(), static_cast<std::size_t>(n));
      ASSERT_EQ(limited.size(), want) << a << " \\ " << n;
      for (std::size_t k = 0; k < want; ++k) EXPECT_EQ(limited[k], full[k]);
    }
  }
}

TEST_P(MetamorphicLaws, ApplicationDistributesOverArguments) {
  // f(e) ≡ every x in e: f(x) — "operations search over the product
  // space of their operands".
  interp_.load("def f(x) { return x * 2 + 1; }");
  ExprGen g(GetParam() ^ 0xF00D);
  for (int i = 0; i < 20; ++i) {
    const std::string a = g.gen();
    const auto applied = images(interp_, "f(" + a + ")");
    std::vector<std::string> expect;
    for (const auto& v : images(interp_, a)) {
      auto one = images(interp_, "f(" + v + ")");
      ASSERT_EQ(one.size(), 1u);
      expect.push_back(one[0]);
    }
    EXPECT_EQ(applied, expect) << "f(" << a << ")";
  }
}

TEST_P(MetamorphicLaws, PipeIsTransparent) {
  // ! |> e produces exactly e's sequence — threading must not reorder,
  // drop, or duplicate (Section III.B's proxy contract).
  ExprGen g(GetParam() ^ 0xB1BE);
  for (int i = 0; i < 10; ++i) {
    const std::string a = g.gen();
    EXPECT_EQ(images(interp_, "! |> (" + a + ")"), images(interp_, a)) << a;
  }
}

TEST_P(MetamorphicLaws, CoExpressionDrainEqualsDirect) {
  ExprGen g(GetParam() ^ 0xC0E);
  for (int i = 0; i < 10; ++i) {
    const std::string a = g.gen();
    EXPECT_EQ(images(interp_, "! <> (" + a + ")"), images(interp_, a)) << a;
  }
}

TEST_P(MetamorphicLaws, NormalizationPreservesRandomExpressions) {
  Interpreter raw(Interpreter::Options{.normalize = false});
  Interpreter normd(Interpreter::Options{.normalize = true});
  raw.load("def g(x) { suspend 1 to x; }");
  normd.load("def g(x) { suspend 1 to x; }");
  ExprGen g(GetParam() ^ 0x40A);
  for (int i = 0; i < 15; ++i) {
    const std::string a = "g(" + g.gen() + " \\ 2)";
    std::vector<std::string> lhs, rhs;
    for (const auto& v : raw.evalAll(a)) lhs.push_back(v.image());
    for (const auto& v : normd.evalAll(a)) rhs.push_back(v.image());
    EXPECT_EQ(lhs, rhs) << a;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetamorphicLaws,
                         ::testing::Values(1u, 7u, 42u, 1234u, 99991u));

}  // namespace
}  // namespace congen::interp
