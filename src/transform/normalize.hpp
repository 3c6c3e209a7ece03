// normalize.hpp — flattening of nested generator expressions.
//
// The first transformation step of Section V.A: "to make iteration
// explicit, we introduce an operator for bound iteration, and decompose
// nested generators into products of such bound iterators". A primary
// expression
//
//     e(ex, ey).c[ei]
//
// is rewritten to
//
//     (f in ⟦e⟧) & (x in ⟦ex⟧) & (y in ⟦ey⟧)
//       & (o in ! f(x,y)) & (i in ⟦ei⟧) & (j in ! o.c[i])
//
// where ⟦·⟧ is the recursive application of the same transformation.
// After normalization every invocation, field access, and subscript has
// only *simple* operands (literals, identifiers, or normalization
// temporaries), so the residual expression can be evaluated with
// mechanisms native to the translation target — the property that makes
// the embedding interoperable.
//
// The rewriting is semantics-preserving: tests/transform asserts that
// interpreting the normalized tree produces the same result sequence as
// interpreting the original.
#pragma once

#include <string>

#include "frontend/ast.hpp"

namespace congen::transform {

/// Fresh-name supply for normalization temporaries (x_0, x_1, ... —
/// matching Fig. 5's IconTmp naming).
class TempNames {
 public:
  std::string fresh() { return "x_" + std::to_string(counter_++); }
  [[nodiscard]] int used() const noexcept { return counter_; }

 private:
  int counter_ = 0;
};

/// Normalize one expression tree. Statements and definitions are
/// traversed; expression positions are rewritten.
ast::NodePtr normalize(const ast::NodePtr& node, TempNames& names);

/// Convenience over a whole program / def / statement.
ast::NodePtr normalizeProgram(const ast::NodePtr& program);

/// True if the node is a *simple* operand after normalization: a
/// literal, identifier, or temporary reference.
bool isSimple(const ast::NodePtr& node);

/// Collect the free identifiers of an expression (used to compute the
/// shadowed environment of a co-expression, Section V.D: "textually
/// scoping up for referenced locals").
std::vector<std::string> freeIdents(const ast::NodePtr& node);

}  // namespace congen::transform
