#include "transform/normalize.hpp"

#include <algorithm>
#include <set>

namespace congen::transform {

using ast::Kind;
using ast::NodePtr;

bool isSimple(const NodePtr& node) {
  if (!node) return true;
  switch (node->kind) {
    case Kind::IntLit:
    case Kind::RealLit:
    case Kind::StrLit:
    case Kind::NullLit:
    case Kind::Ident:
    case Kind::TempRef:
      return true;
    default:
      return false;
  }
}

namespace {

/// Fold bindings around a core expression:
///   [b1, b2] core → b1 & (b2 & core)
NodePtr foldProduct(std::vector<NodePtr> bindings, NodePtr core) {
  NodePtr out = std::move(core);
  for (auto it = bindings.rbegin(); it != bindings.rend(); ++it) {
    out = ast::make(Kind::Binary, "&", {std::move(*it), std::move(out)});
  }
  return out;
}

/// Hoist a (already normalized) operand: simple operands stay in place;
/// generators are moved out into a bound iterator.
NodePtr hoist(NodePtr operand, TempNames& names, std::vector<NodePtr>& bindings) {
  if (isSimple(operand)) return operand;
  const std::string temp = names.fresh();
  bindings.push_back(ast::make(Kind::BoundIter, temp, {std::move(operand)}));
  return ast::make(Kind::TempRef, temp);
}

/// L-value positions: keep the node shape (it must still yield a
/// variable), but hoist its operand subexpressions.
NodePtr normalizeLValue(const NodePtr& node, TempNames& names, std::vector<NodePtr>& bindings) {
  if (!node) return nullptr;
  switch (node->kind) {
    case Kind::Index: {
      auto coll = hoist(normalize(node->kids[0], names), names, bindings);
      auto idx = hoist(normalize(node->kids[1], names), names, bindings);
      return ast::make(Kind::Index, "", {std::move(coll), std::move(idx)});
    }
    case Kind::Field: {
      auto obj = hoist(normalize(node->kids[0], names), names, bindings);
      return ast::make(Kind::Field, node->text, {std::move(obj)});
    }
    default:
      // Identifiers stay; anything else (e.g. an alternation of
      // variables) is normalized structurally so its results keep their
      // variable references.
      return normalize(node, names);
  }
}

}  // namespace

NodePtr normalize(const NodePtr& node, TempNames& names) {
  if (!node) return nullptr;
  switch (node->kind) {
    // -- primaries: the flattening sites of Section V.A ----------------
    case Kind::Invoke:
    case Kind::NativeInvoke:
    case Kind::Index:
    case Kind::Slice: {
      std::vector<NodePtr> bindings;
      std::vector<NodePtr> kids;
      kids.reserve(node->kids.size());
      for (const auto& child : node->kids) {
        kids.push_back(hoist(normalize(child, names), names, bindings));
      }
      auto core = ast::make(node->kind, node->text, std::move(kids));
      core->line = node->line;
      core->col = node->col;
      return foldProduct(std::move(bindings), std::move(core));
    }
    case Kind::Field: {
      std::vector<NodePtr> bindings;
      auto obj = hoist(normalize(node->kids[0], names), names, bindings);
      auto core = ast::make(Kind::Field, node->text, {std::move(obj)});
      return foldProduct(std::move(bindings), std::move(core));
    }

    // -- assignment: the left side must keep yielding a variable --------
    case Kind::Assign:
    case Kind::Swap: {
      std::vector<NodePtr> bindings;
      auto lhs = normalizeLValue(node->kids[0], names, bindings);
      auto rhs = normalize(node->kids[1], names);
      auto core = ast::make(node->kind, node->text, {std::move(lhs), std::move(rhs)});
      return foldProduct(std::move(bindings), std::move(core));
    }

    // -- everything else: structural recursion ---------------------------
    default: {
      auto out = ast::make(node->kind, node->text);
      out->line = node->line;
      out->col = node->col;
      out->kids.reserve(node->kids.size());
      for (const auto& child : node->kids) out->kids.push_back(normalize(child, names));
      return out;
    }
  }
}

NodePtr normalizeProgram(const NodePtr& program) {
  TempNames names;
  return normalize(program, names);
}

namespace {

void collectIdents(const NodePtr& node, std::set<std::string>& out) {
  if (!node) return;
  if (node->kind == Kind::Ident || node->kind == Kind::TempRef) out.insert(node->text);
  // VarDecl introduces, rather than references, its name.
  for (const auto& k : node->kids) collectIdents(k, out);
}

void collectBound(const NodePtr& node, std::set<std::string>& out) {
  if (!node) return;
  if (node->kind == Kind::VarDecl || node->kind == Kind::BoundIter) out.insert(node->text);
  if (node->kind == Kind::ParamList) {
    for (const auto& p : node->kids) out.insert(p->text);
  }
  for (const auto& k : node->kids) collectBound(k, out);
}

}  // namespace

std::vector<std::string> freeIdents(const NodePtr& node) {
  std::set<std::string> refs, bound;
  collectIdents(node, refs);
  collectBound(node, bound);
  std::vector<std::string> out;
  for (const auto& name : refs) {
    if (!bound.contains(name)) out.push_back(name);
  }
  return out;  // std::set iteration is already sorted
}

}  // namespace congen::transform
