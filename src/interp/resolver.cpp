#include "interp/resolver.hpp"

#include "builtins/builtins.hpp"

namespace congen::interp {

using ast::Kind;
using ast::NodePtr;
using ast::Res;

namespace {

class Resolver {
 public:
  Resolver(FrameLayout& layout, const Scope& globals) : layout_(layout), globals_(globals) {}

  /// Pass 1: every binding occurrence (parameters, `local` declarations,
  /// bound-iteration temporaries) claims a slot. Icon locals are
  /// procedure-scoped, not block-scoped: one flat frame per body, so a
  /// declaration anywhere binds the name everywhere in the body.
  void collectBindings(const NodePtr& n) {
    if (!n) return;
    switch (n->kind) {
      case Kind::VarDecl:
      case Kind::BoundIter:
        annotate(n, addSlot(n->text, /*late=*/false));
        break;
      case Kind::Def:  // nested procedure: its own resolution, later
        return;
      default:
        break;
    }
    for (const auto& k : n->kids) collectBindings(k);
  }

  /// Pass 2: classify every reference. Free names bind to the global
  /// cell when one exists now, to an interned builtin constant next, and
  /// otherwise to a Late slot — a global may still appear at run time,
  /// and until it does the slot acts as Unicon's implicit local.
  void classifyRefs(const NodePtr& n) {
    if (!n) return;
    switch (n->kind) {
      case Kind::Ident:
      case Kind::TempRef:
        classifyName(n, n->text);
        return;
      case Kind::NativeInvoke: {
        classifyName(n, n->text);  // the callee name rides on the node itself
        // recv::f(...) — a literal `this` receiver is calling convention,
        // not a variable reference.
        bool first = true;
        for (const auto& k : n->kids) {
          const bool isThis = first && k->kind == Kind::Ident && k->text == "this";
          if (!isThis) classifyRefs(k);
          first = false;
        }
        return;
      }
      case Kind::Field:  // text is a field name, kids[0] the object
      case Kind::VarDecl:
      case Kind::BoundIter:
        break;  // binding text handled in pass 1; still resolve children
      case Kind::Def:
        return;
      default:
        break;
    }
    for (const auto& k : n->kids) classifyRefs(k);
  }

 private:
  std::int32_t addSlot(const std::string& name, bool late) {
    const auto it = layout_.slots.find(name);
    if (it != layout_.slots.end()) return it->second;  // redeclaration keeps its slot
    const auto slot = static_cast<std::int32_t>(layout_.slotNames.size());
    layout_.slotNames.push_back(name);
    layout_.late.push_back(late);
    layout_.slots.emplace(name, slot);
    return slot;
  }

  void classifyName(const NodePtr& n, const std::string& name) {
    if (const auto slot = layout_.slotOf(name); slot >= 0) {
      annotate(n, slot);
      return;
    }
    if (globals_.lookup(name)) {
      n->res = Res::Global;
      n->slot = -1;
      return;
    }
    if (builtins::lookupConst(name)) {
      n->res = Res::Builtin;
      n->slot = -1;
      return;
    }
    annotate(n, addSlot(name, /*late=*/true));
  }

  void annotate(const NodePtr& n, std::int32_t slot) {
    n->slot = slot;
    n->res = layout_.late[static_cast<std::size_t>(slot)] ? Res::Late : Res::Slot;
  }

  FrameLayout& layout_;
  const Scope& globals_;
};

}  // namespace

FrameLayout resolve(const NodePtr& params, const NodePtr& body, const Scope& globals) {
  FrameLayout layout;
  Resolver r(layout, globals);
  if (params) {
    // Parameters claim the leading slots in declaration order.
    for (const auto& p : params->kids) {
      p->slot = static_cast<std::int32_t>(layout.slotNames.size());
      p->res = ast::Res::Slot;
      layout.slotNames.push_back(p->text);
      layout.late.push_back(false);
      layout.slots.emplace(p->text, p->slot);
    }
    layout.nParams = params->kids.size();
  }
  r.collectBindings(body);
  r.classifyRefs(body);
  return layout;
}

}  // namespace congen::interp
