// frame.hpp — frames of reified cells, for what must alias a slot.
//
// A procedure activation keeps its locals as plain Values in the
// machine's slot array (interp/vm.hpp). Cells exist only where a slot
// is aliased: a late-bound name (LateBoundVar over a fallback cell), a
// name an escape operand's machine or a co-expression body reaches, and
// every slot of those nested chunks themselves. A Frame is the vector of
// those cells, indexed by slot.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "interp/scope.hpp"
#include "runtime/var.hpp"

namespace congen::interp {

/// A variable whose binding could not be classified at resolution time:
/// the name was neither a parameter/local nor a known global/builtin. A
/// global of that name may still appear later (`global` executes at run
/// time), so each access re-checks the global scope and falls back to the
/// frame cell (the implicit-local default) while no global exists.
class LateBoundVar final : public Var {
 public:
  LateBoundVar(std::string name, ScopePtr globals, VarPtr fallback)
      : name_(std::move(name)), globals_(std::move(globals)), fallback_(std::move(fallback)) {}

  [[nodiscard]] Value get() const override { return target()->get(); }
  void set(Value v) override { target()->set(std::move(v)); }

  /// The binding an access would use right now.
  [[nodiscard]] const VarPtr& target() const {
    if (auto g = globals_->lookup(name_)) {
      cachedGlobal_ = std::move(g);
      return cachedGlobal_;
    }
    return fallback_;
  }

  static std::shared_ptr<LateBoundVar> create(std::string name, ScopePtr globals, VarPtr fallback) {
    return std::make_shared<LateBoundVar>(std::move(name), std::move(globals), std::move(fallback));
  }

 private:
  std::string name_;
  ScopePtr globals_;
  VarPtr fallback_;
  mutable VarPtr cachedGlobal_;  // keeps the returned reference alive
};

/// The cells of one activation or co-expression body, by slot. Only
/// the slots something aliases are bound (see the header comment);
/// VmGen::layoutSlots and VmGen::bodyFactory fill them.
class Frame {
 public:
  explicit Frame(std::size_t slots) : vars_(slots) {}

  [[nodiscard]] const VarPtr& var(std::size_t slot) const { return vars_[slot]; }
  void bind(std::size_t slot, VarPtr var) { vars_[slot] = std::move(var); }

 private:
  std::vector<VarPtr> vars_;
};

using FramePtr = std::shared_ptr<Frame>;

}  // namespace congen::interp
