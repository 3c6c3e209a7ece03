// frame.hpp — flat, slot-indexed call frames.
//
// The resolution pass (interp/resolver) assigns every name in a procedure
// body a frame slot at compile time; a call then materializes one Frame —
// a vector of cells, with no per-call hashmap.
// Reusing a parked body (kernel BodyPool) rebinds the same frame: slots
// are overwritten in place, no allocation, no hashing.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "interp/resolver.hpp"
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

/// One activation's storage: layout.slotCount() cells. `var(slot)` is
/// what compiled identifier nodes reference — a plain cell for Slot
/// names, a LateBoundVar wrapper for Late names.
/// A co-expression body's frame has the same shape, but binds only the
/// slots its body names (VmGen::bodyFactory).
class Frame {
 public:
  Frame(const FrameLayout& layout, const ScopePtr& globals) : nParams_(layout.nParams) {
    const std::size_t n = layout.slotCount();
    cells_.reserve(n);
    vars_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      auto cell = std::make_shared<CellVar>();
      if (layout.late[i]) {
        vars_.push_back(LateBoundVar::create(layout.slotNames[i], globals, cell));
      } else {
        vars_.push_back(cell);
      }
      cells_.push_back(std::move(cell));
    }
  }

  /// A co-expression body's frame: `slots` unbound slots.
  explicit Frame(std::size_t slots) : vars_(slots), nParams_(0) {}

  [[nodiscard]] const VarPtr& var(std::size_t slot) const { return vars_[slot]; }
  void bind(std::size_t slot, VarPtr var) { vars_[slot] = std::move(var); }

  /// Fresh-call state: parameter slots from `args` (missing ones &null,
  /// extras ignored — Unicon's variadic convention), every other slot
  /// reset to &null.
  void rebind(const std::vector<Value>& args) {
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      if (i < nParams_ && i < args.size()) {
        cells_[i]->set(args[i]);
      } else {
        cells_[i]->set(Value::null());
      }
    }
  }

 private:
  std::vector<std::shared_ptr<CellVar>> cells_;
  std::vector<VarPtr> vars_;
  std::size_t nParams_;
};

using FramePtr = std::shared_ptr<Frame>;

}  // namespace congen::interp
