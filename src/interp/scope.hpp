// scope.hpp — the global table: names mapped to reified variables.
#pragma once
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "runtime/var.hpp"

namespace congen::interp {

class Scope;
using ScopePtr = std::shared_ptr<Scope>;

/// One interpreter's globals: procedures, records, `global` declarations
/// and implicitly declared top-level names. Everything else lives in
/// frames (interp/frame.hpp) laid out at compile time.
class Scope {
 public:
  static ScopePtr makeGlobal() { return std::make_shared<Scope>(); }

  /// nullptr if unbound.
  [[nodiscard]] VarPtr lookup(const std::string& name) const {
    const auto it = vars_.find(name);
    return it == vars_.end() ? nullptr : it->second;
  }

  /// Bind `name`. Redeclaration is keep-and-rebind: the *existing cell*
  /// is kept (so references captured elsewhere — resolved slots,
  /// co-expression frames, compiled chunks — stay valid) and only its
  /// value is rebound to `initial`.
  VarPtr declare(const std::string& name, Value initial = Value::null()) {
    auto [it, inserted] = vars_.try_emplace(name, nullptr);
    if (inserted) {
      it->second = CellVar::create(std::move(initial));
      version_.fetch_add(1, std::memory_order_release);  // new binding: lookups change
    } else {
      it->second->set(std::move(initial));  // keep-and-rebind: same cell, no bump
    }
    return it->second;
  }

  /// Binding-set generation, bumped whenever a lookup's answer could
  /// change (new declaration, clear) — never on plain value assignment
  /// through an existing cell. The VM's inline caches pair a resolved
  /// VarPtr with the version they observed; a stale version falls back
  /// to the full re-check (LateBoundVar::target), so a racing bump costs
  /// a miss, never a wrong binding.
  [[nodiscard]] std::uint64_t version() const noexcept {
    return version_.load(std::memory_order_acquire);
  }

  /// Drop every binding. A co-expression or pipe stored in a global can
  /// reach that global's cell again (its body chunk loads it), a cycle
  /// shared_ptr cannot reclaim; the interpreter clears its globals on
  /// teardown to break it. The stored values are nulled first, not just
  /// the map: cells outlive this table (chunks and frames hold them), and
  /// a global cell holding a procedure whose compiled chunk loads that
  /// very cell (any recursive procedure) is a cycle the map clear alone
  /// cannot break.
  void clear() noexcept {
    for (auto& [name, var] : vars_) {
      var->set(Value::null());
    }
    vars_.clear();
    version_.fetch_add(1, std::memory_order_release);
  }

 private:
  std::unordered_map<std::string, VarPtr> vars_;
  std::atomic<std::uint64_t> version_{0};
};

}  // namespace congen::interp
