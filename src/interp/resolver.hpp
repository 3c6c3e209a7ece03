// resolver.hpp — the name-resolution pass between parse and Gen
// construction.
//
// For each procedure, resolve() classifies every identifier in the body
// exactly once — local slot, global, builtin, or late-bound — and
// annotates the AST nodes (ast::Node::res / ::slot) so the frame-mode
// compiler emits direct slot references instead of hashing names per
// access. The resulting FrameLayout is the static shape of the
// procedure's activation frame (interp/frame.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "frontend/ast.hpp"
#include "interp/scope.hpp"

namespace congen::interp {

/// Static frame shape for one procedure: slot i of every activation holds
/// the variable named slotNames[i]. Parameters occupy slots [0, nParams).
struct FrameLayout {
  std::vector<std::string> slotNames;
  std::vector<bool> late;  // late[i]: slot i re-checks globals per access
  std::unordered_map<std::string, std::int32_t> slots;
  std::size_t nParams = 0;

  [[nodiscard]] std::size_t slotCount() const noexcept { return slotNames.size(); }
  [[nodiscard]] std::int32_t slotOf(const std::string& name) const {
    const auto it = slots.find(name);
    return it == slots.end() ? -1 : it->second;
  }
};

/// Resolve a procedure: parameters from `params` (a ParamList node; null
/// for a parameterless body, such as a top-level `|<>` or `|>` body),
/// then every name in `body`. Mutates the
/// body's nodes in place (res/slot annotations). `globals` decides the
/// Global vs Late split for free names — stable because Scope::declare
/// keeps cells on redeclaration.
FrameLayout resolve(const ast::NodePtr& params, const ast::NodePtr& body, const Scope& globals);

}  // namespace congen::interp
