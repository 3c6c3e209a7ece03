// atom.hpp — interned literal values for emitted modules.
//
// A module congenc emits fixes its literals when it is built, so it
// interns each long one here once and every ConstGen for that spelling
// shares one Value. The interpreter does not intern: a chunk owns its
// literals and they die with it, so a long-running daemon keeps no
// tenant's literals after its session ends.
#pragma once

#include <mutex>
#include <string>
#include <unordered_map>

#include "runtime/value.hpp"

namespace congen {

/// The interned string Value for `s`. Thread-safe; the returned Value
/// shares the table's representation. Short strings skip the table
/// entirely: they are stored inline in the Value (SSO), so "interning"
/// them would only add a lock and a lookup to produce the same 16 bytes.
/// The table is never destroyed and its values are immortal, like the
/// builtin registry's: copies anywhere, on any thread or in any
/// session, cost no refcount traffic, and the leaked table keeps the
/// payloads reachable at exit, so leak checkers report nothing.
inline Value atomString(const std::string& s) {
  if (s.size() <= Value::kSsoCapacity) return Value::string(s);
  static std::mutex mu;
  static auto* const table = new std::unordered_map<std::string, Value>();
  std::lock_guard lock(mu);
  auto [it, inserted] = table->try_emplace(s, Value::null());
  if (inserted) {
    it->second = Value::string(s);
    it->second.makeImmortal();
  }
  return it->second;
}

}  // namespace congen
