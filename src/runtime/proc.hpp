// proc.hpp — procedure values.
//
// Unicon procedures are first-class, variadic, and — crucially — are
// *generator functions*: invocation returns a suspendable iterator over
// the results the body suspends (Section V.C: methods translate to
// "variadic lambda expressions that return an iterator"). ProcImpl is the
// VariadicFunction of the paper.
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "runtime/value.hpp"

namespace congen {

/// A first-class procedure: name + variadic body returning a generator.
class ProcImpl : public RcBase {
 public:
  /// Body signature: args in, suspendable iterator out. Missing arguments
  /// are &null per Unicon's variadic convention (the body pads).
  using Body = std::function<GenPtr(std::vector<Value>)>;

  /// Direct form of a simple (at-most-one-result) native: args in,
  /// value out, nullopt = failure. When present, callers that hold
  /// argument *values* (the bytecode VM) may call this instead of
  /// invoke(), skipping the generator wrapper; it must be semantically
  /// identical to one next() of invoke()'s result.
  using NativeFn = std::function<std::optional<Value>(std::vector<Value>&)>;

  ProcImpl(std::string name, Body body)
      : RcBase(static_cast<std::uint8_t>(TypeTag::Proc)),
        name_(std::move(name)),
        body_(std::move(body)) {}

  static ProcPtr create(std::string name, Body body) {
    return makeRc<ProcImpl>(std::move(name), std::move(body));
  }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Invoke: returns the generator over the call's results.
  [[nodiscard]] GenPtr invoke(std::vector<Value> args) const { return body_(std::move(args)); }

  /// Install / query the direct native form (builtins::makeNative).
  void setNative(NativeFn fn) { native_ = std::move(fn); }
  [[nodiscard]] const NativeFn& nativeFn() const noexcept { return native_; }

  /// An interpreter procedure also exposes its code to the machine of
  /// the interpreter that made it (`owner`), which then calls it without
  /// invoke(): no generator, no closure. `code` lives as long as the
  /// body closure does.
  void setCode(const void* owner, void* code) noexcept {
    codeOwner_ = owner;
    code_ = code;
  }
  [[nodiscard]] const void* codeOwner() const noexcept { return codeOwner_; }
  [[nodiscard]] void* code() const noexcept { return code_; }

 private:
  std::string name_;
  Body body_;
  NativeFn native_;
  const void* codeOwner_ = nullptr;
  void* code_ = nullptr;
};

}  // namespace congen
