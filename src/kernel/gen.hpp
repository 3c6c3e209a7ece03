// gen.hpp — the suspendable, failure-driven, restartable iterator kernel.
//
// This is the C++ analogue of the paper's IconIterator (Section V.B): a
// single small interface over which every goal-directed construct is
// composed. It differs from a conventional iterator in three ways:
//
//  * hasNext is failure of next(): a generator produces results until it
//    fails; failure terminates the iteration.
//  * After failure the iterator restarts on the following next() — this
//    is what lets products (e & e') backtrack by re-driving their right
//    operand, and what makes `repeat` and re-activation cheap.
//  * Iteration is *suspendable*: inside a procedure body, `suspend e`
//    produces a result that propagates up through the composed tree as
//    the result of the root's next(); the next call statefully resumes at
//    the suspension point with zero bookkeeping cost (no threads).
//
// Results carry an optional variable reference (Icon reference
// semantics: expressions may yield assignable variables).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "runtime/governor_hooks.hpp"
#include "runtime/value.hpp"
#include "runtime/var.hpp"

namespace congen {

/// One produced result: a value, an optional assignable location, and
/// control flags used to propagate suspend/return/fail out of procedure
/// bodies.
struct Result {
  enum Flags : std::uint8_t {
    kNone = 0,
    kSuspend = 1,  // produced by `suspend e`: propagate to the body root
    kReturn = 2,   // produced by `return e`: propagate, then terminate body
    kFailBody = 4, // produced by `fail`: terminate the body with failure
  };

  Value value;
  VarPtr ref;                 // non-null when the result is a variable
  std::uint8_t flags = kNone;

  Result() = default;
  explicit Result(Value v, VarPtr r = nullptr, std::uint8_t f = kNone)
      : value(std::move(v)), ref(std::move(r)), flags(f) {}

  [[nodiscard]] bool isControl() const noexcept { return flags != kNone; }

  /// Overwrite all three fields. Producers under the out-parameter
  /// protocol must never leave a stale ref/flags from the previous
  /// element in the shared buffer; these make the full overwrite
  /// explicit at each production site.
  void set(Value v) {
    value = std::move(v);
    ref = nullptr;
    flags = kNone;
  }
  void set(Value v, VarPtr r) {
    value = std::move(v);
    ref = std::move(r);
    flags = kNone;
  }
  void set(Value v, VarPtr r, std::uint8_t f) {
    value = std::move(v);
    ref = std::move(r);
    flags = f;
  }
};

/// Loop-control signals. `break` and `next` unwind through the iterator
/// tree as exceptions caught by the innermost loop node (a documented
/// divergence from pure-iterator signalling; invisible at the language
/// level).
struct BreakSignal {};
struct NextSignal {};

class Gen;

/// Monitoring hooks (see kernel/trace.hpp — the paper's future-work
/// "program monitoring" instrumented at the uniform next() protocol).
/// Disabled cost: one relaxed atomic load per next().
namespace trace {
extern std::atomic<bool> g_enabled;
inline bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }
int enter(const Gen& node);
void produced(const Gen& node, const Value& v, int depth);
void failed(const Gen& node, int depth);
}  // namespace trace

/// Base class of every kernel node.
///
/// Subclasses implement doNext()/doRestart(); the base supplies the
/// restart-after-failure protocol the paper's IconIterator defines.
class Gen {
 public:
  virtual ~Gen() = default;
  Gen(const Gen&) = delete;
  Gen& operator=(const Gen&) = delete;

  /// Produce the next result into `out`, returning false on failure. A
  /// failed generator transparently restarts on the following call.
  ///
  /// This out-parameter form is the primary protocol: delegation chains
  /// (a suspend propagating through nested loops, a product yielding its
  /// right operand's results) hand the *same* Result buffer down the
  /// tree, so propagation costs no optional/Value moves per level.
  bool next(Result& out) {
    if (failed_) {
      doRestart();
      failed_ = false;
    }
    // One fuel step per resumption on the kernel spine; the VM charges
    // the same budget in dispatch batches (interp/vm.cpp syncFuel), so
    // both execution paths drain one unified fuel counter.
    governor::onStep();
    if (trace::enabled()) [[unlikely]] {
      const int depth = trace::enter(*this);
      const bool ok = doNext(out);
      if (!ok) {
        failed_ = true;
        trace::failed(*this, depth);
      } else {
        trace::produced(*this, out.value, depth);
      }
      return ok;
    }
    if (!doNext(out)) {
      failed_ = true;
      return false;
    }
    return true;
  }

  /// Convenience wrapper for host callers and tests.
  std::optional<Result> next() {
    std::optional<Result> r(std::in_place);
    if (!next(*r)) r.reset();
    return r;
  }

  /// Reset to the beginning state.
  void restart() {
    doRestart();
    failed_ = false;
  }

  /// Convenience: next result's value, dropping the variable reference.
  std::optional<Value> nextValue() {
    Result r;
    if (!next(r)) return std::nullopt;
    return std::move(r.value);
  }

  /// Drive to failure, returning the last produced value (if any).
  std::optional<Value> last() {
    std::optional<Value> out;
    Result r;
    while (next(r)) out = std::move(r.value);
    return out;
  }

  /// Drive to failure, collecting every produced value.
  std::vector<Value> collect() {
    std::vector<Value> out;
    Result r;
    while (next(r)) out.push_back(std::move(r.value));
    return out;
  }

 protected:
  Gen() = default;
  /// Produce into `out` (true) or fail (false). Implementations must
  /// overwrite value, ref, AND flags on success — `out` is a reused
  /// buffer (see Result::set).
  virtual bool doNext(Result& out) = 0;
  virtual void doRestart() = 0;

 private:
  bool failed_ = false;
};

/// Factory signature used wherever a node must be able to re-create a
/// sub-generator from scratch (co-expression refresh, pipes, repeats).
using GenFactory = std::function<GenPtr()>;

}  // namespace congen
