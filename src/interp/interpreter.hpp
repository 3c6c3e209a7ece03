// interpreter.hpp — interactive evaluation of the Junicon dialect.
//
// The interactive path of the paper's harness (Section VI): where the
// Java backend *emits* source, the interpreter compiles the (normalized)
// AST to bytecode chunks (interp/compiler.hpp) and runs them on the
// resumable stack machine (interp/vm.hpp), which hands the constructs it
// does not flatten to the same kernel nodes emitted code builds. Host
// C++ functions are registered as natives and reached via the :: cut-
// through, giving the mixed-language story without a compile step.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "frontend/ast.hpp"
#include "interp/scope.hpp"
#include "kernel/gen.hpp"
#include "runtime/governor.hpp"
#include "runtime/proc.hpp"

namespace congen {
class ThreadPool;
}

namespace congen::interp {

/// The interpreter has one execution engine, the bytecode VM. This
/// single-value enum and defaultBackend() remain only because the
/// benchmark driver (perfbench/driver/main.cpp) still prints them; they
/// go when the benchmark next changes.
enum class Backend : std::uint8_t { kVm };
[[nodiscard]] Backend defaultBackend();

class Interpreter {
 public:
  struct Options {
    /// Run the Section V.A flattening pass first. The VM relies on it
    /// for Icon's deferred argument dereferencing: unnormalized,
    /// `r(x, x := e)` passes the *new* x, so Fig. 4's mapReduce
    /// (`every x := r(x, f(!c))`) returns chunk sums 9 36 81 100, not
    /// 14 77 194 100.
    bool normalize = true;
    /// Hard resource budgets (0 = unlimited). Any non-zero budget gives
    /// this interpreter a ResourceGovernor: the process admission gate
    /// runs at construction (throws IconError 815 when shedding), and
    /// every drive — top-level statements, eval'd generators, call() —
    /// runs governed, on whichever thread it happens (pipe producers
    /// re-install the creator's governor). Exhaustion raises the
    /// catchable 81x errQuotaExceeded family.
    governor::Limits quotas;
    /// Create a (limitless) governor even when quotas are all-zero, so
    /// the session has a StopSource root and can be supervised
    /// (congen-run --supervise without --max-*).
    bool governed = false;
  };

  Interpreter() : Interpreter(Options{}) {}
  explicit Interpreter(Options options);
  ~Interpreter();

  /// Parse and load a program: procedure definitions become globals; any
  /// top-level statements execute immediately (bounded).
  void load(const std::string& source);

  /// Load a pre-parsed program.
  void loadProgram(const ast::NodePtr& program);

  /// Parse an expression and return its generator over the global scope.
  [[nodiscard]] GenPtr eval(const std::string& source);

  /// Evaluate and collect every result value.
  std::vector<Value> evalAll(const std::string& source);

  /// First result of an expression (nullopt = failure).
  std::optional<Value> evalOne(const std::string& source);

  /// Call a loaded procedure by name.
  [[nodiscard]] GenPtr call(const std::string& name, std::vector<Value> args);

  /// Register a host-side function, reachable both as a plain name and
  /// through the :: native cut-through.
  void registerNative(const std::string& name, ProcPtr proc);
  /// Bind a global value (e.g. the host's data for the embedded region).
  void defineGlobal(const std::string& name, Value v);
  [[nodiscard]] std::optional<Value> global(const std::string& name) const;

  /// Build a procedure value from a Def node (the chunk compiler uses
  /// this for nested definitions).
  [[nodiscard]] ProcPtr makeProcedure(const ast::NodePtr& def);

  /// `record name(f1, ..., fn)` constructor procedure.
  [[nodiscard]] static ProcPtr makeRecordConstructor(const ast::NodePtr& decl);

  [[nodiscard]] const ScopePtr& globalScope() const noexcept { return globals_; }
  [[nodiscard]] const Options& options() const noexcept { return options_; }

  /// This interpreter's resource governor — null when Options::quotas is
  /// all-zero (an ungoverned interpreter pays no governance cost at
  /// all). congen-run hands it to the Supervisor for --supervise.
  [[nodiscard]] const std::shared_ptr<governor::ResourceGovernor>& resourceGovernor()
      const noexcept {
    return governor_;
  }

 private:
  Options options_;
  std::shared_ptr<governor::ResourceGovernor> governor_;
  ScopePtr globals_;
};

}  // namespace congen::interp
