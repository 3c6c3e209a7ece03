#include "interp/interpreter.hpp"

#include <optional>

#include "builtins/builtins.hpp"
#include "concur/cancel.hpp"
#include "frontend/parser.hpp"
#include "interp/compiler.hpp"
#include "interp/vm.hpp"
#include "kernel/basic.hpp"
#include "obs/runtime_stats.hpp"
#include "runtime/error.hpp"
#include "runtime/record.hpp"
#include "transform/normalize.hpp"

namespace congen::interp {

using ast::Kind;
using ast::NodePtr;

Backend defaultBackend() { return Backend::kVm; }

// ---------------------------------------------------------------------
// Interpreter
// ---------------------------------------------------------------------

namespace {

/// Resolve Options::quotas into a governor, or null for an ungoverned
/// interpreter. Runs the admission gate — may throw IconError 815 (the
/// shed path).
std::shared_ptr<governor::ResourceGovernor> makeGovernor(const Interpreter::Options& options) {
  if (!options.quotas.any() && !options.governed) return nullptr;
  return governor::ResourceGovernor::create(options.quotas);
}

/// Root wrapper for every drive of a governed interpreter: each next()
/// runs with the interpreter's governor installed on the driving thread
/// and the governor's stop token ambient, so pipes created during the
/// drive link under the session's cancellation root. Destruction of the
/// wrapped tree also happens governed, so payload frees credit the heap
/// budget they were charged to.
class GovernedRootGen final : public Gen {
 public:
  GovernedRootGen(GenPtr inner, std::shared_ptr<governor::ResourceGovernor> gov)
      : inner_(std::move(inner)), gov_(std::move(gov)) {}

  ~GovernedRootGen() override {
    governor::ScopedGovernor governed(gov_);
    inner_.reset();
  }

  static GenPtr wrap(GenPtr inner, const std::shared_ptr<governor::ResourceGovernor>& gov) {
    if (gov == nullptr) return inner;
    return std::make_shared<GovernedRootGen>(std::move(inner), gov);
  }

 protected:
  bool doNext(Result& out) override {
    governor::ScopedGovernor governed(gov_);
    CancelScope scope(gov_->stopToken());
    return inner_->next(out);
  }
  void doRestart() override { inner_->restart(); }

 private:
  GenPtr inner_;
  std::shared_ptr<governor::ResourceGovernor> gov_;
};

}  // namespace

Interpreter::Interpreter(Options options)
    : options_(std::move(options)), governor_(makeGovernor(options_)),
      globals_(Scope::makeGlobal()) {}

Interpreter::~Interpreter() {
  // A value stored in a global can reach that global's cell again: a
  // compiled chunk holds the global cells it loads, so a recursive
  // procedure, or a pipe whose body names the global it is stored in,
  // is a cycle that is never destroyed — and an undestroyed pipe never
  // closes its queue, leaving its producer blocked in put() for the
  // global pool's destructor to join at process exit (deadlock).
  // Clearing the bindings breaks the cycle: the pipe's destructor closes
  // the queue and the producer retires. Teardown runs governed so the
  // session's heap credits land on its own budget.
  std::optional<governor::ScopedGovernor> governed;
  if (governor_ != nullptr) governed.emplace(governor_);
  globals_->clear();
}

void Interpreter::load(const std::string& source) {
  loadProgram(frontend::parseProgram(source));
}

void Interpreter::loadProgram(const ast::NodePtr& program) {
  if (obs::metricsEnabled()) [[unlikely]] obs::KernelStats::get().interpLoads.add(1);
  ast::NodePtr prog = options_.normalize ? transform::normalizeProgram(program) : program;
  // Top-level statements are a drive: run them governed, with the
  // session's stop token ambient (mirrors GovernedRootGen).
  std::optional<governor::ScopedGovernor> governed;
  std::optional<CancelScope> scope;
  if (governor_ != nullptr) {
    governed.emplace(governor_);
    scope.emplace(governor_->stopToken());
  }
  for (const auto& item : prog->kids) {
    if (item->kind == Kind::Def) {
      globals_->declare(item->text, Value::proc(makeProcedure(item)));
    } else {
      // Top-level statements run immediately, bounded, like Icon's
      // outermost level of iteration.
      vm::ChunkCompiler cc(*this);
      vm::VmGen::create(*this, cc.compileStmt(item), nullptr)->next();
    }
  }
}

GenPtr Interpreter::eval(const std::string& source) {
  if (obs::metricsEnabled()) [[unlikely]] obs::KernelStats::get().interpEvals.add(1);
  ast::NodePtr tree = frontend::parseExpression(source);
  if (options_.normalize) {
    transform::TempNames names;
    tree = transform::normalize(tree, names);
  }
  vm::ChunkCompiler cc(*this);
  return GovernedRootGen::wrap(vm::VmGen::create(*this, cc.compileExpr(tree), nullptr), governor_);
}

std::vector<Value> Interpreter::evalAll(const std::string& source) {
  return eval(source)->collect();
}

std::optional<Value> Interpreter::evalOne(const std::string& source) {
  return eval(source)->nextValue();
}

GenPtr Interpreter::call(const std::string& name, std::vector<Value> args) {
  auto var = globals_->lookup(name);
  Value f = var ? var->get() : Value::null();
  if (!f.isProc()) {
    if (const Value* builtin = builtins::lookupConst(name)) {
      f = *builtin;
    } else {
      throw errCallableExpected(name);
    }
  }
  return GovernedRootGen::wrap(f.proc()->invoke(std::move(args)), governor_);
}

void Interpreter::registerNative(const std::string& name, ProcPtr proc) {
  globals_->declare(name, Value::proc(std::move(proc)));
}

void Interpreter::defineGlobal(const std::string& name, Value v) {
  globals_->declare(name, std::move(v));
}

std::optional<Value> Interpreter::global(const std::string& name) const {
  auto var = globals_->lookup(name);
  if (!var) return std::nullopt;
  return var->get();
}

/// A procedure value over compile-once code (vm::ProcCode). VM code of
/// this interpreter calls it on its own machine (the ProcImpl code
/// hook: no closure, no generator). The closure serves every other
/// caller — the host, another interpreter, a kernel node: each call is a
/// machine of its own that calls the procedure as VM code would
/// (VmGen::call). Parameters are variadic: missing args are &null,
/// extras ignored (Unicon convention).
ProcPtr Interpreter::makeProcedure(const ast::NodePtr& def) {
  auto code = std::make_shared<vm::ProcCode>(*this, def->text, def->kids[0], def->kids[1]);
  auto proc = ProcImpl::create(def->text, [code](std::vector<Value> args) -> GenPtr {
    return vm::VmGen::call(code->interp, Value::proc(ProcPtr(code->proc)), std::move(args));
  });
  code->proc = proc.get();
  proc->setCode(this, code.get());
  return proc;
}

ProcPtr Interpreter::makeRecordConstructor(const ast::NodePtr& decl) {
  std::vector<std::string> fields;
  fields.reserve(decl->kids.size());
  for (const auto& f : decl->kids) fields.push_back(f->text);
  auto type = RecordType::create(decl->text, std::move(fields));
  return ProcImpl::create(decl->text, [type](std::vector<Value> args) -> GenPtr {
    return ConstGen::create(Value::record(RecordImpl::create(type, std::move(args))));
  });
}

}  // namespace congen::interp
