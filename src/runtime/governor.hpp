// governor.hpp — per-interpreter resource quotas, runaway containment,
// and graceful degradation.
//
// ROADMAP item 3 (congen-serve: isolated interpreters with per-tenant
// quotas) needs the runtime — not convention — to enforce a session's
// resource envelope: every `|>` is a thread, every `|<>` copies an
// environment, and a hostile or buggy script must exhaust *its* budget,
// not the process. The ResourceGovernor holds those hard budgets:
//
//  - heap bytes     charged at the arena's operator-new fall-through and
//                   RcBase payload construction (governor_hooks.hpp),
//                   batched through thread-local reservations;
//  - fuel           a unified evaluation-step counter charged by both
//                   the kernel's next() spine and the VM dispatch loop;
//  - pipes / co-expressions
//                   live-object counts charged at construction (a pipe
//                   also counts as a co-expression: it is one);
//  - pipe depth     a clamp on per-pipe queue capacity (graceful
//                   degradation: oversized requests shrink, no error);
//  - depth          recursion/suspension depth (live procedure
//                   activations per thread: emitted BodyRootGens and
//                   VM callee activations).
//
// Exhaustion raises a *catchable* typed Icon error (the 81x
// errQuotaExceeded family in error.hpp) from the shared kernel nodes,
// so the VM and emitted code trip identically and `&error`
// conversion applies as for any run-time error.
//
// Containment beyond quotas: every governor owns a StopSource. Pipes
// created during governed drives link under it (via the ambient
// CancelScope the interpreter installs), so the Supervisor watchdog can
// escalate an unresponsive session — soft-cancel at the soft deadline,
// then diagnostics + terminate() at the hard one. terminate() flips the
// process-wide fuel flag, so every thread still driving the session
// throws errSessionTerminated at its next charge point: a cooperative
// hard teardown that unwinds through destructors and keeps the queue
// conservation invariants exact.
//
// A process-level Admission gate sheds new governed sessions with a
// typed refusal (815) once aggregate committed budgets are reached.
//
// Accounting identity is thread-local (ScopedGovernor installs a
// governor for the current thread; pipe producers capture and reinstall
// the creator's). All hot-path charges batch through thread-local
// pending counters, so a budget can be overrun by at most one batch per
// thread before it trips — documented in INTERNALS §15.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "concur/cancel.hpp"
#include "runtime/governor_hooks.hpp"

namespace congen::governor {

/// Hard budgets; 0 = unlimited.
struct Limits {
  std::uint64_t maxHeapBytes = 0;  ///< live bytes reserved from the system
  std::uint64_t maxFuel = 0;       ///< evaluation steps (kernel next() / VM dispatches)
  std::uint64_t maxPipes = 0;      ///< live |> pipes
  std::uint64_t maxCoexprs = 0;    ///< live co-expressions (pipes included)
  std::uint64_t maxPipeDepth = 0;  ///< clamp on per-pipe queue capacity
  std::uint64_t maxDepth = 0;      ///< live procedure-body activations per thread

  [[nodiscard]] bool any() const noexcept {
    return maxHeapBytes != 0 || maxFuel != 0 || maxPipes != 0 || maxCoexprs != 0 ||
           maxPipeDepth != 0 || maxDepth != 0;
  }
};

/// Budget selector for setLimit() / the setquota() builtin.
enum class Budget : std::uint8_t { Fuel, Heap, Pipes, Coexprs, PipeDepth, Depth };

/// Point-in-time accounting snapshot (quota() builtin, obs collector).
struct Usage {
  std::uint64_t fuelSpent = 0;     ///< steps charged while fuel governance was active
  std::uint64_t heapReserved = 0;  ///< live bytes currently charged
  std::uint64_t livePipes = 0;
  std::uint64_t liveCoexprs = 0;
  std::uint64_t quotaTrips = 0;    ///< errQuotaExceeded raises from this governor
};

class ResourceGovernor : public std::enable_shared_from_this<ResourceGovernor> {
 public:
  /// Create and register a governor. Passes the process Admission gate
  /// first — throws errAdmissionRefused (815) when aggregate committed
  /// budgets are exhausted (the "shed" path).
  [[nodiscard]] static std::shared_ptr<ResourceGovernor> create(const Limits& limits);
  ~ResourceGovernor();
  ResourceGovernor(const ResourceGovernor&) = delete;
  ResourceGovernor& operator=(const ResourceGovernor&) = delete;

  [[nodiscard]] Limits limits() const;
  /// HOST-side budget update (embedder code, tests, congen-run): moves
  /// the host baseline and the effective limit together, unrestricted.
  /// Setting Fuel also restarts the fuel accounting epoch (spent resets
  /// to 0) — a fresh budget, not the remainder of an old one. Live
  /// counts (heap/pipes/coexprs) are NOT reset — their credits must
  /// balance.
  void setLimit(Budget budget, std::uint64_t value);
  /// SCRIPT-side budget update (the setquota() builtin). A session can
  /// tighten its containment, never loosen it: the request combines
  /// with the host baseline — 0 restores the host value (which is
  /// "unlimited" only when the host never set one, e.g. the lazily
  /// created thread-default governor), anything else clamps to it. The
  /// fuel epoch restarts only when the fuel budget is script-owned
  /// (host baseline 0); under a host fuel limit neither the limit nor
  /// the spent counter can be refreshed from inside the session.
  /// Returns the effective limit after the update.
  std::uint64_t setScriptLimit(Budget budget, std::uint64_t value);

  [[nodiscard]] Usage usage() const noexcept;
  [[nodiscard]] bool terminated() const noexcept {
    return terminated_.load(std::memory_order_relaxed);
  }

  /// Bulk fuel charge (the VM's dispatch-batch sync; kernel next() steps
  /// go through the thread-local batcher in governor.cpp). Throws 810 when
  /// the budget is exhausted, 816 when the session was terminated.
  void chargeSteps(std::uint64_t n);

  /// Signed heap adjustment of `delta` net bytes, of which `newBytes`
  /// belong to an allocation that has NOT happened yet — on a trip those
  /// are backed out (the allocation is abandoned by the throw) while the
  /// rest stays charged. Credits clamp at zero.
  void adjustHeap(std::int64_t delta, std::uint64_t newBytes);

  void chargeCoexpr();           // throws 812
  void creditCoexpr() noexcept;
  void chargePipe();             // throws 812 (message says pipes)
  void creditPipe() noexcept;
  [[nodiscard]] std::size_t clampPipeCapacity(std::size_t capacity) const noexcept;
  [[nodiscard]] std::uint64_t depthLimit() const noexcept {
    return depthLimit_.load(std::memory_order_relaxed);
  }

  /// The session's cancellation root. The interpreter makes it ambient
  /// during governed drives so pipes created by the session link under
  /// it; requestSoftStop() is the Supervisor's first escalation rung.
  [[nodiscard]] CancelToken stopToken() const noexcept { return source_.token(); }
  void requestSoftStop() noexcept;

  /// Hard teardown: marks the session terminated and flips the global
  /// fuel flag so every thread still evaluating under this governor
  /// throws errSessionTerminated (816) at its next charge point. Also
  /// requests stop, unblocking producers parked in queue waits.
  void terminate() noexcept;

 private:
  explicit ResourceGovernor(const Limits& limits);
  void noteTrip() noexcept;
  [[noreturn]] void throwTerminated();

  friend void detail::chargeStepSlow();
  friend void detail::chargeHeapSlow(std::size_t);
  friend void detail::creditHeapSlow(std::size_t) noexcept;
  friend void detail::enterDepthSlow();
  friend class CoexprCharge;
  friend class PipeCharge;

  [[nodiscard]] std::atomic<std::uint64_t>& limitCell(Budget budget) noexcept;

  // What create() passed the Admission gate; the destructor releases
  // exactly this, however the limits moved afterwards.
  const Limits admitted_;
  // The host baseline: what create()/setLimit() imposed, the ceiling a
  // script-side setScriptLimit() can never exceed. Guarded by limitMu_
  // (limit updates are cold; charge paths never read it).
  mutable std::mutex limitMu_;
  Limits hostLimits_;

  // Effective limits are lock-free reads on charge paths (setquota may
  // race a running script; relaxed is fine — a charge sees the old or
  // the new limit, both valid).
  std::atomic<std::uint64_t> fuelLimit_;
  std::atomic<std::uint64_t> heapLimit_;
  std::atomic<std::uint64_t> pipeLimit_;
  std::atomic<std::uint64_t> coexprLimit_;
  std::atomic<std::uint64_t> pipeDepthLimit_;
  std::atomic<std::uint64_t> depthLimit_;

  std::atomic<std::uint64_t> fuelSpent_{0};
  std::atomic<std::int64_t> heapReserved_{0};
  std::atomic<std::uint64_t> livePipes_{0};
  std::atomic<std::uint64_t> liveCoexprs_{0};
  std::atomic<std::uint64_t> quotaTrips_{0};
  std::atomic<bool> terminated_{false};

  StopSource source_;
};

/// Install `gov` as the current thread's governor for a scope (the
/// interpreter's root drives, a pipe's producer task). Flushes the
/// thread's pending fuel/heap batches across the switch so charges land
/// on the governor that incurred them; restores the previous governor
/// (and its batches) on destruction.
class ScopedGovernor {
 public:
  explicit ScopedGovernor(std::shared_ptr<ResourceGovernor> gov);
  ~ScopedGovernor();
  ScopedGovernor(const ScopedGovernor&) = delete;
  ScopedGovernor& operator=(const ScopedGovernor&) = delete;

 private:
  std::shared_ptr<ResourceGovernor> prev_;
  bool installed_ = false;
};

/// The current thread's governor (nullptr when ungoverned).
[[nodiscard]] ResourceGovernor* current() noexcept;
[[nodiscard]] std::shared_ptr<ResourceGovernor> currentShared() noexcept;

/// The current governor, or — for code running outside any Interpreter,
/// e.g. an emitted module's main — a lazily-created, limitless governor
/// owned by this thread. setquota() uses this so quotas work identically
/// for interpreted and emitted code.
[[nodiscard]] std::shared_ptr<ResourceGovernor> currentOrThreadDefault();

/// Cooperative watchdog: a background thread that escalates watched
/// sessions through the StopSource cascade. At `soft` past the watch
/// start it calls requestSoftStop(); at `hard` it runs the diagnostics
/// callback (congen-run passes Pipe::dumpAll + a metrics snapshot — the
/// governor layer cannot name concur types) and then terminate()s the
/// session. A session that finishes first destroys its Watch handle and
/// is never escalated.
class Supervisor {
 public:
  class Watch {
   public:
    Watch() = default;
    Watch(Watch&& o) noexcept : id_(o.id_) { o.id_ = 0; }
    Watch& operator=(Watch&& o) noexcept;
    ~Watch() { cancel(); }
    Watch(const Watch&) = delete;
    Watch& operator=(const Watch&) = delete;
    /// Unwatch without waiting for the deadline (idempotent). If a
    /// deadline fired concurrently, blocks until the in-flight
    /// escalation (soft stop, or diagnostics + terminate) completes —
    /// after cancel() returns, no supervisor code can still touch the
    /// session. (Called from the supervisor's own diagnostics callback
    /// it does not wait, to stay deadlock-free.)
    void cancel() noexcept;

   private:
    friend class Supervisor;
    explicit Watch(std::uint64_t id) : id_(id) {}
    std::uint64_t id_ = 0;
  };

  static Supervisor& global();

  [[nodiscard]] Watch watch(std::shared_ptr<ResourceGovernor> gov,
                            std::chrono::milliseconds soft, std::chrono::milliseconds hard,
                            std::function<void()> diagnostics = {});

  /// Counters for tests/obs: escalations performed since process start.
  [[nodiscard]] std::uint64_t softStopsIssued() const noexcept;
  [[nodiscard]] std::uint64_t hardTeardownsIssued() const noexcept;

 private:
  Supervisor() = default;
};

/// Process-level admission gate: once the aggregate committed budgets of
/// live governed sessions reach the configured ceiling, new governor
/// creation is shed with errAdmissionRefused (815) instead of degrading
/// every existing session. Unlimited (maxSessions == 0 &&
/// maxCommittedHeapBytes == 0) by default. A governor with no heap
/// limit commits no heap; every governor counts as one session.
class Admission {
 public:
  struct Config {
    std::uint64_t maxSessions = 0;           ///< 0 = unlimited
    std::uint64_t maxCommittedHeapBytes = 0; ///< sum of admitted maxHeapBytes
  };

  static Admission& global();

  void configure(const Config& config);
  [[nodiscard]] Config config() const;
  [[nodiscard]] std::uint64_t liveSessions() const noexcept;
  [[nodiscard]] std::uint64_t committedHeapBytes() const noexcept;
  [[nodiscard]] std::uint64_t sheds() const noexcept;

 private:
  friend class ResourceGovernor;
  Admission() = default;
  void admit(const Limits& limits);           // throws 815
  void release(const Limits& limits) noexcept;

  mutable std::mutex mu_;
  Config config_;
  std::uint64_t liveSessions_ = 0;
  std::uint64_t committedHeap_ = 0;
  std::atomic<std::uint64_t> sheds_{0};
};

}  // namespace congen::governor
