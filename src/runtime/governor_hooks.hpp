// governor_hooks.hpp — the resource governor's hot-path charge points.
//
// This header is deliberately tiny and dependency-free (it sits below
// value.hpp/rc.hpp/arena.hpp in the include graph): the kernel's hottest
// code — Gen::next, the arena's operator-new fall-through, RcBase payload
// construction — inlines these hooks, so they must follow the repo-wide
// one-relaxed-load-when-disabled contract. Each hook is a single relaxed
// load of a process-global "is any governor enforcing this budget" flag;
// the [[unlikely]] slow path lives out of line in governor.cpp and does
// the thread-local batching, limit checks, and typed errQuotaExceeded
// throws. See governor.hpp for the ResourceGovernor itself.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace congen::governor {

class ResourceGovernor;

namespace detail {

// Process-global enforcement flags, maintained by the live-governor
// registry (governor.cpp) whenever a governor is created, destroyed,
// reconfigured, or terminated:
//  - g_stepActive:  some governor enforces a fuel limit (or has been
//    terminated by the Supervisor — termination rides the fuel path so
//    every governed thread hits a throw point within one batch).
//  - g_heapActive:  some governor enforces a heap-byte limit.
//  - g_depthActive: some governor enforces a recursion/suspension depth.
//  - g_anyActive:   some governor exists at all (gates the cheap RAII
//    charges on co-expression/pipe construction).
extern std::atomic<bool> g_stepActive;
extern std::atomic<bool> g_heapActive;
extern std::atomic<bool> g_depthActive;
extern std::atomic<bool> g_anyActive;

void chargeStepSlow();                           // may throw IconError 810/816
void chargeHeapSlow(std::size_t bytes);          // may throw IconError 811/816
void creditHeapSlow(std::size_t bytes) noexcept;
void enterDepthSlow();                           // may throw IconError 813/816
void leaveDepthSlow() noexcept;

}  // namespace detail

/// One evaluation step (a Gen::next on the kernel spine; the VM charges
/// dispatches in bulk via ResourceGovernor::chargeSteps). Disabled cost:
/// one relaxed load.
inline void onStep() {
  if (detail::g_stepActive.load(std::memory_order_relaxed)) [[unlikely]] {
    detail::chargeStepSlow();
  }
}

/// True when some governor enforces fuel (the VM uses this to decide
/// whether a dispatch-batch sync must charge).
[[nodiscard]] inline bool stepActive() noexcept {
  return detail::g_stepActive.load(std::memory_order_relaxed);
}

/// Heap bytes requested from / returned to the system allocator. Hooked
/// at the arena's operator-new fall-through and RcBase::operator
/// new/delete — NOT at the arena's bin hit/park fast paths, which stay
/// branch-free (a parked block remains "reserved", matching the
/// governor's heap_reserved semantics). Disabled cost: one relaxed load.
inline void onHeapAlloc(std::size_t bytes) {
  if (detail::g_heapActive.load(std::memory_order_relaxed)) [[unlikely]] {
    detail::chargeHeapSlow(bytes);
  }
}
inline void onHeapFree(std::size_t bytes) noexcept {
  if (detail::g_heapActive.load(std::memory_order_relaxed)) [[unlikely]] {
    detail::creditHeapSlow(bytes);
  }
}

/// True when some governor enforces a depth limit (the VM charges its
/// stackless callee activations through the slow paths directly).
[[nodiscard]] inline bool depthActive() noexcept {
  return detail::g_depthActive.load(std::memory_order_relaxed);
}

/// RAII recursion/suspension-depth charge for BodyRootGen::doNext: one
/// emitted procedure-body activation on the C++ stack per live guard.
/// Counted per thread (each thread has its own stack), charged only
/// while some governor enforces a depth limit.
class DepthGuard {
 public:
  DepthGuard() {
    if (detail::g_depthActive.load(std::memory_order_relaxed)) [[unlikely]] {
      detail::enterDepthSlow();
      armed_ = true;
    }
  }
  ~DepthGuard() {
    if (armed_) [[unlikely]] detail::leaveDepthSlow();
  }
  DepthGuard(const DepthGuard&) = delete;
  DepthGuard& operator=(const DepthGuard&) = delete;

 private:
  bool armed_ = false;
};

/// RAII live-count charge held as a member by CoExpression (and, for the
/// pipe budget, by Pipe). Construction charges the ambient governor's
/// co-expression/pipe budget (throwing errQuotaExceeded on exhaustion,
/// BEFORE the expensive environment copy / producer submit); destruction
/// credits it. The shared_ptr keeps the governor alive as long as the
/// charge is outstanding, so credits from another thread or a later
/// epoch stay safe. Disabled cost: one relaxed load, no refcount op.
class CoexprCharge {
 public:
  CoexprCharge() {
    if (detail::g_anyActive.load(std::memory_order_relaxed)) [[unlikely]] charge();
  }
  ~CoexprCharge() {
    if (gov_) [[unlikely]] credit();
  }
  CoexprCharge(const CoexprCharge&) = delete;
  CoexprCharge& operator=(const CoexprCharge&) = delete;

 private:
  void charge();           // governor.cpp; may throw IconError 812
  void credit() noexcept;  // governor.cpp
  std::shared_ptr<ResourceGovernor> gov_;
};

class PipeCharge {
 public:
  PipeCharge() {
    if (detail::g_anyActive.load(std::memory_order_relaxed)) [[unlikely]] charge();
  }
  ~PipeCharge() {
    if (gov_) [[unlikely]] credit();
  }
  PipeCharge(const PipeCharge&) = delete;
  PipeCharge& operator=(const PipeCharge&) = delete;

 private:
  void charge();           // governor.cpp; may throw IconError 812
  void credit() noexcept;  // governor.cpp
  std::shared_ptr<ResourceGovernor> gov_;
};

}  // namespace congen::governor
