#include "runtime/rc.hpp"

#include <vector>

namespace congen {

namespace {

/// Deletes that may nest on one thread before releases start queueing:
/// small structures still tear down directly (no worklist, no
/// allocation), and the recursion stays a few kilobytes of any stack.
constexpr unsigned kMaxNestedDeletes = 64;

// Plain values so the thread_locals have no destructor: destructors that
// run at thread exit release Values too.
thread_local unsigned tlsNestedDeletes = 0;
/// The worklist of the draining call on this thread, or null.
thread_local std::vector<RcBase*>* tlsDeferred = nullptr;

/// A release at the nesting limit. The first one installs the worklist
/// and deletes everything queued on it in a loop, at that one depth, so
/// a long chain (l := [l] a million times) costs a bounded number of
/// stack frames, not one per link; releases during the loop only queue.
/// The frees stay on this thread, so heap credit goes to the same
/// governor as a recursive teardown would. Kept out of line so the
/// common path through destroyRc saves no registers and builds no
/// worklist: one combined function measured several percent slower on
/// the search workload.
[[gnu::noinline]] void destroyDeep(RcBase* p) noexcept {
  if (tlsDeferred != nullptr) {
    try {
      tlsDeferred->push_back(p);
      return;
    } catch (...) {
      delete p;  // could not queue: fall back to a nested delete
      return;
    }
  }
  std::vector<RcBase*> deferred;
  tlsDeferred = &deferred;
  delete p;
  while (!deferred.empty()) {
    RcBase* next = deferred.back();
    deferred.pop_back();
    delete next;
  }
  tlsDeferred = nullptr;
}

}  // namespace

void destroyRc(RcBase* p) noexcept {
  if (tlsNestedDeletes < kMaxNestedDeletes) [[likely]] {
    ++tlsNestedDeletes;
    delete p;
    --tlsNestedDeletes;
    return;
  }
  destroyDeep(p);
}

}  // namespace congen
