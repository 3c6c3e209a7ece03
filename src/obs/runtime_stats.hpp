// runtime_stats.hpp — the runtime's named metric handles.
//
// One struct per instrumented subsystem, each a bundle of references
// resolved against Registry::global() exactly once (thread-safe static
// local in get()). Instrumentation sites capture `metricsEnabled()` once
// per operation and, when true, update through these handles — so the
// disabled path costs one relaxed load and the enabled path costs
// striped relaxed fetch_adds, never a name hash.
//
// Conservation contract (checked at stress-suite teardown, see
// tests/stress/conservation_env.cpp): with metrics enabled for the whole
// life of every queue,
//
//   put.batch_elements == take.batch_elements + depth + dropped_on_close
//
// and put.batch_size histogram sum == put.batch_elements. SpscRing
// updates these counters lock-free from its owning sides; every
// transferred element is counted exactly once, so the identities hold
// exactly at quiescence — the stress Environment polls teardown until
// they settle.
#pragma once

#include "obs/metrics.hpp"

namespace congen::obs {

/// SpscRing<T> (every pipe's channel) — aggregated over every
/// instantiation and instance.
struct QueueStats {
  Counter& putBatches;        ///< bulk publications (one per putAll flush)
  Counter& putBatchElements;  ///< elements moved by bulk publications
  Counter& takeBatches;       ///< bulk drains (one per takeUpTo)
  Counter& takeBatchElements; ///< elements moved by bulk drains
  Counter& droppedOnClose;    ///< elements still queued at queue destruction
  Gauge& depth;               ///< live elements across all queues
  Histogram& putBatchSize;    ///< elements per bulk publication
  Histogram& blockedPutMicros;   ///< producer time blocked waiting for space
  Histogram& blockedTakeMicros;  ///< consumer time blocked waiting for data
  static QueueStats& get();
};

/// Pipe — the multithreaded generator proxy.
struct PipeStats {
  Counter& created;        ///< pipes constructed
  Gauge& live;             ///< pipes currently alive
  Counter& activations;    ///< results delivered to consumers
  Counter& batchesFlushed; ///< producer-side bulk flushes
  Counter& cancellations;  ///< cancel() requests
  Counter& errorsStored;   ///< producer errors captured for re-throw
  static PipeStats& get();
};

/// ThreadPool.
struct PoolStats {
  Counter& tasksRun;      ///< tasks completed by workers
  Counter& threadsCreated;
  Gauge& threadsLive;     ///< workers currently running
  Histogram& queueLatencyMicros;  ///< submit() -> dequeue wait
  static PoolStats& get();
};

/// SpscRing<T> — the parking protocol. Transfer counters live in
/// QueueStats; these count rings and their futex parks and wakeups.
struct RingStats {
  Counter& created;        ///< rings constructed
  Counter& producerParks;  ///< producer futex-park episodes (ring full)
  Counter& consumerParks;  ///< consumer futex-park episodes (ring empty)
  Counter& wakes;          ///< cross-side wakeups issued (parked flag seen)
  static RingStats& get();
};

/// DataParallel / Pipeline.
struct ParStats {
  Counter& chunks;       ///< chunks produced by ChunkGen
  Counter& stages;       ///< pipeline stage pipes constructed
  static ParStats& get();
};

/// Interpreter / kernel allocation machinery.
struct KernelStats {
  // The arena counters are fed by a snapshot-time collector from the
  // arena's branch-free per-thread tallies (see kernel/arena.hpp) — they
  // advance at Registry::snapshot(), not at the allocation site, and
  // count regardless of the metrics flag.
  Counter& arenaHits;       ///< arena allocations served from a thread bin
  Counter& arenaMisses;     ///< arena allocations that fell through to new
  Counter& arenaReturns;    ///< deallocations parked back into a bin
  Counter& interpEvals;     ///< Interpreter::eval() calls
  Counter& interpLoads;     ///< Interpreter::load()/loadProgram() calls
  static KernelStats& get();
};

/// ResourceGovernor (runtime/governor.hpp) — totals across live and
/// retired governors, bridged by a snapshot-time collector registered in
/// governor.cpp (the same pull pattern as the arena tallies: charge
/// paths update governor-local atomics, never these handles).
struct GovernorStats {
  Counter& fuelSpent;    ///< evaluation steps charged under fuel governance
  Gauge& heapReserved;   ///< live heap bytes charged across governors
  Counter& quotaTrips;   ///< errQuotaExceeded raises (all budgets)
  Counter& sheds;        ///< admission-gate refusals (errAdmissionRefused)
  static GovernorStats& get();
};

/// Bytecode VM backend (interp/vm.hpp).
struct VmStats {
  Counter& dispatches;    ///< instructions dispatched
  Counter& icacheHits;    ///< kLoadLate inline-cache hits
  Counter& icacheMisses;  ///< kLoadLate full re-checks (cold or stale)
  static VmStats& get();
};

/// congen-serve — the multi-tenant script-execution daemon
/// (src/serve/server.hpp). Request latency is measured from complete
/// frame decode to the last response byte handed to the kernel.
struct ServeStats {
  Counter& connectionsAccepted;  ///< sockets accepted (incl. HTTP probes)
  Counter& acceptFailures;       ///< accept() throws survived (EMFILE kin)
  Gauge& sessionsActive;         ///< sessions currently open
  Counter& sessionsOpened;       ///< protocol sessions begun (post-hello)
  Counter& sessionsShed;         ///< admission refusals answered with 815
  Counter& sessionsTerminated;   ///< supervisor hard teardowns (816 path)
  Counter& requests;             ///< complete request frames processed
  Counter& sessionReads;         ///< request frames a session task read itself
  Counter& resultsStreamed;      ///< values delivered in NEXT responses
  Counter& protocolErrors;       ///< 9xx responses (bad frame/verb/state)
  Counter& disconnects;          ///< sessions torn down by peer hangup
  Counter& httpRequests;         ///< /metrics, /metrics.json, /healthz hits
  Counter& bytesRead;            ///< request bytes off the wire
  Counter& bytesWritten;         ///< response bytes onto the wire
  Histogram& requestLatencyMicros;
  static ServeStats& get();
};

}  // namespace congen::obs
