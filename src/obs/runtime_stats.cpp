#include "obs/runtime_stats.hpp"

namespace congen::obs {

QueueStats& QueueStats::get() {
  auto& r = Registry::global();
  static QueueStats* s = new QueueStats{
      r.counter("queue.put.batches"),
      r.counter("queue.put.batch_elements"),
      r.counter("queue.take.batches"),
      r.counter("queue.take.batch_elements"),
      r.counter("queue.dropped_on_close"),
      r.gauge("queue.depth"),
      r.histogram("queue.put.batch_size", sizeBounds()),
      r.histogram("queue.blocked.put_micros", latencyBoundsMicros()),
      r.histogram("queue.blocked.take_micros", latencyBoundsMicros()),
  };
  return *s;
}

PipeStats& PipeStats::get() {
  auto& r = Registry::global();
  static PipeStats* s = new PipeStats{
      r.counter("pipe.created"),
      r.gauge("pipe.live"),
      r.counter("pipe.activations"),
      r.counter("pipe.batches_flushed"),
      r.counter("pipe.cancellations"),
      r.counter("pipe.errors_stored"),
  };
  return *s;
}

PoolStats& PoolStats::get() {
  auto& r = Registry::global();
  static PoolStats* s = new PoolStats{
      r.counter("pool.tasks_run"),
      r.counter("pool.threads_created"),
      r.gauge("pool.threads_live"),
      r.histogram("pool.queue_latency_micros", latencyBoundsMicros()),
  };
  return *s;
}

RingStats& RingStats::get() {
  auto& r = Registry::global();
  static RingStats* s = new RingStats{
      r.counter("ring.created"),
      r.counter("ring.producer_parks"),
      r.counter("ring.consumer_parks"),
      r.counter("ring.wakes"),
  };
  return *s;
}

ParStats& ParStats::get() {
  auto& r = Registry::global();
  static ParStats* s = new ParStats{
      r.counter("par.chunks"),
      r.counter("par.stages"),
  };
  return *s;
}

KernelStats& KernelStats::get() {
  auto& r = Registry::global();
  static KernelStats* s = new KernelStats{
      r.counter("kernel.arena.hits"),
      r.counter("kernel.arena.misses"),
      r.counter("kernel.arena.returns"),
      r.counter("interp.evals"),
      r.counter("interp.loads"),
  };
  return *s;
}

GovernorStats& GovernorStats::get() {
  auto& r = Registry::global();
  static GovernorStats* s = new GovernorStats{
      r.counter("governor.fuel_spent"),
      r.gauge("governor.heap_reserved"),
      r.counter("governor.quota_trips"),
      r.counter("governor.sheds"),
  };
  return *s;
}

VmStats& VmStats::get() {
  auto& r = Registry::global();
  static VmStats* s = new VmStats{
      r.counter("vm.dispatches"),
      r.counter("vm.icache_hits"),
      r.counter("vm.icache_misses"),
  };
  return *s;
}

ServeStats& ServeStats::get() {
  auto& r = Registry::global();
  static ServeStats* s = new ServeStats{
      r.counter("serve.connections_accepted"),
      r.counter("serve.accept_failures"),
      r.gauge("serve.sessions_active"),
      r.counter("serve.sessions_opened"),
      r.counter("serve.sessions_shed"),
      r.counter("serve.sessions_terminated"),
      r.counter("serve.requests"),
      r.counter("serve.session_reads"),
      r.counter("serve.results_streamed"),
      r.counter("serve.protocol_errors"),
      r.counter("serve.disconnects"),
      r.counter("serve.http_requests"),
      r.counter("serve.bytes_read"),
      r.counter("serve.bytes_written"),
      r.histogram("serve.request_latency_micros", latencyBoundsMicros()),
  };
  return *s;
}

}  // namespace congen::obs
