// metrics.hpp — process-wide metrics registry for the concurrent runtime.
//
// The paper's closing future-work item (Section IX) names "program
// monitoring and debugging within a transformational framework" as
// unexplored. kernel/trace.hpp instruments the *control* dimension (the
// uniform next() protocol); this registry instruments the *resource*
// dimension: lock-free counters, gauges, and fixed-bucket histograms
// that every runtime subsystem (queues, pipes, pools, map-reduce, the
// frame pools and node arena) feeds, and that snapshot() renders into a
// coherent, conservation-checkable view.
//
// Cost model (the contract the kernel bench gates enforce):
//  * disabled: ONE relaxed atomic load per instrumented operation —
//    callers capture `metricsEnabled()` once per operation and branch.
//  * enabled: relaxed fetch_add on a striped cache-line-private atomic;
//    no locks anywhere on the update path.
//
// Registration (`Registry::counter("queue.put.batch_elements")`) takes a
// mutex, but handles are resolved once per process (static locals in
// runtime_stats.hpp) — never per operation. snapshot() only reads
// relaxed atomics, so it is safe to call concurrently with updates; the
// result is a consistent-enough view (each metric internally exact,
// cross-metric skew bounded by in-flight operations).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace congen::obs {

namespace detail {
extern std::atomic<bool> g_metricsEnabled;
/// Round-robin stripe assignment: each thread gets a stable stripe index
/// on first use, spreading writers across cache lines.
std::size_t assignStripe() noexcept;
}  // namespace detail

/// The one relaxed load every instrumented operation pays when metrics
/// are off. Capture the result ONCE per operation and branch on it.
inline bool metricsEnabled() noexcept {
  return detail::g_metricsEnabled.load(std::memory_order_relaxed);
}

void enableMetrics() noexcept;
void disableMetrics() noexcept;

inline constexpr std::size_t kStripes = 8;

/// Monotonic counter over striped relaxed atomics. Writers touch their
/// own cache line; value() sums the stripes (racy-but-exact: every add
/// is eventually visible, and reads after quiescence see the true sum).
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t n = 1) noexcept {
    stripes_[stripe()].v.fetch_add(n, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t sum = 0;
    for (const auto& s : stripes_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  struct alignas(64) Stripe {
    std::atomic<std::uint64_t> v{0};
  };
  static std::size_t stripe() noexcept {
    thread_local const std::size_t s = detail::assignStripe();
    return s;
  }
  std::array<Stripe, kStripes> stripes_{};
};

/// Signed up/down gauge (queue depth, live threads, live pipes). Striped
/// like Counter; value() is the signed sum of the stripes, so an add on
/// one thread and the matching sub on another still cancel exactly.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void add(std::int64_t n) noexcept {
    stripes_[stripe()].v.fetch_add(n, std::memory_order_relaxed);
  }
  void sub(std::int64_t n) noexcept { add(-n); }

  [[nodiscard]] std::int64_t value() const noexcept {
    std::int64_t sum = 0;
    for (const auto& s : stripes_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  struct alignas(64) Stripe {
    std::atomic<std::int64_t> v{0};
  };
  static std::size_t stripe() noexcept {
    thread_local const std::size_t s = detail::assignStripe();
    return s;
  }
  std::array<Stripe, kStripes> stripes_{};
};

/// Fixed-bucket histogram (latencies in microseconds, batch sizes in
/// elements). `bounds` are inclusive upper bounds of the finite buckets;
/// one implicit overflow bucket catches the rest. Counts are striped per
/// cache line; sum/count ride in the same stripe, so a single record()
/// touches exactly one line.
class Histogram {
 public:
  explicit Histogram(std::vector<std::uint64_t> bounds) : bounds_(std::move(bounds)) {
    for (auto& s : stripes_) {
      s.buckets = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
      for (std::size_t i = 0; i <= bounds_.size(); ++i) s.buckets[i].store(0);
    }
  }
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void record(std::uint64_t v) noexcept {
    std::size_t b = 0;
    while (b < bounds_.size() && v > bounds_[b]) ++b;
    auto& s = stripes_[stripe()];
    s.buckets[b].fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(v, std::memory_order_relaxed);
    s.count.fetch_add(1, std::memory_order_relaxed);
  }

  [[nodiscard]] const std::vector<std::uint64_t>& bounds() const noexcept { return bounds_; }
  [[nodiscard]] std::uint64_t count() const noexcept {
    std::uint64_t n = 0;
    for (const auto& s : stripes_) n += s.count.load(std::memory_order_relaxed);
    return n;
  }
  [[nodiscard]] std::uint64_t sum() const noexcept {
    std::uint64_t n = 0;
    for (const auto& s : stripes_) n += s.sum.load(std::memory_order_relaxed);
    return n;
  }
  /// Per-bucket totals, overflow bucket last (bounds().size() + 1 entries).
  [[nodiscard]] std::vector<std::uint64_t> bucketCounts() const {
    std::vector<std::uint64_t> out(bounds_.size() + 1, 0);
    for (const auto& s : stripes_) {
      for (std::size_t i = 0; i < out.size(); ++i) {
        out[i] += s.buckets[i].load(std::memory_order_relaxed);
      }
    }
    return out;
  }

 private:
  struct alignas(64) Stripe {
    std::unique_ptr<std::atomic<std::uint64_t>[]> buckets;
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> count{0};
  };
  static std::size_t stripe() noexcept {
    thread_local const std::size_t s = detail::assignStripe();
    return s;
  }
  std::vector<std::uint64_t> bounds_;
  std::array<Stripe, kStripes> stripes_;
};

/// Power-of-two microsecond bounds for latency histograms: 1µs .. ~8s.
std::vector<std::uint64_t> latencyBoundsMicros();
/// Power-of-two element-count bounds for size histograms: 1 .. 1024.
std::vector<std::uint64_t> sizeBounds();

// ---- snapshots -----------------------------------------------------------

struct HistogramSample {
  std::string name;
  std::vector<std::uint64_t> bounds;  // finite upper bounds; overflow implicit
  std::vector<std::uint64_t> counts;  // bounds.size() + 1 entries
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
};

/// A point-in-time read of every registered metric, name-sorted.
struct Snapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<HistogramSample> histograms;

  /// 0 / nullptr when the metric was never registered.
  [[nodiscard]] std::uint64_t counterValue(const std::string& name) const;
  [[nodiscard]] std::int64_t gaugeValue(const std::string& name) const;
  [[nodiscard]] const HistogramSample* histogram(const std::string& name) const;

  /// Render as the stable congen metrics JSON document (schema v1; see
  /// docs/INTERNALS.md §10). Deterministic: metrics are name-sorted.
  void writeJson(std::ostream& os) const;
  /// Human-readable rendering for `congen-run --stats`.
  void writeText(std::ostream& os) const;
};

/// Named metric registry. `global()` is the process-wide instance every
/// runtime subsystem registers against; separate instances exist so the
/// golden tests can exercise rendering deterministically.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Leaked singleton: instrumentation sites may fire during static
  /// destruction (thread caches, global pool teardown), so the registry
  /// must never be destroyed before the last metric update.
  static Registry& global();

  /// Find-or-create. References are stable for the registry's lifetime.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `bounds` applies only on first registration of `name`.
  Histogram& histogram(const std::string& name, std::vector<std::uint64_t> bounds);

  /// Register a pull-style collector, run at the start of every
  /// snapshot() before the instruments are read. Collectors bridge
  /// subsystems that keep their own (cheaper-than-atomic-load) tallies
  /// into named instruments — e.g. the kernel arena's branch-free
  /// per-thread counters. A collector must only add deltas observed
  /// since its last run; it may call counter()/gauge()/histogram() but
  /// must not call snapshot() (the collector list is not reentrant).
  void addCollector(std::function<void()> fn);

  [[nodiscard]] Snapshot snapshot() const;

 private:
  mutable std::mutex m_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  mutable std::mutex collectorsM_;
  std::vector<std::function<void()>> collectors_;
};

}  // namespace congen::obs
