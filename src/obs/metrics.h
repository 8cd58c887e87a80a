#ifndef SERENA_OBS_METRICS_H_
#define SERENA_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace serena {
namespace obs {

/// Wall-clock monotonic time in nanoseconds (CLOCK_MONOTONIC). This is
/// *physical* time, orthogonal to the logical `Timestamp` instants of the
/// algebra — telemetry records both.
std::uint64_t MonotonicNowNs();

/// A small stable index of the calling thread, the stripe it increments
/// in every `Counter`.
std::size_t CounterStripe();

/// A monotonically increasing event count. Thread-safe; incrementing is a
/// single relaxed atomic add to the calling thread's stripe, each stripe
/// on its own cache line, so threads stepping queries side by side never
/// contend on a hot counter (`serena.op.*`, `serena.vectorize.*`).
/// Reading sums the stripes.
class Counter {
 public:
  static constexpr std::size_t kStripes = 8;

  void Increment(std::uint64_t delta = 1) {
    stripes_[CounterStripe()].value.fetch_add(delta,
                                              std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    std::uint64_t sum = 0;
    for (const Stripe& stripe : stripes_) {
      sum += stripe.value.load(std::memory_order_relaxed);
    }
    return sum;
  }
  void Reset() {
    for (Stripe& stripe : stripes_) {
      stripe.value.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct alignas(64) Stripe {
    std::atomic<std::uint64_t> value{0};
  };
  std::array<Stripe, kStripes> stripes_;
};

/// A point-in-time level (queue depth, catalog size). Thread-safe.
class Gauge {
 public:
  void Set(std::int64_t value) {
    value_.store(value, std::memory_order_relaxed);
  }
  void Add(std::int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

struct HistogramSnapshot;

/// A fixed-bucket latency histogram. Buckets are exponential, base 2:
/// bucket i counts recorded values v with v < BucketBound(i), where
/// BucketBound(i) = 2^(i + 8) — i.e. 256ns, 512ns, ..., up to
/// 2^35 ns (~34s); everything larger lands in the overflow bucket.
/// Designed for nanosecond latencies but unit-agnostic.
///
/// Thread-safe: recording is 3 relaxed atomic adds plus two CAS loops for
/// min/max. Percentiles are approximate (resolved to bucket bounds).
class Histogram {
 public:
  /// Number of bounded buckets (the overflow bucket is extra).
  static constexpr std::size_t kBucketCount = 28;
  /// log2 of the first bucket's upper bound.
  static constexpr unsigned kFirstBoundLog2 = 8;

  /// Upper bound (exclusive) of bucket `i`; UINT64_MAX for the overflow
  /// bucket (i == kBucketCount).
  static std::uint64_t BucketBound(std::size_t i);
  /// Index of the bucket `value` falls into.
  static std::size_t BucketIndex(std::uint64_t value);

  void Record(std::uint64_t value);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  /// 0 when empty.
  std::uint64_t min() const;
  std::uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  double mean() const;

  /// Approximate percentile (p in [0, 100]): the upper bound of the
  /// bucket containing the p-th ranked value (clamped to `max()`).
  /// Returns 0 when empty.
  std::uint64_t ValueAtPercentile(double p) const;

  /// Count in bucket `i` (i <= kBucketCount; kBucketCount = overflow).
  std::uint64_t BucketCount(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// A single-pass consistent snapshot; all derived statistics (exports,
  /// dashboards) should be computed from one snapshot rather than from
  /// repeated live reads.
  HistogramSnapshot Snapshot() const;

  void Reset();

 private:
  std::atomic<std::uint64_t> buckets_[kBucketCount + 1] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{UINT64_MAX};
  std::atomic<std::uint64_t> max_{0};
};

/// A point-in-time copy of one histogram's state, internally consistent
/// by construction: `count` is computed as the sum of the copied buckets,
/// so percentiles derived from a snapshot are monotone even while writers
/// race — the fix for torn dashboards read field-by-field from the live
/// atomics (see docs/OBSERVABILITY.md).
struct HistogramSnapshot {
  /// One count per bounded bucket plus the overflow bucket (last entry).
  /// Inline, so taking a snapshot allocates nothing.
  std::array<std::uint64_t, Histogram::kBucketCount + 1> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;

  double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
  /// Same semantics as Histogram::ValueAtPercentile, over the frozen
  /// buckets.
  std::uint64_t ValueAtPercentile(double p) const;
};

/// The process-wide registry of named telemetry instruments.
///
/// Names are flat dotted paths (see docs/OBSERVABILITY.md for the naming
/// scheme, e.g. `serena.executor.tick_ns`). Get* registers on first use
/// and returns a reference that stays valid for the registry's lifetime,
/// so hot paths look instruments up once and keep the pointer.
///
/// Cheap when idle: instrumented call sites guard timing work behind
/// `enabled()` — a single relaxed atomic load. Disabling stops new
/// samples; already-registered instruments keep their values. The initial
/// state honors the `SERENA_METRICS` environment variable (`0`, `false`
/// or `off` start disabled; anything else, or unset, starts enabled).
class MetricsRegistry {
 public:
  MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry used by all built-in instrumentation.
  static MetricsRegistry& Global();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  /// nullptr when no instrument of that kind has the name.
  const Counter* FindCounter(const std::string& name) const;
  const Gauge* FindGauge(const std::string& name) const;
  const Histogram* FindHistogram(const std::string& name) const;

  std::vector<std::string> CounterNames() const;
  std::vector<std::string> GaugeNames() const;
  std::vector<std::string> HistogramNames() const;

  /// Zeroes every instrument's value; identities (and cached references)
  /// stay valid. Tests use this to isolate runs sharing the global
  /// registry.
  void ResetValues();

  /// The full registry as one JSON object:
  /// `{"counters": {...}, "gauges": {...}, "histograms": {name:
  /// {"count", "sum", "min", "max", "mean", "p50", "p90", "p99",
  /// "buckets": [{"le", "count"}, ...]}}}` (only non-empty buckets).
  std::string ToJson() const;

  /// The full registry in Prometheus text exposition format (metric names
  /// sanitized, histograms as cumulative `_bucket{le=...}`/`_sum`/`_count`
  /// series). Implemented in obs/export.cc.
  std::string DumpPrometheus() const;

 private:
  std::atomic<bool> enabled_;
  mutable std::mutex mu_;
  // std::map: sorted JSON export; unique_ptr: stable addresses.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// RAII latency sample: records the elapsed nanoseconds into `histogram`
/// on destruction. Pass nullptr to make it a no-op (the disabled path —
/// no clock read happens).
class ScopedLatencyTimer {
 public:
  explicit ScopedLatencyTimer(Histogram* histogram)
      : histogram_(histogram),
        start_ns_(histogram != nullptr ? MonotonicNowNs() : 0) {}
  ~ScopedLatencyTimer() {
    if (histogram_ != nullptr) {
      histogram_->Record(MonotonicNowNs() - start_ns_);
    }
  }

  ScopedLatencyTimer(const ScopedLatencyTimer&) = delete;
  ScopedLatencyTimer& operator=(const ScopedLatencyTimer&) = delete;

 private:
  Histogram* histogram_;
  std::uint64_t start_ns_;
};

}  // namespace obs
}  // namespace serena

#endif  // SERENA_OBS_METRICS_H_
