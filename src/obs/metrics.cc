#include "obs/metrics.h"

#include <bit>
#include <chrono>
#include <cstdlib>

#include "common/string_util.h"
#include "obs/json.h"

namespace serena {
namespace obs {

std::uint64_t MonotonicNowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::size_t CounterStripe() {
  // Threads take stripes round-robin in first-use order, so the handful
  // of threads stepping queries land on distinct cache lines.
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t stripe =
      next.fetch_add(1, std::memory_order_relaxed) % Counter::kStripes;
  return stripe;
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

std::uint64_t Histogram::BucketBound(std::size_t i) {
  if (i >= kBucketCount) return UINT64_MAX;
  return std::uint64_t{1} << (i + kFirstBoundLog2);
}

std::size_t Histogram::BucketIndex(std::uint64_t value) {
  // bound(i) = 2^(i + kFirstBoundLog2), so a value with bit width w
  // (i.e. in [2^(w-1), 2^w)) belongs to bucket w - kFirstBoundLog2.
  const unsigned width = static_cast<unsigned>(std::bit_width(value));
  if (width <= kFirstBoundLog2) return 0;
  const std::size_t index = width - kFirstBoundLog2;
  return index < kBucketCount ? index : kBucketCount;
}

void Histogram::Record(std::uint64_t value) {
  buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  std::uint64_t seen = min_.load(std::memory_order_relaxed);
  while (value < seen &&
         !min_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (value > seen &&
         !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

std::uint64_t Histogram::min() const {
  const std::uint64_t value = min_.load(std::memory_order_relaxed);
  return value == UINT64_MAX ? 0 : value;
}

double Histogram::mean() const {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
}

std::uint64_t Histogram::ValueAtPercentile(double p) const {
  const std::uint64_t n = count();
  if (n == 0) return 0;
  if (p <= 0.0) return min();
  if (p >= 100.0) return max();
  const auto rank = static_cast<std::uint64_t>(p / 100.0 *
                                               static_cast<double>(n));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i <= kBucketCount; ++i) {
    seen += BucketCount(i);
    if (seen > rank) {
      const std::uint64_t bound = BucketBound(i);
      return bound < max() ? bound : max();
    }
  }
  return max();
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snapshot;
  for (std::size_t i = 0; i <= kBucketCount; ++i) {
    snapshot.buckets[i] = BucketCount(i);
    snapshot.count += snapshot.buckets[i];
  }
  snapshot.sum = sum();
  snapshot.min = min();
  snapshot.max = max();
  return snapshot;
}

std::uint64_t HistogramSnapshot::ValueAtPercentile(double p) const {
  if (count == 0) return 0;
  if (p <= 0.0) return min;
  if (p >= 100.0) return max;
  const auto rank =
      static_cast<std::uint64_t>(p / 100.0 * static_cast<double>(count));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen > rank) {
      const std::uint64_t bound = Histogram::BucketBound(i);
      return bound < max ? bound : max;
    }
  }
  return max;
}

void Histogram::Reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(UINT64_MAX, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

namespace {

bool EnabledFromEnv() {
  const char* value = std::getenv("SERENA_METRICS");
  if (value == nullptr) return true;
  return !(EqualsIgnoreCase(value, "0") || EqualsIgnoreCase(value, "off") ||
           EqualsIgnoreCase(value, "false"));
}

template <typename Map>
std::vector<std::string> SortedKeys(const Map& map) {
  std::vector<std::string> names;
  names.reserve(map.size());
  for (const auto& [name, instrument] : map) names.push_back(name);
  return names;
}

}  // namespace

MetricsRegistry::MetricsRegistry() : enabled_(EnabledFromEnv()) {}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return *slot;
}

const Counter* MetricsRegistry::FindCounter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge* MetricsRegistry::FindGauge(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : it->second.get();
}

const Histogram* MetricsRegistry::FindHistogram(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

std::vector<std::string> MetricsRegistry::CounterNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  return SortedKeys(counters_);
}

std::vector<std::string> MetricsRegistry::GaugeNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  return SortedKeys(gauges_);
}

std::vector<std::string> MetricsRegistry::HistogramNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  return SortedKeys(histograms_);
}

void MetricsRegistry::ResetValues() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  JsonWriter json;
  json.BeginObject();

  json.Key("counters").BeginObject();
  for (const auto& [name, counter] : counters_) {
    json.Key(name).Value(counter->value());
  }
  json.EndObject();

  json.Key("gauges").BeginObject();
  for (const auto& [name, gauge] : gauges_) {
    json.Key(name).Value(gauge->value());
  }
  json.EndObject();

  json.Key("histograms").BeginObject();
  for (const auto& [name, histogram] : histograms_) {
    // One snapshot per histogram: every derived figure below comes from
    // the same frozen buckets, so a concurrent Reset can't tear the entry
    // into count/percentile combinations that never coexisted.
    const HistogramSnapshot snapshot = histogram->Snapshot();
    json.Key(name).BeginObject();
    json.Key("count").Value(snapshot.count);
    json.Key("sum").Value(snapshot.sum);
    json.Key("min").Value(snapshot.min);
    json.Key("max").Value(snapshot.max);
    json.Key("mean").Value(snapshot.mean());
    json.Key("p50").Value(snapshot.ValueAtPercentile(50));
    json.Key("p90").Value(snapshot.ValueAtPercentile(90));
    json.Key("p99").Value(snapshot.ValueAtPercentile(99));
    json.Key("buckets").BeginArray();
    for (std::size_t i = 0; i < snapshot.buckets.size(); ++i) {
      const std::uint64_t in_bucket = snapshot.buckets[i];
      if (in_bucket == 0) continue;
      json.BeginObject();
      json.Key("le").Value(Histogram::BucketBound(i));
      json.Key("count").Value(in_bucket);
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndObject();

  json.EndObject();
  return json.TakeString();
}

}  // namespace obs
}  // namespace serena
