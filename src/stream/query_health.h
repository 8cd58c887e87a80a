#ifndef SERENA_STREAM_QUERY_HEALTH_H_
#define SERENA_STREAM_QUERY_HEALTH_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "stream/query_runtime.h"

namespace serena {

/// Per-query health signals the executor maintains for every registered
/// continuous query: last-completed instant, tick lag (logical watermark
/// vs. the executor clock), consecutive-error streak, step-latency
/// percentiles and tuple in/out rates. This is the alertable layer above
/// the raw metrics registry — surfaced through `\health` in the shell,
/// `PemsMetrics::ToJson`, and the `sys_query_health` meta-relation.
///
/// The signals live in each query's `QueryRuntime`, which its steps
/// write directly (`QueryRuntime::RecordStep`); this class indexes the
/// records by name and derives the lag from the executor clock.
/// Thread-safe: registration and reads take one mutex; recording a step
/// takes none.
class QueryHealth {
 public:
  struct QuerySnapshot {
    std::string name;
    /// Instant of the last successful step; -1 before the first one.
    Timestamp last_completed_instant = -1;
    /// Executor clock minus last completed instant (ticks the query is
    /// behind). 1 means "stepped last tick" — the healthy steady state.
    Timestamp lag = 0;
    /// Consecutive failed steps (0 for a healthy query).
    std::uint64_t error_streak = 0;
    std::uint64_t total_errors = 0;
    /// Completed (successful) steps.
    std::uint64_t steps = 0;
    std::uint64_t p50_step_ns = 0;
    std::uint64_t p99_step_ns = 0;
    /// Totals across all observed steps.
    std::uint64_t rows_in = 0;
    std::uint64_t rows_out = 0;
    /// Totals divided by observed steps (successful + failed).
    double rows_in_rate = 0.0;
    double rows_out_rate = 0.0;
  };

  QueryHealth() = default;
  QueryHealth(const QueryHealth&) = delete;
  QueryHealth& operator=(const QueryHealth&) = delete;

  /// Starts tracking `name` through `runtime`, whose health is reset; lag
  /// is measured from `now` until the first completed step.
  /// Re-registering a name replaces its entry.
  void Register(const std::string& name,
                std::shared_ptr<QueryRuntime> runtime, Timestamp now);
  void Unregister(const std::string& name);

  /// Advances the lag baseline — the executor calls this with each tick's
  /// instant before stepping, so stalled queries show a growing lag.
  void SetNow(Timestamp now);

  /// Calls `visit` with every tracked query's snapshot, sorted by name,
  /// under the lock. The snapshot object is reused between calls, so
  /// visiting allocates nothing once its name fits.
  void ForEach(const std::function<void(const QuerySnapshot&)>& visit) const;

  /// All tracked queries, sorted by name.
  std::vector<QuerySnapshot> Snapshots() const;

  /// Number of tracked queries.
  std::size_t size() const;

  void Clear();

 private:
  struct Entry {
    std::string name;
    std::shared_ptr<QueryRuntime> runtime;
  };

  /// The entry named `name`, or where it would be inserted. Call with
  /// `mu_` held.
  std::vector<Entry>::iterator Locate(const std::string& name);

  mutable std::mutex mu_;
  Timestamp now_ = 0;
  /// Sorted by name.
  std::vector<Entry> entries_;
};

}  // namespace serena

#endif  // SERENA_STREAM_QUERY_HEALTH_H_
