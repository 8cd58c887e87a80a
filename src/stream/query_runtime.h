#ifndef SERENA_STREAM_QUERY_RUNTIME_H_
#define SERENA_STREAM_QUERY_RUNTIME_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "algebra/plan.h"
#include "algebra/vectorized.h"
#include "common/clock.h"
#include "obs/metrics.h"
#include "obs/stats.h"

namespace serena {

/// The one runtime record of a standing query, built with the query and
/// reused by every step: the only thing a step writes besides its result.
/// It holds
///
///   - the plan's per-node statistics (`PlanStats`, indexed by node
///     ordinal), bound to the operators' slots in the statistics store,
///     which are resolved once, here, so publishing a step's statistics
///     is lock- and lookup-free;
///   - the query's health: last completed instant, error streak, totals,
///     rows in/out and the one step-latency histogram, read by
///     `QueryHealth` (`\health`, `sys_query_health`, the tick watchdog);
///   - the plan's prepared fused pipelines, indexed by the same ordinals:
///     built at the first step, then rebound and run by every step
///     (docs/VECTORIZATION.md, "Prepared pipelines").
///
/// A step allocates nothing and takes no lock to record here. Health has
/// one writer, the thread stepping the query, and any number of readers:
/// each field is an atomic written with plain relaxed stores.
class QueryRuntime {
 public:
  /// `plan` may be null: a record of health only.
  explicit QueryRuntime(const PlanPtr& plan,
                        obs::StatsStore& store = obs::StatsStore::Global());
  ~QueryRuntime();

  QueryRuntime(const QueryRuntime&) = delete;
  QueryRuntime& operator=(const QueryRuntime&) = delete;

  /// Per-node statistics of the current (or last) step.
  PlanStats& stats() { return stats_; }
  const PlanStats& stats() const { return stats_; }

  /// The plan's prepared fused pipelines. Only the thread stepping the
  /// query touches them.
  vec::PipelineCache& pipelines() { return pipelines_; }
  const vec::PipelineCache& pipelines() const { return pipelines_; }

  /// Adds `stats()` to the statistics store and the `serena.op.*`
  /// counters (see `obs::StatsStore::Publish`).
  void PublishStats() const { obs::StatsStore::Publish(slots_, stats_); }

  /// Forgets every step: the query counts as registered at `now`.
  void ResetHealth(Timestamp now);

  /// Records one step outcome. Rows count only for successful steps.
  void RecordStep(Timestamp instant, bool ok, std::uint64_t step_ns,
                  std::uint64_t rows_in, std::uint64_t rows_out);

  Timestamp registered_at() const { return Load(registered_at_); }
  /// Instant of the last successful step; -1 before the first one.
  Timestamp last_completed() const { return Load(last_completed_); }
  std::uint64_t error_streak() const { return Load(error_streak_); }
  std::uint64_t total_errors() const { return Load(total_errors_); }
  /// Successful steps.
  std::uint64_t steps() const { return Load(steps_); }
  /// Successful and failed steps.
  std::uint64_t observed() const { return Load(observed_); }
  std::uint64_t rows_in() const { return Load(rows_in_); }
  std::uint64_t rows_out() const { return Load(rows_out_); }
  const obs::Histogram& step_ns() const { return step_ns_; }

 private:
  template <typename T>
  static T Load(const std::atomic<T>& field) {
    return field.load(std::memory_order_relaxed);
  }
  /// The single writer's increment: no read-modify-write needed.
  template <typename T>
  static void Bump(std::atomic<T>& field, T delta) {
    field.store(Load(field) + delta, std::memory_order_relaxed);
  }

  obs::StatsStore& store_;
  PlanStats stats_;
  std::vector<obs::StatsStore::Slot*> slots_;
  vec::PipelineCache pipelines_;

  std::atomic<Timestamp> registered_at_{0};
  std::atomic<Timestamp> last_completed_{-1};
  std::atomic<std::uint64_t> error_streak_{0};
  std::atomic<std::uint64_t> total_errors_{0};
  std::atomic<std::uint64_t> steps_{0};
  std::atomic<std::uint64_t> observed_{0};
  std::atomic<std::uint64_t> rows_in_{0};
  std::atomic<std::uint64_t> rows_out_{0};
  obs::Histogram step_ns_;
};

}  // namespace serena

#endif  // SERENA_STREAM_QUERY_RUNTIME_H_
