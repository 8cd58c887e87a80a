#include "stream/query_runtime.h"

namespace serena {

QueryRuntime::QueryRuntime(const PlanPtr& plan, obs::StatsStore& store)
    : store_(store),
      stats_(plan != nullptr ? PlanStats(*plan) : PlanStats()),
      slots_(plan != nullptr ? store_.Acquire(stats_)
                             : std::vector<obs::StatsStore::Slot*>()),
      pipelines_(stats_.size()) {}

QueryRuntime::~QueryRuntime() { store_.Release(slots_); }

void QueryRuntime::ResetHealth(Timestamp now) {
  registered_at_.store(now, std::memory_order_relaxed);
  last_completed_.store(-1, std::memory_order_relaxed);
  for (std::atomic<std::uint64_t>* field :
       {&error_streak_, &total_errors_, &steps_, &observed_, &rows_in_,
        &rows_out_}) {
    field->store(0, std::memory_order_relaxed);
  }
  step_ns_.Reset();
}

void QueryRuntime::RecordStep(Timestamp instant, bool ok,
                              std::uint64_t step_ns, std::uint64_t rows_in,
                              std::uint64_t rows_out) {
  Bump(observed_, std::uint64_t{1});
  step_ns_.Record(step_ns);
  if (ok) {
    last_completed_.store(instant, std::memory_order_relaxed);
    error_streak_.store(0, std::memory_order_relaxed);
    Bump(steps_, std::uint64_t{1});
    Bump(rows_in_, rows_in);
    Bump(rows_out_, rows_out);
  } else {
    Bump(error_streak_, std::uint64_t{1});
    Bump(total_errors_, std::uint64_t{1});
  }
}

}  // namespace serena
