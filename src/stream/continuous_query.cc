#include "stream/continuous_query.h"

#include <utility>

#include "obs/metrics.h"
#include "obs/stats.h"

namespace serena {

void ActionLog::Append(Timestamp instant, Action action) {
  entries_.push_back(LoggedAction{instant, std::move(action)});
  while (entries_.size() > kRetained && entries_.front().instant != instant) {
    entries_.pop_front();
    ++dropped_;
  }
}

std::size_t ActionLog::InstantStart(Timestamp instant) const {
  std::size_t first = size();
  while (first > dropped_ && (*this)[first - 1].instant == instant) --first;
  return first;
}

Result<XRelation> ContinuousQuery::Step(Environment* env,
                                        StreamStore* streams,
                                        Timestamp instant,
                                        ThreadPool* pool) {
  if (env == nullptr) return Status::InvalidArgument("null environment");
  EvalContext ctx;
  ctx.env = env;
  ctx.streams = streams;
  ctx.instant = instant;
  ctx.pool = pool;
  ctx.actions = &accumulated_actions_;
  ctx.action_sink = [this, instant](const Action& action) {
    action_log_.Append(instant, action);
  };
  ctx.error_policy = InvocationErrorPolicy::kSkipTuple;
  ctx.state = &state_;
  ctx.batch_pool = &batch_pool_;
  last_failed_tuples_.clear();
  ctx.failed_tuples = &last_failed_tuples_;
  // Collect per-node actuals while metrics are on: they feed the global
  // runtime statistics store (and through it the `serena.op.*` counters)
  // and the rows-in figure below.
  const bool track = obs::MetricsRegistry::Global().enabled();
  PlanStatsCollector step_stats;
  if (track) ctx.stats = &step_stats;
  Result<XRelation> evaluated = plan_->Evaluate(ctx);
  if (track) {
    // The plan never changes, so its fingerprints are rendered once.
    if (fingerprints_.empty()) fingerprints_ = obs::FingerprintPlan(*plan_);
    obs::StatsStore::Global().RecordPlan(fingerprints_, step_stats);
  }
  SERENA_ASSIGN_OR_RETURN(XRelation result, std::move(evaluated));
  ++steps_;
  // Rows the plan's leaves emitted this step. Each distinct leaf is read
  // once: its rows_out already sums every evaluation of it, so a leaf
  // shared by two paths must not be visited once per path.
  last_rows_in_ = 0;
  if (track) {
    for (const obs::FingerprintedNode& entry : fingerprints_) {
      if (!entry.children.empty()) continue;
      if (const NodeRuntimeStats* stats = step_stats.Find(entry.node)) {
        last_rows_in_ += stats->rows_out;
      }
    }
  }
  last_rows_out_ = result.size();
  if (sink_) sink_(instant, result);
  return result;
}

}  // namespace serena
