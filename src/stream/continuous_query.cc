#include "stream/continuous_query.h"

#include <utility>

#include "obs/metrics.h"

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
  last_failed_tuples_.clear();
  ctx.failed_tuples = &last_failed_tuples_;
  // Per-node actuals land in the query's own record every step: its
  // leaves' rows feed the query's health whether metrics are on or off.
  // While they are on, steps are timed and published to the statistics
  // store (and through it the `serena.op.*` counters), failed ones too:
  // error counts matter.
  const bool metered = obs::MetricsRegistry::Global().enabled();
  PlanStats& stats = runtime_->stats();
  stats.Reset();
  stats.set_timed(metered);
  ctx.stats = &stats;
  // The fused pipelines prepared at the first step are rebound and run.
  ctx.pipelines = &runtime_->pipelines();
  Result<XRelation> evaluated = plan_->Evaluate(ctx);
  if (metered) runtime_->PublishStats();
  SERENA_ASSIGN_OR_RETURN(XRelation result, std::move(evaluated));
  ++steps_;
  last_rows_in_ = stats.LeafRowsOut();
  last_rows_out_ = result.size();
  if (sink_) sink_(instant, result);
  return result;
}

}  // namespace serena
