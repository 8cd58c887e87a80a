#include "stream/continuous_query.h"

#include "obs/metrics.h"
#include "obs/stats.h"

namespace serena {

namespace {

std::uint64_t SumLeafRows(const PlanPtr& plan,
                          const PlanStatsCollector& stats) {
  if (plan == nullptr) return 0;
  const std::vector<PlanPtr> children = plan->children();
  if (children.empty()) {
    const NodeRuntimeStats* node_stats = stats.Find(plan.get());
    return node_stats != nullptr ? node_stats->rows_out : 0;
  }
  std::uint64_t total = 0;
  for (const PlanPtr& child : children) total += SumLeafRows(child, stats);
  return total;
}

}  // namespace

std::uint64_t ContinuousQuery::LeafRowsTotal() const {
  return SumLeafRows(plan_, stats_);
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
    action_log_.push_back(LoggedAction{instant, action});
  };
  ctx.error_policy = InvocationErrorPolicy::kSkipTuple;
  ctx.state = &state_;
  ctx.batch_pool = &batch_pool_;
  last_failed_tuples_.clear();
  ctx.failed_tuples = &last_failed_tuples_;
  // Collect per-node actuals while metrics are on: they power
  // RenderPlanWithStats and the rows-in figure below (leaf rows this step
  // = delta of the accumulated leaf totals). Each step evaluates into a
  // scratch collector whose deltas feed the global runtime statistics
  // store, then merges into the query-lifetime accumulation — recording
  // the accumulated collector wholesale every step would double-count.
  const bool track = obs::MetricsRegistry::Global().enabled();
  PlanStatsCollector step_stats;
  if (track) ctx.stats = &step_stats;
  Result<XRelation> evaluated = plan_->Evaluate(ctx);
  if (track) {
    // The plan never changes, so its fingerprints are rendered once.
    if (fingerprints_.empty()) fingerprints_ = obs::FingerprintPlan(*plan_);
    obs::StatsStore::Global().RecordPlan(fingerprints_, step_stats);
    stats_.MergeFrom(step_stats);
  }
  SERENA_ASSIGN_OR_RETURN(XRelation result, std::move(evaluated));
  ++steps_;
  if (track) {
    const std::uint64_t leaf_total = LeafRowsTotal();
    last_rows_in_ = leaf_total - leaf_rows_total_;
    leaf_rows_total_ = leaf_total;
    last_rows_out_ = result.size();
  } else {
    last_rows_in_ = 0;
    last_rows_out_ = result.size();
  }
  if (sink_) sink_(instant, result);
  return result;
}

}  // namespace serena
