#include "algebra/explain.h"

#include "common/string_util.h"
#include "obs/stats.h"

namespace serena {

namespace {

/// The operator label without its children, e.g. "select[name != 'Carla']".
std::string NodeLabel(const PlanNode& node) {
  switch (node.kind()) {
    case PlanKind::kScan:
      return static_cast<const ScanNode&>(node).relation();
    case PlanKind::kUnion:
    case PlanKind::kIntersect:
    case PlanKind::kDifference:
    case PlanKind::kJoin:
      return PlanKindToString(node.kind());
    case PlanKind::kProject: {
      const auto& n = static_cast<const ProjectNode&>(node);
      return "project[" + Join(n.attributes(), ", ") + "]";
    }
    case PlanKind::kSelect: {
      const auto& n = static_cast<const SelectNode&>(node);
      return "select[" + n.formula()->ToString() + "]";
    }
    case PlanKind::kRename: {
      const auto& n = static_cast<const RenameNode&>(node);
      return "rename[" + n.from() + " -> " + n.to() + "]";
    }
    case PlanKind::kAssign: {
      const auto& n = static_cast<const AssignNode&>(node);
      return "assign[" + n.target() + " := " +
             (n.from_attribute() ? n.source_attribute()
                                 : n.constant().ToString()) +
             "]";
    }
    case PlanKind::kInvoke: {
      const auto& n = static_cast<const InvokeNode&>(node);
      std::string label = "invoke[" + n.prototype();
      if (!n.service_attribute().empty()) {
        label += "[" + n.service_attribute() + "]";
      }
      return label + "]";
    }
    case PlanKind::kAggregate: {
      const auto& n = static_cast<const AggregateNode&>(node);
      std::string label = "aggregate[" + Join(n.group_by(), ", ") + "; ";
      for (std::size_t i = 0; i < n.aggregates().size(); ++i) {
        if (i > 0) label += ", ";
        label += n.aggregates()[i].ToString();
      }
      return label + "]";
    }
    case PlanKind::kWindow:
    case PlanKind::kEmpty:
      // Leaves: the rendered form is already child-free.
      return node.ToString();
    case PlanKind::kStreaming: {
      const auto& n = static_cast<const StreamingNode&>(node);
      return std::string("stream[") + StreamingTypeToString(n.type()) + "]";
    }
  }
  return "?";
}

/// The `(actual ...)` clause of one analyzed node, or "(never executed)"
/// for nodes evaluation did not reach (e.g. below a failing sibling).
std::string AnalyzeAnnotation(const NodeRuntimeStats* stats) {
  if (stats == nullptr || stats->evals == 0) return "(never executed)";
  std::string s = StringFormat(
      "(actual rows=%llu time=%.3fms",
      static_cast<unsigned long long>(stats->rows_out),
      static_cast<double>(stats->wall_ns) / 1e6);
  if (stats->evals > 1) {
    s += StringFormat(" evals=%llu",
                      static_cast<unsigned long long>(stats->evals));
  }
  if (stats->invocations > 0) {
    s += StringFormat(" invocations=%llu",
                      static_cast<unsigned long long>(stats->invocations));
  }
  if (stats->memo_hits > 0) {
    s += StringFormat(" memo_hits=%llu",
                      static_cast<unsigned long long>(stats->memo_hits));
  }
  if (stats->errors > 0) {
    s += StringFormat(" errors=%llu",
                      static_cast<unsigned long long>(stats->errors));
  }
  if (stats->batches > 0) {
    // The signature of a fused vectorized pipeline having run here.
    s += StringFormat(" batches=%llu",
                      static_cast<unsigned long long>(stats->batches));
  }
  return s + ")";
}

/// The runtime-statistics-store clauses of one analyzed node: the
/// cross-run aggregates under the node's stable fingerprint ("observed:"),
/// and — when `SERENA_STATS_FILE` supplied a previous run — the last run's
/// per-eval figures with deltas against this evaluation ("last run:").
std::string StatsStoreAnnotation(const PlanNode& node,
                                 const NodeRuntimeStats* stats) {
  obs::StatsStore& store = obs::StatsStore::Global();
  std::string out;
  const std::string fingerprint = obs::OperatorFingerprint(node);
  if (const std::optional<obs::OperatorStats> observed =
          store.Find(fingerprint);
      observed.has_value() && observed->evals > 0) {
    out += StringFormat(
        " (observed: evals=%llu rows/eval=%.1f sel=%.3f time/eval=%.3fms",
        static_cast<unsigned long long>(observed->evals),
        observed->mean_rows_out(), observed->selectivity(),
        observed->mean_wall_ns() / 1e6);
    if (observed->invocations > 0) {
      out += StringFormat(" memo=%.0f%%", observed->memo_hit_rate() * 100.0);
    }
    out += ")";
  }
  if (const std::optional<obs::OperatorStats> baseline =
          store.FindBaseline(fingerprint);
      baseline.has_value() && baseline->evals > 0) {
    out += StringFormat(" (last run: rows/eval=%.1f time/eval=%.3fms",
                        baseline->mean_rows_out(),
                        baseline->mean_wall_ns() / 1e6);
    if (stats != nullptr && stats->evals > 0) {
      const double now_ns = static_cast<double>(stats->wall_ns) /
                            static_cast<double>(stats->evals);
      const double then_ns = baseline->mean_wall_ns();
      if (then_ns > 0) {
        out += StringFormat(", Δtime %+.1f%%",
                            (now_ns - then_ns) / then_ns * 100.0);
      }
      const double now_rows = static_cast<double>(stats->rows_out) /
                              static_cast<double>(stats->evals);
      const double then_rows = baseline->mean_rows_out();
      if (then_rows > 0) {
        out += StringFormat(", Δrows %+.1f%%",
                            (now_rows - then_rows) / then_rows * 100.0);
      }
    }
    out += ")";
  }
  return out;
}

void ExplainNode(const PlanPtr& plan, const Environment& env,
                 const StreamStore* streams, const ExplainOptions& options,
                 const PlanStats* analyze, int depth,
                 std::string* out) {
  out->append(static_cast<std::size_t>(depth) * 2, ' ');
  out->append(NodeLabel(*plan));

  std::string annotation;
  if (options.show_schemas || options.show_binding_patterns) {
    auto schema = plan->InferSchema(env, streams);
    if (schema.ok()) {
      if (options.show_binding_patterns &&
          plan->kind() == PlanKind::kInvoke) {
        const auto* node = static_cast<const InvokeNode*>(plan.get());
        annotation += node->IsActive(env, streams) ? "ACTIVE β; " : "passive β; ";
      }
      if (options.show_schemas) {
        annotation += "real: {" + Join((*schema)->RealNames(), ", ") + "}";
        const auto virtuals = (*schema)->VirtualNames();
        if (!virtuals.empty()) {
          annotation += ", virtual: {" + Join(virtuals, ", ") + "}";
        }
      }
    }
  }
  if (options.node_annotations != nullptr) {
    const auto it = options.node_annotations->find(plan.get());
    if (it != options.node_annotations->end() && !it->second.empty()) {
      if (!annotation.empty()) annotation += " ";
      annotation += it->second;
    }
  }
  if (analyze != nullptr) {
    if (!annotation.empty()) annotation += " ";
    const NodeRuntimeStats* node_stats = analyze->Find(plan.get());
    annotation += AnalyzeAnnotation(node_stats);
    annotation += StatsStoreAnnotation(*plan, node_stats);
  }
  if (!annotation.empty()) {
    out->append("   -- ");
    out->append(annotation);
  }
  out->push_back('\n');
  for (const PlanPtr& child : plan->children()) {
    ExplainNode(child, env, streams, options, analyze, depth + 1, out);
  }
}

}  // namespace

std::string ExplainPlan(const PlanPtr& plan, const Environment& env,
                        const StreamStore* streams,
                        const ExplainOptions& options) {
  if (plan == nullptr) return "(null plan)\n";
  std::string out;
  ExplainNode(plan, env, streams, options, /*analyze=*/nullptr, 0, &out);
  return out;
}

std::string RenderPlanWithStats(const PlanPtr& plan, const Environment& env,
                                const StreamStore* streams,
                                const PlanStats& stats,
                                const ExplainOptions& options) {
  if (plan == nullptr) return "(null plan)\n";
  std::string out;
  ExplainNode(plan, env, streams, options, &stats, 0, &out);
  return out;
}

std::string ExplainAnalyzePlan(const PlanPtr& plan, Environment* env,
                               StreamStore* streams,
                               const ExplainAnalyzeOptions& options) {
  if (plan == nullptr) return "(null plan)\n";
  if (env == nullptr) return "(no environment)\n";

  PlanStats record(*plan);
  ActionSet actions;
  EvalContext ctx;
  ctx.env = env;
  ctx.streams = streams;
  ctx.instant = options.instant.value_or(env->clock().now());
  ctx.actions = &actions;
  ctx.error_policy = options.error_policy;
  ctx.stats = &record;
  const Result<XRelation> result = plan->Evaluate(ctx);
  // EXPLAIN ANALYZE is an explicit observation: its actuals always feed
  // the runtime statistics store. Flushed before rendering so the
  // "observed:" clause includes this very evaluation; "last run:" reads
  // the baseline map and cannot self-contaminate.
  obs::StatsStore::Global().RecordPlan(record);

  std::string out =
      RenderPlanWithStats(plan, *env, streams, record, options.explain);
  out += StringFormat("instant: %lld; actions: %zu\n",
                      static_cast<long long>(ctx.instant), actions.size());
  if (!result.ok()) {
    out += "evaluation failed: " + result.status().ToString() + "\n";
  }
  return out;
}

}  // namespace serena
