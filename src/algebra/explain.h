#ifndef SERENA_ALGEBRA_EXPLAIN_H_
#define SERENA_ALGEBRA_EXPLAIN_H_

#include <optional>
#include <string>
#include <unordered_map>

#include "algebra/plan.h"

namespace serena {

/// Options for `ExplainPlan`.
struct ExplainOptions {
  /// Annotate each node with its inferred output schema partition.
  bool show_schemas = true;
  /// Annotate invocation nodes with their binding pattern and tag.
  bool show_binding_patterns = true;
  /// Extra per-node annotation strings appended after the schema clause —
  /// how analysis-layer facts (the abstract interpreter's static bounds,
  /// `analysis::Session::StaticBoundsAnnotations`) reach EXPLAIN without
  /// the algebra layer depending on the analyzer. Keys are node addresses
  /// within the explained plan; not owned, may be null.
  const std::unordered_map<const PlanNode*, std::string>* node_annotations =
      nullptr;
};

/// Renders a query plan as an indented operator tree, e.g.
///
/// ```
/// invoke[sendMessage]           {active β; real: ..., virtual: ...}
///   assign[text := 'Bonjour!']  {real: ..., virtual: ...}
///     select[name != 'Carla']
///       contacts
/// ```
///
/// Schema annotations require the environment (and stream store when the
/// plan reads streams); inference failures degrade to plain rendering of
/// the affected subtree, never to an error — EXPLAIN must always work.
std::string ExplainPlan(const PlanPtr& plan, const Environment& env,
                        const StreamStore* streams,
                        const ExplainOptions& options = {});

/// Options for `ExplainAnalyzePlan`.
struct ExplainAnalyzeOptions {
  ExplainOptions explain;
  /// Evaluation instant; defaults to the environment's current instant.
  std::optional<Timestamp> instant;
  /// How per-tuple invocation failures are treated during the run.
  InvocationErrorPolicy error_policy = InvocationErrorPolicy::kFail;
};

/// EXPLAIN ANALYZE: *runs* the plan once (side effects of active
/// invocations included — exactly like executing the query) and renders
/// the operator tree with each node annotated with its actual output
/// rows, inclusive wall time, and the number of service invocations its
/// subtree issued, e.g.
///
/// ```
/// invoke[sendMessage]   -- ACTIVE β (actual rows=2 time=0.514ms invocations=2)
///   select[name != 'Carla']   -- (actual rows=2 time=0.004ms)
///     contacts   -- (actual rows=3 time=0.002ms)
/// ```
///
/// Like EXPLAIN, this never fails: if evaluation errors out, the tree is
/// rendered with whatever statistics were collected before the failure
/// and the error is appended on a trailing line.
std::string ExplainAnalyzePlan(const PlanPtr& plan, Environment* env,
                               StreamStore* streams,
                               const ExplainAnalyzeOptions& options = {});

/// Renders already-collected statistics against a plan — the building
/// block `ExplainAnalyzePlan` uses, exposed for callers that evaluate with
/// their own `EvalContext::stats` record (built for `plan`).
std::string RenderPlanWithStats(const PlanPtr& plan, const Environment& env,
                                const StreamStore* streams,
                                const PlanStats& stats,
                                const ExplainOptions& options = {});

}  // namespace serena

#endif  // SERENA_ALGEBRA_EXPLAIN_H_
