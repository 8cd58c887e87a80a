#ifndef SERENA_REWRITE_SEMANTIC_H_
#define SERENA_REWRITE_SEMANTIC_H_

#include <string>
#include <vector>

#include "algebra/plan.h"
#include "analysis/analyzer.h"

namespace serena {

/// One applied semantic rewrite, with its equivalence argument — the
/// EXPLAIN-level proof the shell's \optimize prints.
struct SemanticRewriteStep {
  /// "drop-dead-invoke", "narrow-projection", "drop-identity-projection",
  /// "prune-empty-subtree", "fold-constant-predicate",
  /// "drop-empty-setop-side".
  std::string rule;
  /// Label of the rewritten operator ("invoke[getTemperature]").
  std::string node;
  /// Why the rewritten plan is result- and action-equivalent (Def. 9).
  std::string proof;
};

struct SemanticRewriteResult {
  PlanPtr plan;
  std::vector<SemanticRewriteStep> steps;
  /// True when the rewrite was discarded because the needed-set rewriter
  /// failed on a folded intermediate — `plan` is then the original.
  bool reverted = false;

  bool changed() const { return !steps.empty() && !reverted; }
};

/// The analyzer-driven *semantic* optimization pass: turns the dataflow
/// facts the static analyzer proves (docs/ANALYSIS.md) into plan
/// rewrites instead of mere warnings. It runs the analyzer's Def. 4
/// needed-set computation over the plan and applies, bottom-up:
///
///  1. drop-dead-invoke (the SER021 fact): a *passive* β whose output
///     attributes are all provably dropped by the operators above is
///     removed — β extends each tuple 1:1 and deterministically (§3.2)
///     and a passive prototype has an empty action set (Def. 8), so the
///     final result and action set are unchanged while every physical
///     service call the node made per tick disappears.
///  2. narrow-projection (the SER052 projection analysis): π keeps only
///     the attributes some operator above actually consumes — guarded by
///     a duplicate-sensitivity analysis, because narrowing a projection
///     can merge tuples (relations are sets): the rule is blocked below
///     Aggregate, set operators, and S[...] streaming nodes.
///  3. drop-identity-projection: a π whose list equals its child's full
///     schema is the identity over sets and is removed.
///
/// Before the needed-set traversal, an abstract-interpretation pre-pass
/// (src/analysis/absint.h) folds what value-range dataflow proves:
///
///  4. prune-empty-subtree: a subtree that provably yields ∅ at *every*
///     instant (σ over a provably-false formula, a non-positive window,
///     range-disjoint join keys) is replaced by the ∅ leaf — guarded by
///     `ContainsActiveInvoke`, because discarding an ACTIVE invocation
///     would drop its action set even though no tuple survives
///     (Example 6). Facts that hold only for the current environment
///     contents (scan sizes in a one-shot context) are never folded.
///  5. fold-constant-predicate: σ whose formula is provably true (and
///     provably free of runtime type errors) is dropped — σ_true is the
///     identity.
///  6. drop-empty-setop-side: X ∪ ∅ = X and X ∖ ∅ = X when the ∅ side is
///     forever-empty and contains no ACTIVE invocation.
///
/// `context` feeds the abstract interpreter (a one-shot query may use
/// at-analysis-time facts for *diagnostics*, but rewrites stay restricted
/// to forever-sound facts either way).
///
/// The rewritten plan is not verified here: `optimizer::Pipeline` checks
/// it with `optimizer::VerifyStage` (identical root schema, no analyzer
/// errors) like every other stage, discards it on failure, and only then
/// counts the kept steps (`CountSemanticSteps`). Plans whose schema does
/// not infer are returned untouched — semantic facts are only
/// trustworthy on well-formed plans.
///
/// Caveat (documented in docs/REWRITES.md): dropping a dead invocation
/// assumes the invocation would have *succeeded*. Under the default
/// kFail error policy the original plan would abort the whole query on
/// a service error where the rewritten plan proceeds — the standard
/// semantic-optimization assumption that verification facts describe
/// the non-failing execution.
///
/// Metric: serena.rewrite.semantic.reverted (the rewriter failed).
Result<SemanticRewriteResult> SemanticOptimize(
    const PlanPtr& plan, const Environment& env, const StreamStore* streams,
    AnalysisContext context = AnalysisContext::kNeutral);

/// Counts kept steps per rule: serena.rewrite.semantic.dead_invokes,
/// serena.rewrite.semantic.narrowed_projections,
/// serena.rewrite.semantic.identity_projections and
/// serena.rewrite.semantic.folded (absint-driven steps).
void CountSemanticSteps(const std::vector<SemanticRewriteStep>& steps);

/// Human rendering of the applied steps, one "rule @ node: proof" line
/// each (empty string for no steps).
std::string RenderSemanticSteps(const std::vector<SemanticRewriteStep>& steps);

}  // namespace serena

#endif  // SERENA_REWRITE_SEMANTIC_H_
