#ifndef SERENA_OPTIMIZER_PIPELINE_H_
#define SERENA_OPTIMIZER_PIPELINE_H_

#include <string>
#include <string_view>
#include <vector>

#include "optimizer/enumerator.h"
#include "rewrite/rewriter.h"
#include "rewrite/semantic.h"

namespace serena::optimizer {

/// Typed configuration of the optimizer pipeline — the one replacement
/// for the scattered `SERENA_*` optimizer toggles. The three stages run
/// in a fixed order; each can be switched off independently:
///
///   semantic  — analyzer-fact folds (drop dead β, narrow π, prune ∅ …)
///   cost      — the DP plan enumerator over join order and σ/β placement
///   rules     — the classic Table 5 rule rewriter (fixpoint, cost guard)
struct OptimizerOptions {
  bool semantic = true;
  bool cost = true;
  bool rules = true;
  /// Estimator constants shared by every stage that costs plans.
  CostModelOptions cost_options;
  /// Enumeration-space limits of the cost stage.
  EnumerationOptions enumeration;
  /// Explicit cost model; nullptr = `MakeDefaultCostModel` over the
  /// pipeline's environment (the learned backend).
  CostModelPtr cost_model;

  /// Parses a `--stages=` list: comma-separated `semantic`, `cost`,
  /// `rules` (listed stages on, the rest off), or the shorthands
  /// `all`/`on`/`1`/`true` (everything) and `none`/`off`/`0`/`false`
  /// (nothing). Errors name the unknown stage.
  static Result<OptimizerOptions> FromStages(std::string_view stages);

  /// The options' stage list as `FromStages` input ("semantic,cost,rules",
  /// "none", …).
  std::string StagesString() const;

  bool any() const { return semantic || cost || rules; }
};

/// What one `Pipeline::Optimize` run did — the EXPLAIN/shell-facing
/// summary of every stage.
struct PipelineReport {
  std::string stages;           ///< StagesString() of the run.
  std::string cost_model;       ///< Backing cost model name.
  /// Semantic stage.
  std::vector<SemanticRewriteStep> semantic_steps;
  bool semantic_reverted = false;
  /// Cost stage.
  bool cost_changed = false;
  bool cost_reverted = false;
  double chosen_cost = 0;
  double naive_cost = 0;
  std::size_t fragments = 0;
  std::size_t join_regions = 0;
  std::vector<RejectedPlan> rejected;
  std::size_t refingerprinted = 0;
  /// Rules stage.
  bool rules_changed = false;
  bool rules_reverted = false;

  bool changed() const {
    return (!semantic_steps.empty() && !semantic_reverted) || cost_changed ||
           rules_changed;
  }

  /// Multi-line human rendering (the shell's \optimize output): applied
  /// semantic proofs, chosen-vs-rejected enumeration costs, rule stage.
  std::string Render() const;
};

/// The Def. 9 guard every optimizer stage's output passes before the
/// pipeline keeps it: `candidate` must infer exactly `root_schema`
/// (attribute order included — rendering depends on it) and re-analyze
/// without errors (warnings off). It turns a hole in any stage's
/// reasoning into a no-op instead of a wrong answer.
bool VerifyStage(const PlanPtr& candidate, const ExtendedSchema& root_schema,
                 const Environment& env, const StreamStore* streams);

/// The optimizer facade: the single entry point for
/// `QueryProcessor::OptimizePlan`, the shell's `\optimize`, EXPLAIN and
/// `serena_lint`. Runs semantic folds → cost-based enumeration → classic
/// rules per `OptimizerOptions`, verifies each stage's output
/// (`VerifyStage`), maintains the `serena.optimizer.*` counters, and
/// registers fingerprint aliases for kept restructurings so runtime
/// statistics follow the plan shape.
class Pipeline {
 public:
  Pipeline(const Environment* env, const StreamStore* streams,
           OptimizerOptions options = {});

  /// Optimizes `plan` for execution in `context`. Never returns a plan
  /// with a different root schema: every stage that returns a new plan
  /// must pass `VerifyStage` against `plan`'s root schema, or its output
  /// is discarded and the stage reported as reverted. Without an
  /// environment nothing can be verified and `plan` is returned as is.
  /// `report`, when non-null, receives the per-stage summary.
  Result<PlanPtr> Optimize(const PlanPtr& plan, AnalysisContext context,
                           PipelineReport* report = nullptr) const;

  const OptimizerOptions& options() const { return options_; }
  void set_options(OptimizerOptions options);

  /// The model backing the cost stage and the rule rewriter's guard.
  const CostModelPtr& cost_model() const { return cost_model_; }

 private:
  const Environment* env_;
  const StreamStore* streams_;
  OptimizerOptions options_;
  CostModelPtr cost_model_;
  Rewriter rewriter_;
};

}  // namespace serena::optimizer

#endif  // SERENA_OPTIMIZER_PIPELINE_H_
