#include "optimizer/pipeline.h"

#include <sstream>

#include "analysis/analyzer.h"
#include "obs/metrics.h"
#include "obs/stats.h"

namespace serena::optimizer {

namespace {

void Count(const char* counter, std::uint64_t n = 1) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  if (metrics.enabled() && n > 0) metrics.GetCounter(counter).Increment(n);
}

std::string Lowered(std::string_view text) {
  std::string out(text);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

}  // namespace

Result<OptimizerOptions> OptimizerOptions::FromStages(
    std::string_view stages) {
  OptimizerOptions options;
  const std::string lowered = Lowered(stages);
  if (lowered.empty() || lowered == "all" || lowered == "on" ||
      lowered == "1" || lowered == "true") {
    return options;
  }
  options.semantic = options.cost = options.rules = false;
  if (lowered == "none" || lowered == "off" || lowered == "0" ||
      lowered == "false") {
    return options;
  }
  std::stringstream stream(lowered);
  std::string stage;
  while (std::getline(stream, stage, ',')) {
    if (stage.empty()) continue;
    if (stage == "semantic") {
      options.semantic = true;
    } else if (stage == "cost") {
      options.cost = true;
    } else if (stage == "rules") {
      options.rules = true;
    } else {
      return Status::InvalidArgument(
          "unknown optimizer stage '" + stage +
          "' (expected semantic, cost, rules, all or none)");
    }
  }
  return options;
}

std::string OptimizerOptions::StagesString() const {
  if (!any()) return "none";
  std::string out;
  for (const auto& [on, name] :
       {std::pair<bool, const char*>{semantic, "semantic"},
        {cost, "cost"},
        {rules, "rules"}}) {
    if (!on) continue;
    if (!out.empty()) out += ',';
    out += name;
  }
  return out;
}

std::string PipelineReport::Render() const {
  std::ostringstream out;
  out << "optimizer stages: " << (stages.empty() ? "none" : stages)
      << " (cost model: " << (cost_model.empty() ? "none" : cost_model)
      << ")\n";
  if (!semantic_steps.empty() && !semantic_reverted) {
    out << RenderSemanticSteps(semantic_steps);
  }
  if (semantic_reverted) out << "semantic stage: reverted\n";
  if (cost_changed) {
    out << "cost-based enumeration: chose plan with estimated cost "
        << chosen_cost << " (naive " << naive_cost << ", " << join_regions
        << (join_regions == 1 ? " join region, " : " join regions, ")
        << fragments << " fragments)\n";
    for (const RejectedPlan& alternative : rejected) {
      out << "  rejected (cost " << alternative.cost
          << "): " << alternative.plan << "\n";
    }
  } else if (cost_reverted) {
    out << "cost-based enumeration: reverted\n";
  }
  if (rules_changed) {
    out << "rule rewriter: changed plan\n";
  } else if (rules_reverted) {
    out << "rule rewriter: reverted\n";
  }
  if (!changed()) out << "no change\n";
  return out.str();
}

bool VerifyStage(const PlanPtr& candidate, const ExtendedSchema& root_schema,
                 const Environment& env, const StreamStore* streams) {
  auto schema = candidate->InferSchema(env, streams);
  if (!schema.ok() || !(*schema)->SameAttributes(root_schema)) return false;
  AnalyzerOptions reanalyze;
  reanalyze.include_warnings = false;
  auto diagnostics = AnalyzePlan(candidate, env, streams, reanalyze);
  return diagnostics.ok() && IsValid(*diagnostics);
}

Pipeline::Pipeline(const Environment* env, const StreamStore* streams,
                   OptimizerOptions options)
    : env_(env),
      streams_(streams),
      options_(std::move(options)),
      cost_model_(options_.cost_model != nullptr
                      ? options_.cost_model
                      : MakeDefaultCostModel(env, streams,
                                             options_.cost_options)),
      rewriter_(env, streams, DefaultRuleSet(), cost_model_) {}

void Pipeline::set_options(OptimizerOptions options) {
  options_ = std::move(options);
  cost_model_ = options_.cost_model != nullptr
                    ? options_.cost_model
                    : MakeDefaultCostModel(env_, streams_,
                                           options_.cost_options);
  rewriter_ = Rewriter(env_, streams_, DefaultRuleSet(), cost_model_);
}

Result<PlanPtr> Pipeline::Optimize(const PlanPtr& plan,
                                   AnalysisContext context,
                                   PipelineReport* report) const {
  if (plan == nullptr) return Status::InvalidArgument("null plan");
  Count("serena.optimizer.runs");
  if (report != nullptr) {
    *report = PipelineReport{};
    report->stages = options_.StagesString();
    report->cost_model = cost_model_ != nullptr ? cost_model_->name() : "";
  }
  // Nothing can be verified without an environment.
  if (env_ == nullptr) return plan;
  PlanPtr current = plan;
  // Every stage's output is verified against `plan`'s root schema,
  // inferred on the first stage that returns a new plan: most
  // optimizations change nothing and never pay for it.
  ExtendedSchemaPtr root_schema;
  bool root_inferred = false;
  auto verified = [&](const PlanPtr& candidate) {
    if (!root_inferred) {
      root_inferred = true;
      if (auto schema = plan->InferSchema(*env_, streams_); schema.ok()) {
        root_schema = *schema;
      }
    }
    return root_schema != nullptr &&
           VerifyStage(candidate, *root_schema, *env_, streams_);
  };

  if (options_.semantic) {
    SERENA_ASSIGN_OR_RETURN(
        SemanticRewriteResult semantic,
        SemanticOptimize(current, *env_, streams_, context));
    const bool changed = semantic.plan != current;
    const bool kept = changed && verified(semantic.plan);
    if (kept) {
      Count("serena.optimizer.semantic.changed");
      CountSemanticSteps(semantic.steps);
      current = semantic.plan;
    } else if (changed) {
      Count("serena.rewrite.semantic.reverted");
    }
    if (report != nullptr) {
      report->semantic_steps = std::move(semantic.steps);
      report->semantic_reverted = semantic.reverted || (changed && !kept);
    }
  }

  if (options_.cost && cost_model_ != nullptr) {
    Count("serena.optimizer.cost.enumerated");
    SERENA_ASSIGN_OR_RETURN(
        EnumerationResult enumeration,
        EnumeratePlan(current, *env_, streams_, cost_model_,
                      options_.enumeration));
    Count("serena.optimizer.cost.fragments", enumeration.fragments);
    const bool changed = enumeration.plan != current;
    const bool kept = changed && verified(enumeration.plan);
    if (kept) {
      Count("serena.optimizer.cost.reordered");
      current = enumeration.plan;
      // Stats recorded for the old shape keep feeding EXPLAIN ANALYZE
      // deltas (and the learned cost model) under the new shape.
      auto& stats = obs::StatsStore::Global();
      for (const auto& [new_fingerprint, old_fingerprint] :
           enumeration.refingerprints) {
        stats.AddFingerprintAlias(new_fingerprint, old_fingerprint);
      }
    } else if (changed) {
      Count("serena.optimizer.cost.reverted");
    }
    if (report != nullptr) {
      report->cost_changed = kept;
      report->cost_reverted = changed && !kept;
      report->fragments = enumeration.fragments;
      report->join_regions = enumeration.join_regions;
      report->rejected = std::move(enumeration.rejected);
      if (kept) {
        report->chosen_cost = enumeration.chosen_cost;
        report->naive_cost = enumeration.naive_cost;
        report->refingerprinted = enumeration.refingerprints.size();
      }
    }
  }

  if (options_.rules) {
    SERENA_ASSIGN_OR_RETURN(PlanPtr rewritten, rewriter_.Optimize(current));
    const bool changed = rewritten != current;
    const bool kept = changed && verified(rewritten);
    if (kept) {
      Count("serena.optimizer.rules.changed");
      current = std::move(rewritten);
    } else if (changed) {
      Count("serena.optimizer.rules.reverted");
    }
    if (report != nullptr) {
      report->rules_changed = kept;
      report->rules_reverted = changed && !kept;
    }
  }
  return current;
}

}  // namespace serena::optimizer
