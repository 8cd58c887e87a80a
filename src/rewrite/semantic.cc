#include "rewrite/semantic.h"

#include <iterator>
#include <set>
#include <unordered_map>
#include <utility>

#include "analysis/absint.h"
#include "obs/metrics.h"

namespace serena {

namespace {

std::string LabelOf(const PlanNode& node) {
  switch (node.kind()) {
    case PlanKind::kInvoke:
      return "invoke[" +
             static_cast<const InvokeNode&>(node).prototype() + "]";
    case PlanKind::kSelect:
      return "select[" +
             static_cast<const SelectNode&>(node).formula()->ToString() + "]";
    case PlanKind::kProject: {
      std::string label = "project[";
      const auto& attrs = static_cast<const ProjectNode&>(node).attributes();
      for (std::size_t i = 0; i < attrs.size(); ++i) {
        if (i > 0) label += ", ";
        label += attrs[i];
      }
      return label + "]";
    }
    default:
      return PlanKindToString(node.kind());
  }
}

std::string RenderSet(const std::vector<std::string>& names) {
  std::string out = "{";
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out += ", ";
    out += names[i];
  }
  return out + "}";
}

void Count(const char* counter, std::uint64_t n = 1) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  if (metrics.enabled() && n > 0) metrics.GetCounter(counter).Increment(n);
}

/// The needed-set traversal (the analyzer's Def. 4 dataflow, extended
/// with the extra facts rewriting — unlike warning — must be sound
/// about):
///
///  - `value_needed`: attributes whose *values* some operator above can
///    still observe. A passive β none of whose outputs are value-needed
///    is dead (the SER021 fact, now actionable).
///  - `present_needed`: attributes that must stay *present* in the
///    schema for the operators above to stay well-formed — a superset
///    concern: β outputs must exist (virtual) below the β, α targets
///    must exist, ρ sources must exist, even when their values are
///    never observed. Projections may only drop attributes in neither
///    set.
///  - `narrow_ok`: whether merging tuples below this node is invisible
///    above. Relations are sets, so narrowing a projection can collapse
///    tuples that differed only on a dropped attribute; Aggregate
///    (count/sum observe cardinality), set operators (schema equality
///    plus per-tuple comparison) and S[...] (delta computation) above
///    make that observable, while 1:1 deterministic operators (σ, ρ, α,
///    β, ⋈) and π itself (collapses anyway) do not.
class SemanticRewriter {
 public:
  SemanticRewriter(const Environment& env, const StreamStore* streams)
      : env_(env), streams_(streams) {}

  std::vector<SemanticRewriteStep>& steps() { return steps_; }

  Result<PlanPtr> Transform(const PlanPtr& plan,
                            std::set<std::string> value_needed,
                            std::set<std::string> present_needed,
                            bool narrow_ok) {
    switch (plan->kind()) {
      case PlanKind::kScan:
      case PlanKind::kWindow:
      case PlanKind::kEmpty:
        return plan;

      case PlanKind::kProject:
        return TransformProject(static_cast<const ProjectNode&>(*plan), plan,
                                value_needed, present_needed, narrow_ok);

      case PlanKind::kSelect: {
        const auto& node = static_cast<const SelectNode&>(*plan);
        node.formula()->CollectAttributes(&value_needed);
        node.formula()->CollectAttributes(&present_needed);
        return Rebuild(plan, node.child(), std::move(value_needed),
                       std::move(present_needed), narrow_ok);
      }

      case PlanKind::kRename: {
        const auto& node = static_cast<const RenameNode&>(*plan);
        if (value_needed.erase(node.to()) > 0) {
          value_needed.insert(node.from());
        }
        present_needed.erase(node.to());
        present_needed.insert(node.from());
        return Rebuild(plan, node.child(), std::move(value_needed),
                       std::move(present_needed), narrow_ok);
      }

      case PlanKind::kAssign: {
        const auto& node = static_cast<const AssignNode&>(*plan);
        value_needed.erase(node.target());
        present_needed.insert(node.target());
        if (node.from_attribute()) {
          value_needed.insert(node.source_attribute());
          present_needed.insert(node.source_attribute());
        }
        return Rebuild(plan, node.child(), std::move(value_needed),
                       std::move(present_needed), narrow_ok);
      }

      case PlanKind::kInvoke:
        return TransformInvoke(static_cast<const InvokeNode&>(*plan), plan,
                               std::move(value_needed),
                               std::move(present_needed), narrow_ok);

      case PlanKind::kAggregate: {
        const auto& node = static_cast<const AggregateNode&>(*plan);
        std::set<std::string> child_needed(node.group_by().begin(),
                                           node.group_by().end());
        for (const AggregateSpec& spec : node.aggregates()) {
          if (!spec.input.empty()) child_needed.insert(spec.input);
        }
        // Aggregates observe cardinality (count/sum over the group), so
        // tuple-merging below must stay blocked.
        return Rebuild(plan, node.child(), child_needed, child_needed,
                       /*narrow_ok=*/false);
      }

      case PlanKind::kStreaming: {
        // S[...] diffs successive child relations tuple-by-tuple: every
        // attribute participates and merges change the deltas.
        const auto& node = static_cast<const StreamingNode&>(*plan);
        SERENA_ASSIGN_OR_RETURN(ExtendedSchemaPtr child_schema,
                                SchemaOf(node.child()));
        const std::vector<std::string> names = child_schema->AllNames();
        const std::set<std::string> all(names.begin(), names.end());
        return Rebuild(plan, node.child(), all, all, /*narrow_ok=*/false);
      }

      case PlanKind::kUnion:
      case PlanKind::kIntersect:
      case PlanKind::kDifference: {
        // Set operators require identical schemas on both sides and
        // compare whole tuples: both operands are barriers.
        std::vector<PlanPtr> children;
        for (const PlanPtr& child : plan->children()) {
          SERENA_ASSIGN_OR_RETURN(ExtendedSchemaPtr child_schema,
                                  SchemaOf(child));
          const std::vector<std::string> names = child_schema->AllNames();
          const std::set<std::string> all(names.begin(), names.end());
          SERENA_ASSIGN_OR_RETURN(
              PlanPtr transformed,
              Transform(child, all, all, /*narrow_ok=*/false));
          children.push_back(std::move(transformed));
        }
        return ReplaceChildren(plan, std::move(children));
      }

      case PlanKind::kJoin: {
        const auto& node = static_cast<const JoinNode&>(*plan);
        SERENA_ASSIGN_OR_RETURN(ExtendedSchemaPtr left, SchemaOf(node.left()));
        SERENA_ASSIGN_OR_RETURN(ExtendedSchemaPtr right,
                                SchemaOf(node.right()));
        // The natural join matches on shared real attributes — their
        // values are implicitly read. Presence on either side must not
        // change relative to the other side, or the join condition (and
        // the merged schema) silently shifts: each side must keep every
        // attribute the other side also carries.
        std::set<std::string> left_value = value_needed;
        std::set<std::string> right_value = std::move(value_needed);
        std::set<std::string> left_present = present_needed;
        std::set<std::string> right_present = std::move(present_needed);
        for (const std::string& name : left->RealNames()) {
          if (right->IsReal(name)) {
            left_value.insert(name);
            right_value.insert(name);
          }
        }
        for (const std::string& name : right->AllNames()) {
          if (left->Contains(name)) {
            left_present.insert(name);
            right_present.insert(name);
          }
        }
        SERENA_ASSIGN_OR_RETURN(
            PlanPtr new_left,
            Transform(node.left(), std::move(left_value),
                      std::move(left_present), narrow_ok));
        SERENA_ASSIGN_OR_RETURN(
            PlanPtr new_right,
            Transform(node.right(), std::move(right_value),
                      std::move(right_present), narrow_ok));
        return ReplaceChildren(
            plan, {std::move(new_left), std::move(new_right)});
      }
    }
    return Status::Internal("unknown plan kind");
  }

 private:
  /// Transforms the only child and rebuilds the node around it.
  Result<PlanPtr> Rebuild(const PlanPtr& plan, const PlanPtr& child,
                          std::set<std::string> value_needed,
                          std::set<std::string> present_needed,
                          bool narrow_ok) {
    SERENA_ASSIGN_OR_RETURN(
        PlanPtr transformed,
        Transform(child, std::move(value_needed), std::move(present_needed),
                  narrow_ok));
    return ReplaceChildren(plan, {std::move(transformed)});
  }

  Result<PlanPtr> TransformProject(const ProjectNode& node,
                                   const PlanPtr& plan,
                                   const std::set<std::string>& value_needed,
                                   const std::set<std::string>& present_needed,
                                   bool narrow_ok) {
    std::vector<std::string> kept;
    std::vector<std::string> dropped;
    for (const std::string& attr : node.attributes()) {
      if (value_needed.count(attr) > 0 || present_needed.count(attr) > 0) {
        kept.push_back(attr);
      } else {
        dropped.push_back(attr);
      }
    }
    std::vector<std::string> attributes = node.attributes();
    if (narrow_ok && !dropped.empty() && !kept.empty()) {
      steps_.push_back(SemanticRewriteStep{
          "narrow-projection", LabelOf(node),
          "attributes " + RenderSet(dropped) +
              " are neither read nor required by any operator above, and "
              "every operator between this projection and the next "
              "duplicate-collapsing point is insensitive to the merge "
              "(relations are sets): the narrowed projection yields the "
              "same final result and action set (Def. 9)"});
      attributes = std::move(kept);
    }

    // The child only has to satisfy what the (possibly narrowed)
    // projection still lists; π itself collapses duplicates, so deeper
    // narrowing becomes safe again.
    const std::set<std::string> child_needed(attributes.begin(),
                                             attributes.end());
    SERENA_ASSIGN_OR_RETURN(
        PlanPtr child,
        Transform(node.child(), child_needed, child_needed,
                  /*narrow_ok=*/true));

    SERENA_ASSIGN_OR_RETURN(ExtendedSchemaPtr child_schema, SchemaOf(child));
    if (attributes == child_schema->AllNames()) {
      steps_.push_back(SemanticRewriteStep{
          "drop-identity-projection", LabelOf(node),
          "the projection lists its input schema in order; over sets "
          "π is then the identity"});
      return child;
    }
    if (attributes == node.attributes()) {
      return ReplaceChildren(plan, {std::move(child)});
    }
    return Project(std::move(child), std::move(attributes));
  }

  Result<PlanPtr> TransformInvoke(const InvokeNode& node, const PlanPtr& plan,
                                  std::set<std::string> value_needed,
                                  std::set<std::string> present_needed,
                                  bool narrow_ok) {
    SERENA_ASSIGN_OR_RETURN(ExtendedSchemaPtr child_schema,
                            SchemaOf(node.child()));
    SERENA_ASSIGN_OR_RETURN(BindingPattern bp,
                            node.ResolveBindingPattern(*child_schema));
    std::vector<std::string> outputs;
    bool output_used = false;
    for (const Attribute& out : bp.prototype().output().attributes()) {
      outputs.push_back(out.name);
      if (value_needed.count(out.name) > 0) output_used = true;
    }

    // The SER021 fact as a rewrite: a passive invocation whose outputs
    // are all dropped contributes nothing — no values (unobserved), no
    // actions (Def. 8: passive prototypes have empty action sets), and
    // no cardinality change (β extends tuples 1:1, deterministically
    // per instant, §3.2). Its physical service calls are pure waste.
    if (!bp.active() && !output_used) {
      steps_.push_back(SemanticRewriteStep{
          "drop-dead-invoke", LabelOf(node),
          "prototype '" + bp.prototype().name() +
              "' is passive (empty action set, Def. 8), extends each tuple "
              "1:1 and deterministically (§3.2), and its outputs " +
              RenderSet(outputs) +
              " are dropped by every operator above: removing it leaves "
              "the result and action set unchanged (Def. 9) while saving "
              "one service call per input tuple per tick (assumes the "
              "calls would have succeeded)"});
      // The invocation's inputs are no longer needed either — deeper
      // projections may now narrow them away too.
      return Transform(node.child(), std::move(value_needed),
                       std::move(present_needed), narrow_ok);
    }

    for (const std::string& out : outputs) {
      value_needed.erase(out);
      // β realizes *existing* virtual attributes: they must stay
      // present below even though their (virtual) values are not read.
      present_needed.insert(out);
    }
    for (const Attribute& in : bp.prototype().input().attributes()) {
      value_needed.insert(in.name);
      present_needed.insert(in.name);
    }
    value_needed.insert(bp.service_attribute());
    present_needed.insert(bp.service_attribute());
    return Rebuild(plan, node.child(), std::move(value_needed),
                   std::move(present_needed), narrow_ok);
  }

  Result<ExtendedSchemaPtr> SchemaOf(const PlanPtr& plan) {
    const auto it = schemas_.find(plan.get());
    if (it != schemas_.end()) return it->second;
    SERENA_ASSIGN_OR_RETURN(ExtendedSchemaPtr schema,
                            plan->InferSchema(env_, streams_));
    schemas_.emplace(plan.get(), schema);
    return schema;
  }

  const Environment& env_;
  const StreamStore* streams_;
  std::vector<SemanticRewriteStep> steps_;
  std::unordered_map<const PlanNode*, ExtendedSchemaPtr> schemas_;
};

/// The absint-driven pre-pass: turns *forever-sound* emptiness and
/// tautology proofs of the abstract interpreter into folds. Facts that
/// rest on the current environment contents (`now_only` — e.g. scan
/// sizes in a one-shot context) are never acted on, and no subtree
/// containing an ACTIVE invocation is ever discarded — its action set
/// (Def. 8) fires regardless of whether its tuples survive (Example 6).
class AbsintFolder {
 public:
  AbsintFolder(const absint::AbsintResult& facts, const Environment& env,
               const StreamStore* streams,
               std::vector<SemanticRewriteStep>* steps)
      : facts_(facts), env_(env), streams_(streams), steps_(steps) {}

  Result<PlanPtr> Fold(const PlanPtr& plan) {
    // Rule: prune-empty-subtree. ∅ at every instant → the ∅ leaf.
    if (ProvablyEmptyForever(plan) && plan->kind() != PlanKind::kEmpty &&
        !ContainsActiveInvoke(plan, env_, streams_)) {
      SERENA_ASSIGN_OR_RETURN(ExtendedSchemaPtr schema,
                              plan->InferSchema(env_, streams_));
      // The ∅ leaf carries attributes but no binding patterns: a subtree
      // whose schema still offers patterns may feed a β above, so it is
      // kept intact (the SER072 diagnostic still reports it).
      if (schema->binding_patterns().empty()) {
        steps_->push_back(SemanticRewriteStep{
            "prune-empty-subtree", LabelOf(*plan),
            "the abstract interpreter proves this subtree yields ∅ at "
            "every instant" + OriginSuffix(plan) +
                "; it contains no ACTIVE invocation, so discarding it "
                "removes no actions (Def. 8): replaced by the ∅ leaf with "
                "the same attributes (result and action set unchanged, "
                "Def. 9; assumes the discarded operators would have "
                "evaluated without error)"});
        return Empty(schema->attributes());
      }
    }

    // Rule: fold-constant-predicate. A provably-true σ is the identity.
    if (plan->kind() == PlanKind::kSelect) {
      const auto& node = static_cast<const SelectNode&>(*plan);
      const auto verdict = facts_.select_verdicts.find(plan.get());
      if (verdict != facts_.select_verdicts.end() &&
          verdict->second == absint::TriBool::kTrue) {
        steps_->push_back(SemanticRewriteStep{
            "fold-constant-predicate", LabelOf(*plan),
            "selection formula '" + node.formula()->ToString() +
                "' is provably true for every input tuple (value-range "
                "dataflow) and cannot raise a runtime type error: σ_true is "
                "the identity, so dropping it leaves the result and action "
                "set unchanged (Def. 9)"});
        return Fold(node.child());
      }
    }

    // Rule: drop-empty-setop-side. X ∪ ∅ = X and X ∖ ∅ = X.
    if (plan->kind() == PlanKind::kUnion ||
        plan->kind() == PlanKind::kDifference) {
      const auto& node = static_cast<const SetOpNode&>(*plan);
      if (plan->kind() == PlanKind::kUnion &&
          ProvablyEmptyForever(node.left()) &&
          !ContainsActiveInvoke(node.left(), env_, streams_)) {
        steps_->push_back(SemanticRewriteStep{
            "drop-empty-setop-side", LabelOf(*plan),
            "the left operand provably yields ∅ at every instant" +
                OriginSuffix(node.left()) +
                " and contains no ACTIVE invocation: ∅ ∪ X = X (Def. 9)"});
        return Fold(node.right());
      }
      if (ProvablyEmptyForever(node.right()) &&
          !ContainsActiveInvoke(node.right(), env_, streams_)) {
        steps_->push_back(SemanticRewriteStep{
            "drop-empty-setop-side", LabelOf(*plan),
            std::string("the right operand provably yields ∅ at every "
                        "instant") +
                OriginSuffix(node.right()) +
                " and contains no ACTIVE invocation: " +
                (plan->kind() == PlanKind::kUnion ? "X ∪ ∅ = X"
                                                  : "X ∖ ∅ = X") +
                " (Def. 9)"});
        return Fold(node.left());
      }
    }

    std::vector<PlanPtr> children = plan->children();
    bool changed = false;
    for (PlanPtr& child : children) {
      SERENA_ASSIGN_OR_RETURN(PlanPtr folded, Fold(child));
      changed = changed || folded != child;
      child = std::move(folded);
    }
    if (!changed) return plan;
    return ReplaceChildren(plan, std::move(children));
  }

 private:
  bool ProvablyEmptyForever(const PlanPtr& plan) const {
    const auto it = facts_.states.find(plan.get());
    return it != facts_.states.end() && it->second.provably_empty() &&
           !it->second.now_only;
  }

  /// " (origin: select[...] — selection formula ... is provably false)".
  std::string OriginSuffix(const PlanPtr& plan) const {
    const PlanNode* origin = plan.get();
    bool descending = true;
    while (descending) {
      descending = false;
      for (const PlanPtr& child : origin->children()) {
        const auto it = facts_.states.find(child.get());
        if (it != facts_.states.end() && it->second.provably_empty()) {
          origin = child.get();
          descending = true;
          break;
        }
      }
    }
    const auto reason = facts_.empty_reasons.find(origin);
    if (reason == facts_.empty_reasons.end()) return "";
    return " (origin: " + LabelOf(*origin) + " — " + reason->second + ")";
  }

  const absint::AbsintResult& facts_;
  const Environment& env_;
  const StreamStore* streams_;
  std::vector<SemanticRewriteStep>* steps_;
};

}  // namespace

Result<SemanticRewriteResult> SemanticOptimize(const PlanPtr& plan,
                                               const Environment& env,
                                               const StreamStore* streams,
                                               AnalysisContext context) {
  if (plan == nullptr) return Status::InvalidArgument("null plan");
  SemanticRewriteResult result;
  result.plan = plan;

  // Semantic facts are only trustworthy on well-formed plans: a plan
  // whose schema does not infer is returned untouched (the analyzer
  // gate, not the optimizer, owns rejecting it).
  auto original_schema = plan->InferSchema(env, streams);
  if (!original_schema.ok()) return result;

  // Pre-pass: fold what the abstract interpreter proves (empty subtrees,
  // tautological filters, empty set-operation sides).
  PlanPtr current = plan;
  std::vector<SemanticRewriteStep> steps;
  absint::AbsintOptions absint_options;
  absint_options.context = context;
  const Result<absint::AbsintResult> facts =
      absint::Interpret(plan, env, streams, absint_options);
  if (facts.ok()) {
    AbsintFolder folder(*facts, env, streams, &steps);
    Result<PlanPtr> folded = folder.Fold(plan);
    if (folded.ok()) {
      current = std::move(*folded);
    } else {
      steps.clear();
      current = plan;
    }
  }

  SemanticRewriter rewriter(env, streams);
  const std::vector<std::string> root_names =
      (*original_schema)->AllNames();
  const std::set<std::string> root_needed(root_names.begin(),
                                          root_names.end());
  Result<PlanPtr> transformed_or =
      rewriter.Transform(current, root_needed, root_needed,
                         /*narrow_ok=*/true);
  if (!transformed_or.ok()) {
    // The rewriter choking on a folded intermediate must degrade to "no
    // rewrite", never to an error on a plan that was executable as
    // written.
    Count("serena.rewrite.semantic.reverted");
    result.steps = std::move(steps);
    result.reverted = true;
    return result;
  }
  PlanPtr transformed = std::move(*transformed_or);
  steps.insert(steps.end(),
               std::make_move_iterator(rewriter.steps().begin()),
               std::make_move_iterator(rewriter.steps().end()));
  result.steps = std::move(steps);
  if (result.steps.empty() || transformed == plan) {
    result.steps.clear();
    return result;
  }
  result.plan = std::move(transformed);
  return result;
}

void CountSemanticSteps(const std::vector<SemanticRewriteStep>& steps) {
  for (const SemanticRewriteStep& step : steps) {
    if (step.rule == "drop-dead-invoke") {
      Count("serena.rewrite.semantic.dead_invokes");
    } else if (step.rule == "narrow-projection") {
      Count("serena.rewrite.semantic.narrowed_projections");
    } else if (step.rule == "drop-identity-projection") {
      Count("serena.rewrite.semantic.identity_projections");
    } else if (step.rule == "prune-empty-subtree" ||
               step.rule == "fold-constant-predicate" ||
               step.rule == "drop-empty-setop-side") {
      Count("serena.rewrite.semantic.folded");
    }
  }
}

std::string RenderSemanticSteps(
    const std::vector<SemanticRewriteStep>& steps) {
  std::string out;
  for (const SemanticRewriteStep& step : steps) {
    out += step.rule;
    out += " @ ";
    out += step.node;
    out += ": ";
    out += step.proof;
    out += '\n';
  }
  return out;
}

}  // namespace serena
