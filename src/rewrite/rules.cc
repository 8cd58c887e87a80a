#include "rewrite/rules.h"

#include <algorithm>

namespace serena {

namespace {

bool ContainsAll(const std::vector<std::string>& haystack,
                 const std::vector<std::string>& needles) {
  for (const std::string& needle : needles) {
    if (std::find(haystack.begin(), haystack.end(), needle) ==
        haystack.end()) {
      return false;
    }
  }
  return true;
}

/// Shared engine for the selection-pushdown rules: splits the selection's
/// formula into conjuncts, pushes those satisfying `can_push` below the
/// unary child operator (rebuilt over them by `ReplaceChildren`), and
/// keeps the rest above. Returns nullptr when no conjunct is pushable.
template <typename CanPush>
Result<PlanPtr> PushConjuncts(const SelectNode& select, CanPush can_push) {
  std::vector<FormulaPtr> pushable;
  std::vector<FormulaPtr> rest;
  for (const FormulaPtr& conjunct : SplitConjuncts(select.formula())) {
    if (can_push(conjunct)) {
      pushable.push_back(conjunct);
    } else {
      rest.push_back(conjunct);
    }
  }
  if (pushable.empty()) return PlanPtr(nullptr);
  const PlanPtr& child = select.child();
  SERENA_ASSIGN_OR_RETURN(
      PlanPtr wrapped,
      ReplaceChildren(child, {Select(child->children()[0],
                                     CombineConjuncts(pushable))}));
  if (rest.empty()) return wrapped;
  return Select(std::move(wrapped), CombineConjuncts(rest));
}

// ---------------------------------------------------------------------------

class MergeSelectionsRule final : public RewriteRule {
 public:
  const char* name() const override { return "merge-selections"; }

  Result<PlanPtr> Apply(const PlanPtr& plan,
                        const RewriteContext&) const override {
    if (plan->kind() != PlanKind::kSelect) return PlanPtr(nullptr);
    const auto* outer = static_cast<const SelectNode*>(plan.get());
    if (outer->child()->kind() != PlanKind::kSelect) return PlanPtr(nullptr);
    const auto* inner = static_cast<const SelectNode*>(outer->child().get());
    return Select(inner->child(),
                  Formula::And(outer->formula(), inner->formula()));
  }
};

class CollapseProjectionsRule final : public RewriteRule {
 public:
  const char* name() const override { return "collapse-projections"; }

  Result<PlanPtr> Apply(const PlanPtr& plan,
                        const RewriteContext&) const override {
    if (plan->kind() != PlanKind::kProject) return PlanPtr(nullptr);
    const auto* outer = static_cast<const ProjectNode*>(plan.get());
    if (outer->child()->kind() != PlanKind::kProject) return PlanPtr(nullptr);
    const auto* inner = static_cast<const ProjectNode*>(outer->child().get());
    // Validity of the original plan implies L1 ⊆ L2.
    if (!ContainsAll(inner->attributes(), outer->attributes())) {
      return PlanPtr(nullptr);
    }
    return Project(inner->child(), outer->attributes());
  }
};

class PushSelectionBelowAssignRule final : public RewriteRule {
 public:
  const char* name() const override {
    return "push-selection-below-assign";
  }

  Result<PlanPtr> Apply(const PlanPtr& plan,
                        const RewriteContext&) const override {
    if (plan->kind() != PlanKind::kSelect) return PlanPtr(nullptr);
    const auto* select = static_cast<const SelectNode*>(plan.get());
    if (select->child()->kind() != PlanKind::kAssign) return PlanPtr(nullptr);
    const auto* assign = static_cast<const AssignNode*>(select->child().get());
    // Table 5 side condition: the realized attribute must not occur in the
    // pushed conjunct.
    return PushConjuncts(*select, [&](const FormulaPtr& conjunct) {
      return !FormulaReferences(*conjunct, assign->target());
    });
  }
};

class PushSelectionBelowInvokeRule final : public RewriteRule {
 public:
  const char* name() const override {
    return "push-selection-below-invoke";
  }

  Result<PlanPtr> Apply(const PlanPtr& plan,
                        const RewriteContext& ctx) const override {
    if (plan->kind() != PlanKind::kSelect) return PlanPtr(nullptr);
    const auto* select = static_cast<const SelectNode*>(plan.get());
    if (select->child()->kind() != PlanKind::kInvoke) return PlanPtr(nullptr);
    const auto* invoke = static_cast<const InvokeNode*>(select->child().get());
    if (ctx.env == nullptr) return PlanPtr(nullptr);

    // Resolve the binding pattern to check its activity.
    auto child_schema = invoke->child()->InferSchema(*ctx.env, ctx.streams);
    if (!child_schema.ok()) return PlanPtr(nullptr);
    auto bp = invoke->ResolveBindingPattern(**child_schema);
    if (!bp.ok()) return PlanPtr(nullptr);

    // §3.3: active binding patterns block reordering — pushing the
    // selection below the invocation would shrink the action set.
    if (bp->active()) return PlanPtr(nullptr);

    // The conjunct must stay valid below. It then cannot read the
    // invocation's outputs: they are virtual in any schema carrying ψ.
    return PushConjuncts(*select, [&](const FormulaPtr& conjunct) {
      return ReadsOnlyRealOf(*conjunct, **child_schema);
    });
  }
};

class PushSelectionBelowJoinRule final : public RewriteRule {
 public:
  const char* name() const override { return "push-selection-below-join"; }

  Result<PlanPtr> Apply(const PlanPtr& plan,
                        const RewriteContext& ctx) const override {
    if (plan->kind() != PlanKind::kSelect) return PlanPtr(nullptr);
    const auto* select = static_cast<const SelectNode*>(plan.get());
    if (select->child()->kind() != PlanKind::kJoin) return PlanPtr(nullptr);
    const auto* join = static_cast<const JoinNode*>(select->child().get());
    if (ctx.env == nullptr) return PlanPtr(nullptr);

    auto left_schema = join->left()->InferSchema(*ctx.env, ctx.streams);
    auto right_schema = join->right()->InferSchema(*ctx.env, ctx.streams);
    if (!left_schema.ok() || !right_schema.ok()) return PlanPtr(nullptr);

    // Partition conjuncts three ways: left side, right side, keep above.
    std::vector<FormulaPtr> into_left;
    std::vector<FormulaPtr> into_right;
    std::vector<FormulaPtr> rest;
    for (const FormulaPtr& conjunct : SplitConjuncts(select->formula())) {
      if (ReadsOnlyRealOf(*conjunct, **left_schema)) {
        into_left.push_back(conjunct);
      } else if (ReadsOnlyRealOf(*conjunct, **right_schema)) {
        into_right.push_back(conjunct);
      } else {
        rest.push_back(conjunct);
      }
    }
    if (into_left.empty() && into_right.empty()) return PlanPtr(nullptr);
    PlanPtr left = join->left();
    PlanPtr right = join->right();
    if (!into_left.empty()) {
      left = Select(std::move(left), CombineConjuncts(into_left));
    }
    if (!into_right.empty()) {
      right = Select(std::move(right), CombineConjuncts(into_right));
    }
    PlanPtr rebuilt = Join(std::move(left), std::move(right));
    if (rest.empty()) return rebuilt;
    return Select(std::move(rebuilt), CombineConjuncts(rest));
  }
};

class PushProjectionBelowAssignRule final : public RewriteRule {
 public:
  const char* name() const override {
    return "push-projection-below-assign";
  }

  Result<PlanPtr> Apply(const PlanPtr& plan,
                        const RewriteContext&) const override {
    if (plan->kind() != PlanKind::kProject) return PlanPtr(nullptr);
    const auto* project = static_cast<const ProjectNode*>(plan.get());
    if (project->child()->kind() != PlanKind::kAssign) {
      return PlanPtr(nullptr);
    }
    const auto* assign =
        static_cast<const AssignNode*>(project->child().get());
    // Table 5 side condition: A (and B, when assigning from an attribute)
    // must be kept by the projection.
    const std::vector<std::string>& kept = project->attributes();
    if (!ContainsAll(kept, {assign->target()})) return PlanPtr(nullptr);
    if (assign->from_attribute() &&
        !ContainsAll(kept, {assign->source_attribute()})) {
      return PlanPtr(nullptr);
    }
    return ReplaceChildren(project->child(),
                           {Project(assign->child(), kept)});
  }
};

class PushProjectionBelowInvokeRule final : public RewriteRule {
 public:
  const char* name() const override {
    return "push-projection-below-invoke";
  }

  Result<PlanPtr> Apply(const PlanPtr& plan,
                        const RewriteContext& ctx) const override {
    if (plan->kind() != PlanKind::kProject) return PlanPtr(nullptr);
    const auto* project = static_cast<const ProjectNode*>(plan.get());
    if (project->child()->kind() != PlanKind::kInvoke) {
      return PlanPtr(nullptr);
    }
    const auto* invoke =
        static_cast<const InvokeNode*>(project->child().get());
    if (ctx.env == nullptr) return PlanPtr(nullptr);

    auto child_schema = invoke->child()->InferSchema(*ctx.env, ctx.streams);
    if (!child_schema.ok()) return PlanPtr(nullptr);
    auto bp = invoke->ResolveBindingPattern(**child_schema);
    if (!bp.ok()) return PlanPtr(nullptr);

    // All attributes the pattern touches must be preserved by π.
    const std::vector<std::string>& kept = project->attributes();
    if (!ContainsAll(kept, {bp->service_attribute()})) {
      return PlanPtr(nullptr);
    }
    if (!ContainsAll(kept, bp->prototype().input().Names())) {
      return PlanPtr(nullptr);
    }
    if (!ContainsAll(kept, bp->prototype().output().Names())) {
      return PlanPtr(nullptr);
    }
    return ReplaceChildren(project->child(),
                           {Project(invoke->child(), kept)});
  }
};

class PushSelectionBelowRenameRule final : public RewriteRule {
 public:
  const char* name() const override {
    return "push-selection-below-rename";
  }

  Result<PlanPtr> Apply(const PlanPtr& plan,
                        const RewriteContext&) const override {
    if (plan->kind() != PlanKind::kSelect) return PlanPtr(nullptr);
    const auto* select = static_cast<const SelectNode*>(plan.get());
    if (select->child()->kind() != PlanKind::kRename) return PlanPtr(nullptr);
    const auto* rename = static_cast<const RenameNode*>(select->child().get());
    // F referencing the *old* name would be invalid above the rename, so
    // only the new name can occur; translate it back for the pushed copy.
    FormulaPtr translated =
        select->formula()->WithRenamedAttribute(rename->to(), rename->from());
    return Rename(Select(rename->child(), std::move(translated)),
                  rename->from(), rename->to());
  }
};

class PushSelectionBelowSetOpRule final : public RewriteRule {
 public:
  const char* name() const override {
    return "push-selection-below-set-op";
  }

  Result<PlanPtr> Apply(const PlanPtr& plan,
                        const RewriteContext&) const override {
    if (plan->kind() != PlanKind::kSelect) return PlanPtr(nullptr);
    const auto* select = static_cast<const SelectNode*>(plan.get());
    const PlanKind child_kind = select->child()->kind();
    if (child_kind != PlanKind::kUnion &&
        child_kind != PlanKind::kIntersect &&
        child_kind != PlanKind::kDifference) {
      return PlanPtr(nullptr);
    }
    const auto* set_op = static_cast<const SetOpNode*>(select->child().get());
    PlanPtr left = Select(set_op->left(), select->formula());
    switch (child_kind) {
      case PlanKind::kUnion:
        // σ distributes over both branches of ∪.
        return UnionOf(std::move(left),
                       Select(set_op->right(), select->formula()));
      case PlanKind::kIntersect:
        // σ(r1 ∩ r2) = σ(r1) ∩ r2 — filtering one side suffices.
        return IntersectOf(std::move(left), set_op->right());
      default:
        // σ(r1 − r2) = σ(r1) − r2.
        return DifferenceOf(std::move(left), set_op->right());
    }
  }
};

class PushAssignBelowJoinRule final : public RewriteRule {
 public:
  const char* name() const override { return "push-assign-below-join"; }

  Result<PlanPtr> Apply(const PlanPtr& plan,
                        const RewriteContext& ctx) const override {
    if (plan->kind() != PlanKind::kAssign) return PlanPtr(nullptr);
    const auto* assign = static_cast<const AssignNode*>(plan.get());
    if (assign->child()->kind() != PlanKind::kJoin) return PlanPtr(nullptr);
    if (ctx.env == nullptr) return PlanPtr(nullptr);
    const auto* join = static_cast<const JoinNode*>(assign->child().get());

    auto left_schema = join->left()->InferSchema(*ctx.env, ctx.streams);
    auto right_schema = join->right()->InferSchema(*ctx.env, ctx.streams);
    if (!left_schema.ok() || !right_schema.ok()) return PlanPtr(nullptr);

    // Table 5 side conditions: A lives (virtually) in R1 and must not be
    // realized by R2's side of the join; an attribute source must be a
    // real attribute of R1.
    auto pushable_into = [&](const ExtendedSchemaPtr& target,
                             const ExtendedSchemaPtr& other) {
      if (!target->IsVirtual(assign->target())) return false;
      if (other->IsReal(assign->target())) return false;
      if (assign->from_attribute() &&
          !target->IsReal(assign->source_attribute())) {
        return false;
      }
      return true;
    };
    if (pushable_into(*left_schema, *right_schema)) {
      SERENA_ASSIGN_OR_RETURN(PlanPtr left,
                              ReplaceChildren(plan, {join->left()}));
      return Join(std::move(left), join->right());
    }
    if (pushable_into(*right_schema, *left_schema)) {
      SERENA_ASSIGN_OR_RETURN(PlanPtr right,
                              ReplaceChildren(plan, {join->right()}));
      return Join(join->left(), std::move(right));
    }
    return PlanPtr(nullptr);
  }
};

class DeferInvokePastJoinRule final : public RewriteRule {
 public:
  const char* name() const override { return "defer-invoke-past-join"; }

  Result<PlanPtr> Apply(const PlanPtr& plan,
                        const RewriteContext& ctx) const override {
    if (plan->kind() != PlanKind::kJoin) return PlanPtr(nullptr);
    if (ctx.env == nullptr) return PlanPtr(nullptr);
    const auto* join = static_cast<const JoinNode*>(plan.get());

    // Lazy realization: lift a passive β from either join input above the
    // join, so the join prunes tuples before services are contacted.
    for (const bool invoke_on_left : {true, false}) {
      const PlanPtr& side = invoke_on_left ? join->left() : join->right();
      const PlanPtr& other = invoke_on_left ? join->right() : join->left();
      if (side->kind() != PlanKind::kInvoke) continue;
      const auto* invoke = static_cast<const InvokeNode*>(side.get());

      auto child_schema = invoke->child()->InferSchema(*ctx.env, ctx.streams);
      auto other_schema = other->InferSchema(*ctx.env, ctx.streams);
      if (!child_schema.ok() || !other_schema.ok()) continue;
      auto bp = invoke->ResolveBindingPattern(**child_schema);
      if (!bp.ok()) continue;
      // Active invocations never move (§3.3): the join could shrink the
      // action set.
      if (bp->active()) continue;
      // The realized outputs must not interact with the other side at
      // all — neither as join attributes nor by colliding names.
      bool output_clash = false;
      for (const Attribute& out : bp->prototype().output().attributes()) {
        if ((*other_schema)->Contains(out.name)) output_clash = true;
      }
      if (output_clash) continue;

      PlanPtr joined = invoke_on_left ? Join(invoke->child(), other)
                                      : Join(other, invoke->child());
      SERENA_ASSIGN_OR_RETURN(PlanPtr lifted,
                              ReplaceChildren(side, {std::move(joined)}));
      // The pattern must still resolve unambiguously above the join (the
      // other side could contribute a second pattern for the same
      // prototype).
      if (!lifted->InferSchema(*ctx.env, ctx.streams).ok()) continue;
      return lifted;
    }
    return PlanPtr(nullptr);
  }
};

}  // namespace

RewriteRulePtr MakeMergeSelectionsRule() {
  return std::make_shared<MergeSelectionsRule>();
}
RewriteRulePtr MakeCollapseProjectionsRule() {
  return std::make_shared<CollapseProjectionsRule>();
}
RewriteRulePtr MakePushSelectionBelowAssignRule() {
  return std::make_shared<PushSelectionBelowAssignRule>();
}
RewriteRulePtr MakePushSelectionBelowInvokeRule() {
  return std::make_shared<PushSelectionBelowInvokeRule>();
}
RewriteRulePtr MakePushSelectionBelowJoinRule() {
  return std::make_shared<PushSelectionBelowJoinRule>();
}
RewriteRulePtr MakePushProjectionBelowAssignRule() {
  return std::make_shared<PushProjectionBelowAssignRule>();
}
RewriteRulePtr MakePushProjectionBelowInvokeRule() {
  return std::make_shared<PushProjectionBelowInvokeRule>();
}
RewriteRulePtr MakePushSelectionBelowRenameRule() {
  return std::make_shared<PushSelectionBelowRenameRule>();
}
RewriteRulePtr MakePushSelectionBelowSetOpRule() {
  return std::make_shared<PushSelectionBelowSetOpRule>();
}
RewriteRulePtr MakePushAssignBelowJoinRule() {
  return std::make_shared<PushAssignBelowJoinRule>();
}
RewriteRulePtr MakeDeferInvokePastJoinRule() {
  return std::make_shared<DeferInvokePastJoinRule>();
}

std::vector<RewriteRulePtr> DefaultRuleSet() {
  return {
      MakeMergeSelectionsRule(),
      MakeCollapseProjectionsRule(),
      MakePushSelectionBelowAssignRule(),
      MakePushSelectionBelowInvokeRule(),
      MakePushSelectionBelowJoinRule(),
      MakePushSelectionBelowRenameRule(),
      MakePushSelectionBelowSetOpRule(),
      MakePushAssignBelowJoinRule(),
      MakeDeferInvokePastJoinRule(),
      MakePushProjectionBelowAssignRule(),
      MakePushProjectionBelowInvokeRule(),
  };
}

}  // namespace serena
