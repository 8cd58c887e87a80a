#include "analysis/analyzer.h"

#include <algorithm>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/absint.h"
#include "obs/metrics.h"
#include "optimizer/cost_model.h"

namespace serena {

namespace {

/// Operator label without children (mirrors the EXPLAIN rendering enough
/// for diagnostics; full fidelity is not required here).
std::string LabelOf(const PlanNode& node) {
  switch (node.kind()) {
    case PlanKind::kScan:
      return static_cast<const ScanNode&>(node).relation();
    case PlanKind::kSelect: {
      return "select[" +
             static_cast<const SelectNode&>(node).formula()->ToString() + "]";
    }
    case PlanKind::kInvoke: {
      const auto& n = static_cast<const InvokeNode&>(node);
      return "invoke[" + n.prototype() + "]";
    }
    case PlanKind::kAssign: {
      return "assign[" + static_cast<const AssignNode&>(node).target() + "]";
    }
    case PlanKind::kWindow: {
      return "window(" + static_cast<const WindowNode&>(node).stream() + ")";
    }
    default:
      return PlanKindToString(node.kind());
  }
}

/// Classic two-row Levenshtein distance, used only for "did you mean"
/// hints on small catalog names.
std::size_t EditDistance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> prev(b.size() + 1);
  std::vector<std::size_t> cur(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t subst = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, subst});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

/// The candidate within edit distance 2 of `name` (ties broken towards
/// the lexicographically first), or empty.
std::string ClosestName(const std::string& name,
                        const std::vector<std::string>& candidates) {
  std::string best;
  std::size_t best_distance = 3;  // Only distances 0..2 are suggestions.
  for (const std::string& candidate : candidates) {
    const std::size_t distance = EditDistance(name, candidate);
    if (distance < best_distance) {
      best_distance = distance;
      best = candidate;
    }
  }
  return best;
}

bool Contains(const std::string& haystack, std::string_view needle) {
  return haystack.find(needle) != std::string::npos;
}

class Analyzer {
 public:
  Analyzer(const Environment& env, const StreamStore* streams,
           const AnalyzerOptions& options)
      : env_(env), streams_(streams), options_(options) {}

  std::vector<Diagnostic> Run(const PlanPtr& plan) {
    (void)Resolve(plan);
    // The later passes interpret resolved schemas, so they only make
    // sense on plans that passed the well-formedness pass.
    if (CountErrors(diagnostics_) == 0) {
      const ExtendedSchemaPtr& root = schemas_[plan.get()];
      const std::vector<std::string> names = root->AllNames();
      const std::set<std::string> needed(names.begin(), names.end());
      Dataflow(plan, needed);
      SideEffects(plan, /*under_filter=*/false, /*only_filter=*/false);
      AbstractInterpretation(plan);
    }
    return std::move(diagnostics_);
  }

 private:
  /// A machine-applicable replacement carried alongside the prose hint.
  struct FixIt {
    std::string original;
    std::string replacement;
  };

  void Report(DiagCode code, Diagnostic::Severity severity,
              const PlanNode& node, std::string message,
              std::string hint = {}, FixIt fix = {}) {
    if (severity == Diagnostic::Severity::kWarning &&
        !options_.include_warnings) {
      return;
    }
    Diagnostic diagnostic{code,     severity,        LabelOf(node),
                          std::move(message), std::move(hint),
                          /*query=*/{}};
    diagnostic.fix_original = std::move(fix.original);
    diagnostic.fix_replacement = std::move(fix.replacement);
    diagnostics_.push_back(std::move(diagnostic));
  }
  void Error(DiagCode code, const PlanNode& node, std::string message,
             std::string hint = {}, FixIt fix = {}) {
    Report(code, Diagnostic::Severity::kError, node, std::move(message),
           std::move(hint), std::move(fix));
  }
  void Warn(DiagCode code, const PlanNode& node, std::string message,
            std::string hint = {}, FixIt fix = {}) {
    Report(code, Diagnostic::Severity::kWarning, node, std::move(message),
           std::move(hint), std::move(fix));
  }

  // -------------------------------------------------------------------
  // Pass 1: per-operator schema derivation (Table 3) with coded errors.
  // Children are always visited, so one broken subtree does not hide
  // findings in its siblings. One error per broken node.
  // -------------------------------------------------------------------

  std::optional<ExtendedSchemaPtr> Resolve(const PlanPtr& plan) {
    std::vector<std::optional<ExtendedSchemaPtr>> children;
    for (const PlanPtr& child : plan->children()) {
      children.push_back(Resolve(child));
    }
    for (const auto& child : children) {
      if (!child.has_value()) return std::nullopt;  // Already reported.
    }

    std::optional<ExtendedSchemaPtr> schema;
    switch (plan->kind()) {
      case PlanKind::kScan:
        schema = ResolveScan(static_cast<const ScanNode&>(*plan));
        break;
      case PlanKind::kWindow:
        schema = ResolveWindow(static_cast<const WindowNode&>(*plan));
        break;
      case PlanKind::kUnion:
      case PlanKind::kIntersect:
      case PlanKind::kDifference:
        schema = ResolveSetOp(*plan, *children[0], *children[1]);
        break;
      case PlanKind::kJoin:
        schema = ResolveJoin(*plan, *children[0], *children[1]);
        break;
      case PlanKind::kProject:
        schema = ResolveProject(static_cast<const ProjectNode&>(*plan),
                                *children[0]);
        break;
      case PlanKind::kSelect:
        schema = ResolveSelect(static_cast<const SelectNode&>(*plan),
                               *children[0]);
        break;
      case PlanKind::kRename:
        schema = ResolveRename(static_cast<const RenameNode&>(*plan),
                               *children[0]);
        break;
      case PlanKind::kAssign:
        schema = ResolveAssign(static_cast<const AssignNode&>(*plan),
                               *children[0]);
        break;
      case PlanKind::kInvoke:
        schema = ResolveInvoke(static_cast<const InvokeNode&>(*plan),
                               *children[0]);
        break;
      case PlanKind::kAggregate:
        schema = ResolveAggregate(static_cast<const AggregateNode&>(*plan),
                                  *children[0]);
        break;
      case PlanKind::kEmpty: {
        auto empty_schema = plan->InferSchema(env_, streams_);
        if (!empty_schema.ok()) {
          Error(DiagCode::kSchemaInference, *plan,
                empty_schema.status().message());
        } else {
          schema = *empty_schema;
        }
        break;
      }
      case PlanKind::kStreaming:
        // S[...] passes its child schema through (§4.2) but only
        // evaluates under a continuous executor.
        if (options_.context == AnalysisContext::kOneShot) {
          Error(DiagCode::kStreamingContext, *plan,
                "streaming operator requires continuous evaluation; "
                "one-shot execution of this plan will fail",
                "register the query with the continuous executor");
        } else if (options_.context == AnalysisContext::kNeutral) {
          Warn(DiagCode::kStreamingContext, *plan,
               "streaming operator requires continuous evaluation; "
               "one-shot execution of this plan will fail");
        }
        schema = *children[0];
        break;
    }
    if (schema.has_value()) schemas_[plan.get()] = *schema;
    return schema;
  }

  std::optional<ExtendedSchemaPtr> ResolveScan(const ScanNode& node) {
    auto relation = env_.GetRelation(node.relation());
    if (!relation.ok()) {
      std::string hint;
      FixIt fix;
      if (streams_ != nullptr && streams_->HasStream(node.relation())) {
        hint = "'" + node.relation() +
               "' is a stream — read it through a window, e.g. window[10](" +
               node.relation() + ")";
        fix = FixIt{node.relation(), "window[10](" + node.relation() + ")"};
      } else {
        const std::string closest =
            ClosestName(node.relation(), env_.RelationNames());
        if (!closest.empty()) {
          hint = "did you mean '" + closest + "'?";
          fix = FixIt{node.relation(), closest};
        }
      }
      Error(DiagCode::kUnknownRelation, node,
            "unknown relation '" + node.relation() + "'", std::move(hint),
            std::move(fix));
      return std::nullopt;
    }
    return (*relation)->schema_ptr();
  }

  std::optional<ExtendedSchemaPtr> ResolveWindow(const WindowNode& node) {
    if (streams_ == nullptr || !streams_->HasStream(node.stream())) {
      std::string hint;
      FixIt fix;
      if (env_.HasRelation(node.stream())) {
        hint = "'" + node.stream() +
               "' is a finite relation — scan it directly";
      } else if (streams_ != nullptr) {
        const std::string closest =
            ClosestName(node.stream(), streams_->StreamNames());
        if (!closest.empty()) {
          hint = "did you mean '" + closest + "'?";
          fix = FixIt{node.stream(), closest};
        }
      }
      Error(DiagCode::kUnknownStream, node,
            "unknown stream '" + node.stream() + "'", std::move(hint),
            std::move(fix));
      return std::nullopt;
    }
    if (node.period() <= 0) {
      Warn(DiagCode::kUnboundedWindow, node,
           node.mode() == WindowMode::kTime
               ? "time window of width 0 never sees any tuple"
               : "row window of size 0 never sees any tuple");
    } else if (node.mode() == WindowMode::kTime &&
               node.period() >= options_.unbounded_window_threshold) {
      Warn(DiagCode::kUnboundedWindow, node,
           "window spans " + std::to_string(node.period()) +
               " instants — effectively unbounded; stream history must be "
               "retained for the whole span");
    }
    return (*streams_->GetStream(node.stream()))->schema_ptr();
  }

  std::optional<ExtendedSchemaPtr> ResolveSetOp(
      const PlanNode& node, const ExtendedSchemaPtr& left,
      const ExtendedSchemaPtr& right) {
    auto schema = SetOpSchema(left, right, PlanKindToString(node.kind()));
    if (!schema.ok()) {
      Error(DiagCode::kSchemaMismatch, node, schema.status().message());
      return std::nullopt;
    }
    return *schema;
  }

  std::optional<ExtendedSchemaPtr> ResolveJoin(
      const PlanNode& node, const ExtendedSchemaPtr& left,
      const ExtendedSchemaPtr& right) {
    auto schema = JoinSchema(left, right);
    if (!schema.ok()) {
      Error(DiagCode::kSchemaMismatch, node, schema.status().message());
      return std::nullopt;
    }
    bool shared_real = false;
    for (const std::string& name : left->RealNames()) {
      if (right->IsReal(name)) shared_real = true;
    }
    if (!shared_real) {
      Warn(DiagCode::kCartesianJoin, node,
           "no attribute is real in both operands: the join degrades to a "
           "Cartesian product (Table 3 (d))");
    }
    return *schema;
  }

  std::optional<ExtendedSchemaPtr> ResolveProject(
      const ProjectNode& node, const ExtendedSchemaPtr& child) {
    auto schema = ProjectSchema(child, node.attributes());
    if (!schema.ok()) {
      Error(DiagCode::kInvalidOperatorArgs, node, schema.status().message());
      return std::nullopt;
    }
    if (!child->binding_patterns().empty() &&
        (*schema)->binding_patterns().empty()) {
      Warn(DiagCode::kPatternlessProjection, node,
           "projection eliminates every binding pattern: no further "
           "realization is possible above this operator");
    }
    return *schema;
  }

  std::optional<ExtendedSchemaPtr> ResolveSelect(
      const SelectNode& node, const ExtendedSchemaPtr& child) {
    auto schema = SelectSchema(child, node.formula());
    if (!schema.ok()) {
      // status() returns by value: take a copy, not a dangling reference.
      const std::string message = schema.status().message();
      if (Contains(message, "virtual attribute")) {
        Error(DiagCode::kVirtualRead, node, message,
              RealizationHintFor(*child, message));
      } else if (Contains(message, "unbound parameter")) {
        Error(DiagCode::kInvalidFormula, node, message,
              "bind parameters with BindParameters (or the shell's \\exec) "
              "before analysis");
      } else {
        Error(DiagCode::kInvalidFormula, node, message);
      }
      return std::nullopt;
    }
    return *schema;
  }

  std::optional<ExtendedSchemaPtr> ResolveRename(
      const RenameNode& node, const ExtendedSchemaPtr& child) {
    auto schema = RenameSchema(child, node.from(), node.to());
    if (!schema.ok()) {
      Error(DiagCode::kInvalidOperatorArgs, node, schema.status().message());
      return std::nullopt;
    }
    return *schema;
  }

  std::optional<ExtendedSchemaPtr> ResolveAssign(
      const AssignNode& node, const ExtendedSchemaPtr& child) {
    const Attribute* target = child->FindAttribute(node.target());
    if (target == nullptr) {
      Error(DiagCode::kInvalidOperatorArgs, node,
            "assign: attribute '" + node.target() + "' is not in schema '" +
                child->name() + "'");
      return std::nullopt;
    }
    if (target->is_real()) {
      Error(DiagCode::kAssignToReal, node,
            "assign: attribute '" + node.target() +
                "' is already real (realization is one-way, Table 3 (e))");
      return std::nullopt;
    }
    if (node.from_attribute()) {
      const Attribute* source = child->FindAttribute(node.source_attribute());
      if (source == nullptr) {
        Error(DiagCode::kInvalidOperatorArgs, node,
              "assign: source attribute '" + node.source_attribute() +
                  "' is not in schema '" + child->name() + "'");
        return std::nullopt;
      }
      if (!source->is_real()) {
        Error(DiagCode::kVirtualRead, node,
              "assign reads virtual attribute '" + node.source_attribute() +
                  "' (virtual attributes carry no value, Def. 3)",
              RealizationHintFor(*child, node.source_attribute()));
        return std::nullopt;
      }
    }
    auto schema = AssignSchema(child, node.target());
    if (!schema.ok()) {
      Error(DiagCode::kSchemaInference, node, schema.status().message());
      return std::nullopt;
    }
    return *schema;
  }

  std::optional<ExtendedSchemaPtr> ResolveInvoke(
      const InvokeNode& node, const ExtendedSchemaPtr& child) {
    auto bp = node.ResolveBindingPattern(*child);
    if (!bp.ok()) {
      std::string hint;
      if (child->binding_patterns().empty()) {
        hint = "schema '" + child->name() + "' declares no binding patterns";
      } else {
        hint = "available patterns:";
        for (const BindingPattern& candidate : child->binding_patterns()) {
          hint += " " + candidate.ToString();
        }
      }
      Error(DiagCode::kUnknownBindingPattern, node, bp.status().message(),
            std::move(hint));
      return std::nullopt;
    }
    bool inputs_ok = true;
    for (const Attribute& input : bp->prototype().input().attributes()) {
      if (!child->IsReal(input.name)) {
        inputs_ok = false;
        Error(DiagCode::kUnrealizedInput, node,
              "invoke: input attribute '" + input.name + "' of prototype '" +
                  bp->prototype().name() +
                  "' must be real before invocation (Def. 2)",
              "realize '" + input.name +
                  "' with an assignment (or a prior invocation) first");
      }
    }
    if (!inputs_ok) return std::nullopt;
    auto schema = InvokeSchema(child, *bp);
    if (!schema.ok()) {
      Error(DiagCode::kSchemaInference, node, schema.status().message());
      return std::nullopt;
    }
    return *schema;
  }

  std::optional<ExtendedSchemaPtr> ResolveAggregate(
      const AggregateNode& node, const ExtendedSchemaPtr& child) {
    // Check the attribute inputs ourselves so missing vs. virtual get
    // distinct codes; AggregateSchema handles the rest (types, names).
    std::vector<std::string> reads = node.group_by();
    for (const AggregateSpec& spec : node.aggregates()) {
      if (!spec.input.empty()) reads.push_back(spec.input);
    }
    bool reads_ok = true;
    for (const std::string& name : reads) {
      const Attribute* attr = child->FindAttribute(name);
      if (attr == nullptr) {
        reads_ok = false;
        Error(DiagCode::kInvalidOperatorArgs, node,
              "aggregate: attribute '" + name + "' is not in schema '" +
                  child->name() + "'");
      } else if (!attr->is_real()) {
        reads_ok = false;
        Error(DiagCode::kVirtualRead, node,
              "aggregate reads virtual attribute '" + name +
                  "' (virtual attributes carry no value, Def. 3)",
              RealizationHintFor(*child, name));
      }
    }
    if (!reads_ok) return std::nullopt;
    // Residual failures (aggregate typing, duplicate output names, ...)
    // carry the generic schema-inference code.
    auto schema = AggregateSchema(child, node.group_by(), node.aggregates());
    if (!schema.ok()) {
      Error(DiagCode::kSchemaInference, node, schema.status().message());
      return std::nullopt;
    }
    return *schema;
  }

  /// "realize it with invoke[getTemperature]" when some binding pattern of
  /// `schema` outputs `attribute` (or an attribute mentioned inside a
  /// formula error message).
  static std::string RealizationHintFor(const ExtendedSchema& schema,
                                        const std::string& attribute) {
    for (const BindingPattern& bp : schema.binding_patterns()) {
      for (const Attribute& out : bp.prototype().output().attributes()) {
        if (!attribute.empty() &&
            (attribute == out.name ||
             Contains(attribute, "'" + out.name + "'"))) {
          return "realize it first with invoke[" + bp.prototype().name() +
                 "]";
        }
      }
    }
    return {};
  }

  // -------------------------------------------------------------------
  // Pass 2: realization dataflow, top-down (Def. 4). `needed` is the set
  // of attribute names whose values the operators above can still
  // observe; a passive invocation whose outputs are all dropped is dead
  // weight (every physical call it makes is wasted).
  // -------------------------------------------------------------------

  void Dataflow(const PlanPtr& plan, const std::set<std::string>& needed) {
    switch (plan->kind()) {
      case PlanKind::kProject: {
        const auto& node = static_cast<const ProjectNode&>(*plan);
        Dataflow(node.child(), std::set<std::string>(
                                   node.attributes().begin(),
                                   node.attributes().end()));
        return;
      }
      case PlanKind::kSelect: {
        const auto& node = static_cast<const SelectNode&>(*plan);
        std::set<std::string> child_needed = needed;
        node.formula()->CollectAttributes(&child_needed);
        Dataflow(node.child(), child_needed);
        return;
      }
      case PlanKind::kRename: {
        const auto& node = static_cast<const RenameNode&>(*plan);
        std::set<std::string> child_needed = needed;
        if (child_needed.erase(node.to()) > 0) {
          child_needed.insert(node.from());
        }
        Dataflow(node.child(), child_needed);
        return;
      }
      case PlanKind::kAssign: {
        const auto& node = static_cast<const AssignNode&>(*plan);
        std::set<std::string> child_needed = needed;
        child_needed.erase(node.target());
        if (node.from_attribute()) {
          child_needed.insert(node.source_attribute());
        }
        Dataflow(node.child(), child_needed);
        return;
      }
      case PlanKind::kInvoke: {
        const auto& node = static_cast<const InvokeNode&>(*plan);
        const auto schema_it = schemas_.find(node.child().get());
        if (schema_it == schemas_.end()) return;
        auto bp = node.ResolveBindingPattern(*schema_it->second);
        if (!bp.ok()) return;  // Pass 1 would have reported this.
        std::set<std::string> child_needed = needed;
        bool output_used = false;
        for (const Attribute& out : bp->prototype().output().attributes()) {
          if (needed.count(out.name) > 0) output_used = true;
          child_needed.erase(out.name);
        }
        // An active invocation is *for* its side effect (Def. 8); only a
        // passive one with unobservable results is dead.
        if (!output_used && !bp->active()) {
          Warn(DiagCode::kDeadRealization, node,
               "results of this invocation are never used: every output "
               "attribute of prototype '" +
                   bp->prototype().name() +
                   "' is dropped by the operators above",
               "keep the output attributes in enclosing projections, or "
               "drop the invocation");
        }
        for (const Attribute& in : bp->prototype().input().attributes()) {
          child_needed.insert(in.name);
        }
        child_needed.insert(bp->service_attribute());
        Dataflow(node.child(), child_needed);
        return;
      }
      case PlanKind::kAggregate: {
        const auto& node = static_cast<const AggregateNode&>(*plan);
        std::set<std::string> child_needed(node.group_by().begin(),
                                           node.group_by().end());
        for (const AggregateSpec& spec : node.aggregates()) {
          if (!spec.input.empty()) child_needed.insert(spec.input);
        }
        Dataflow(node.child(), child_needed);
        return;
      }
      default:
        // Set operators, joins, streaming: attribute identity passes
        // through unchanged; leaves end the walk.
        for (const PlanPtr& child : plan->children()) {
          Dataflow(child, needed);
        }
        return;
    }
  }

  // -------------------------------------------------------------------
  // Pass 3: side effects (Def. 8). ACTIVE invocations fire for every
  // tuple reaching them; any filtering operator *above* them therefore
  // discards rows whose side effect already happened (Example 6, Q1').
  // -------------------------------------------------------------------

  void SideEffects(const PlanPtr& plan, bool under_filter, bool only_filter,
                   const PlanPtr* parent_select = nullptr) {
    if (plan->kind() == PlanKind::kInvoke) {
      const auto& node = static_cast<const InvokeNode&>(*plan);
      const auto schema_it = schemas_.find(node.child().get());
      if (schema_it != schemas_.end()) {
        auto bp = node.ResolveBindingPattern(*schema_it->second);
        if (bp.ok() && bp->active()) {
          if (only_filter) {
            Warn(DiagCode::kActiveOnlyFiltering, node,
                 "ACTIVE invocation on the discarded side of a set "
                 "operator: its results are used only to filter, but its "
                 "side effects still happen for every tuple",
                 "invoke a passive prototype here, or restructure so the "
                 "active invocation is on the surviving side");
          } else if (under_filter) {
            std::string hint = "filter before invoking if that is not "
                               "intended";
            FixIt fix;
            if (parent_select != nullptr) {
              fix = PushDownFix(*parent_select, node, &hint);
            }
            Warn(DiagCode::kActiveUnderFilter, node,
                 "ACTIVE invocation under a filtering operator: the filter "
                 "does not reduce the action set (Example 6's Q1' "
                 "pattern)",
                 std::move(hint), std::move(fix));
          }
        }
      }
    }
    switch (plan->kind()) {
      case PlanKind::kSelect:
        SideEffects(static_cast<const SelectNode&>(*plan).child(),
                    /*under_filter=*/true, only_filter, &plan);
        return;
      case PlanKind::kIntersect: {
        const auto& node = static_cast<const SetOpNode&>(*plan);
        SideEffects(node.left(), /*under_filter=*/true, only_filter);
        SideEffects(node.right(), /*under_filter=*/true, only_filter);
        return;
      }
      case PlanKind::kDifference: {
        const auto& node = static_cast<const SetOpNode&>(*plan);
        SideEffects(node.left(), /*under_filter=*/true, only_filter);
        SideEffects(node.right(), under_filter, /*only_filter=*/true);
        return;
      }
      default:
        for (const PlanPtr& child : plan->children()) {
          SideEffects(child, under_filter, only_filter);
        }
        return;
    }
  }

  /// SER030's structured remedy: `select[φ](invoke[β](X))` →
  /// `invoke[β](select[φ](X))`. Offered only when the filter is the
  /// invocation's *immediate* parent and φ reads attributes already real
  /// below the invocation, so the push-down is well-formed and the side
  /// effects it saves are exactly the filtered-out tuples'. The hint
  /// gains the static cost model's estimate of what the rewrite saves.
  FixIt PushDownFix(const PlanPtr& select_plan, const InvokeNode& invoke,
                    std::string* hint) {
    const auto& select = static_cast<const SelectNode&>(*select_plan);
    if (select.child().get() != &invoke) return {};
    const auto schema_it = schemas_.find(invoke.child().get());
    if (schema_it == schemas_.end()) return {};
    if (!ReadsOnlyRealOf(*select.formula(), *schema_it->second)) return {};
    const PlanPtr pushed =
        Invoke(Select(invoke.child(), select.formula()), invoke.prototype(),
               invoke.service_attribute());
    const auto model = optimizer::MakeStaticCostModel(&env_, streams_);
    const auto before = model->Estimate(select_plan);
    const auto after = model->Estimate(pushed);
    if (before.ok() && after.ok() && after->Total() < before->Total()) {
      std::ostringstream costs;
      costs << "; pushing the filter below the invocation cuts the "
               "estimated cost from "
            << before->Total() << " to " << after->Total();
      *hint += costs.str();
    }
    return FixIt{select_plan->ToString(), pushed->ToString()};
  }

  // -- Pass 6: abstract interpretation (SER070–SER074) ---------------------
  //
  // Value-range dataflow over the plan (src/analysis/absint.h):
  // unsatisfiable/tautological selections, provably-empty subtrees and
  // range-disjoint joins. Wall time accumulates into the
  // `serena.analyze.absint_ns` counter.
  void AbstractInterpretation(const PlanPtr& plan) {
    if (!options_.include_warnings) return;  // SER07x are all warnings.
    const std::uint64_t start_ns = obs::MonotonicNowNs();
    absint::AbsintOptions options;
    options.context = options_.context;
    Result<absint::AbsintResult> result =
        absint::Interpret(plan, env_, streams_, options);
    obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
    if (metrics.enabled()) {
      metrics.GetCounter("serena.analyze.absint_ns")
          .Increment(obs::MonotonicNowNs() - start_ns);
    }
    if (!result.ok()) return;
    for (Diagnostic& d : result->diagnostics) {
      diagnostics_.push_back(std::move(d));
    }
  }

  const Environment& env_;
  const StreamStore* streams_;
  const AnalyzerOptions& options_;
  std::vector<Diagnostic> diagnostics_;
  /// Resolved schema per node; complete on error-free plans.
  std::unordered_map<const PlanNode*, ExtendedSchemaPtr> schemas_;
};

void CountIntoMetrics(const std::vector<Diagnostic>& diagnostics) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  if (!metrics.enabled()) return;
  // One increment per analyzed plan — the scaling smoke asserts this
  // stays O(registrations), not O(registrations²), once registration
  // linting is incremental.
  metrics.GetCounter("serena.analyze.plans").Increment();
  const std::size_t errors = CountErrors(diagnostics);
  const std::size_t warnings = diagnostics.size() - errors;
  if (errors > 0) {
    metrics.GetCounter("serena.analyze.errors").Increment(errors);
  }
  if (warnings > 0) {
    metrics.GetCounter("serena.analyze.warnings").Increment(warnings);
  }
}

}  // namespace

Result<std::vector<Diagnostic>> AnalyzePlan(const PlanPtr& plan,
                                            const Environment& env,
                                            const StreamStore* streams,
                                            const AnalyzerOptions& options) {
  if (plan == nullptr) return Status::InvalidArgument("null plan");
  Analyzer analyzer(env, streams, options);
  std::vector<Diagnostic> diagnostics = analyzer.Run(plan);
  CountIntoMetrics(diagnostics);
  return diagnostics;
}

Result<std::vector<Diagnostic>> ValidatePlan(const PlanPtr& plan,
                                             const Environment& env,
                                             const StreamStore* streams) {
  return AnalyzePlan(plan, env, streams, AnalyzerOptions{});
}

}  // namespace serena
