#include "algebra/plan.h"

#include <algorithm>
#include <optional>

#include "algebra/vectorized.h"
#include "common/hash.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/stats.h"
#include "obs/trace.h"

namespace serena {

Result<XRelation> PlanNode::EvaluateDispatch(EvalContext& ctx) const {
  if (vec::Enabled() && vec::IsFusedRoot(kind())) {
    if (std::optional<Result<XRelation>> batched =
            vec::TryExecute(*this, ctx);
        batched.has_value()) {
      return std::move(*batched);
    }
  }
  return EvaluateImpl(ctx);
}

Result<XRelation> PlanNode::Evaluate(EvalContext& ctx) const {
  // Operator span: nests under the enclosing query-step span (and any
  // parent operator), completing the tick→step→operator causal chain.
  std::optional<obs::Span> span;
  if (obs::TraceBuffer::Global().enabled()) {
    span.emplace(std::string("op.") + PlanKindToString(kind()), ctx.instant);
  }
  // Per-node actuals are the only per-evaluation record; the store and
  // the per-kind `serena.op.*` counters are fed from them.
  NodeRuntimeStats* stats =
      ctx.stats != nullptr ? ctx.stats->Find(this) : nullptr;
  if (stats == nullptr) return EvaluateDispatch(ctx);

  const InvocationTally before = ctx.invocations;
  const bool timed = ctx.stats->timed();
  const std::uint64_t start_ns = timed ? obs::MonotonicNowNs() : 0;
  Result<XRelation> result = EvaluateDispatch(ctx);
  if (timed) stats->wall_ns += obs::MonotonicNowNs() - start_ns;
  ++stats->evals;
  if (result.ok()) {
    stats->rows_out += static_cast<std::uint64_t>(result->size());
  } else {
    ++stats->errors;
  }
  stats->invocations +=
      ctx.invocations.logical_invocations - before.logical_invocations;
  stats->memo_hits += ctx.invocations.memo_hits - before.memo_hits;
  return result;
}

std::uint64_t PlanNode::StableFingerprint() const {
  if (fingerprint_known_.load(std::memory_order_acquire)) {
    return fingerprint_.load(std::memory_order_relaxed);
  }
  // Kind is prefixed separately: two operators could in principle render
  // identically while differing in kind, and the prefix keeps the
  // fingerprint honest if a ToString ever becomes ambiguous.
  std::string key = PlanKindToString(kind());
  key.push_back('|');
  key += ToString();
  const std::uint64_t hash = StableHash(key);
  fingerprint_.store(hash, std::memory_order_relaxed);
  fingerprint_known_.store(true, std::memory_order_release);
  return hash;
}

PlanStats::PlanStats(const PlanNode& root) {
  // Iterative DFS; a shared subtree gets one ordinal. Ordinals are the
  // visit order, so children are resolved once every node is numbered.
  std::vector<const PlanNode*> pending = {&root};
  while (!pending.empty()) {
    const PlanNode* node = pending.back();
    pending.pop_back();
    if (Ordinal(node) != kNoOrdinal) continue;
    const auto ordinal = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back(Node{node, 0, 0});
    by_address_.insert(std::upper_bound(by_address_.begin(),
                                        by_address_.end(),
                                        std::pair(node, ordinal)),
                       std::pair(node, ordinal));
    for (const PlanPtr& child : node->children()) {
      pending.push_back(child.get());
    }
  }
  for (Node& entry : nodes_) {
    entry.first_child = static_cast<std::uint32_t>(child_ordinals_.size());
    for (const PlanPtr& child : entry.node->children()) {
      child_ordinals_.push_back(Ordinal(child.get()));
    }
    entry.child_count =
        static_cast<std::uint32_t>(child_ordinals_.size()) - entry.first_child;
  }
  stats_.resize(nodes_.size());
}

std::uint32_t PlanStats::Ordinal(const PlanNode* node) const {
  const auto it = std::lower_bound(
      by_address_.begin(), by_address_.end(), node,
      [](const auto& entry, const PlanNode* key) { return entry.first < key; });
  return it == by_address_.end() || it->first != node ? kNoOrdinal
                                                      : it->second;
}

const NodeRuntimeStats* PlanStats::Find(const PlanNode* node) const {
  const std::uint32_t ordinal = Ordinal(node);
  return ordinal == kNoOrdinal ? nullptr : &stats_[ordinal];
}

NodeRuntimeStats* PlanStats::Find(const PlanNode* node) {
  return const_cast<NodeRuntimeStats*>(std::as_const(*this).Find(node));
}

std::uint64_t PlanStats::RowsIn(std::size_t ordinal) const {
  const Node& entry = nodes_[ordinal];
  std::uint64_t rows = 0;
  for (std::uint32_t i = 0; i < entry.child_count; ++i) {
    rows += stats_[child_ordinals_[entry.first_child + i]].rows_out;
  }
  return rows;
}

std::uint64_t PlanStats::LeafRowsOut() const {
  std::uint64_t rows = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].child_count == 0) rows += stats_[i].rows_out;
  }
  return rows;
}

void PlanStats::Reset() {
  std::fill(stats_.begin(), stats_.end(), NodeRuntimeStats{});
}

const char* PlanKindToString(PlanKind kind) {
  switch (kind) {
    case PlanKind::kScan:
      return "scan";
    case PlanKind::kUnion:
      return "union";
    case PlanKind::kIntersect:
      return "intersect";
    case PlanKind::kDifference:
      return "difference";
    case PlanKind::kProject:
      return "project";
    case PlanKind::kSelect:
      return "select";
    case PlanKind::kRename:
      return "rename";
    case PlanKind::kJoin:
      return "join";
    case PlanKind::kAssign:
      return "assign";
    case PlanKind::kInvoke:
      return "invoke";
    case PlanKind::kAggregate:
      return "aggregate";
    case PlanKind::kWindow:
      return "window";
    case PlanKind::kStreaming:
      return "stream";
    case PlanKind::kEmpty:
      return "empty";
  }
  return "?";
}

const char* StreamingTypeToString(StreamingType type) {
  switch (type) {
    case StreamingType::kInsertion:
      return "insertion";
    case StreamingType::kDeletion:
      return "deletion";
    case StreamingType::kHeartbeat:
      return "heartbeat";
  }
  return "?";
}

Result<StreamingType> StreamingTypeFromString(std::string_view name) {
  const std::string lower = ToLower(name);
  if (lower == "insertion") return StreamingType::kInsertion;
  if (lower == "deletion") return StreamingType::kDeletion;
  if (lower == "heartbeat") return StreamingType::kHeartbeat;
  return Status::ParseError("unknown streaming type: ", std::string(name));
}

// ---------------------------------------------------------------------------
// ScanNode
// ---------------------------------------------------------------------------

Result<ExtendedSchemaPtr> ScanNode::InferSchema(
    const Environment& env, const StreamStore* /*streams*/) const {
  SERENA_ASSIGN_OR_RETURN(const XRelation* relation,
                          env.GetRelation(relation_));
  return relation->schema_ptr();
}

Result<XRelation> ScanNode::EvaluateImpl(EvalContext& ctx) const {
  if (ctx.env == nullptr) {
    return Status::InvalidArgument("evaluation context has no environment");
  }
  SERENA_ASSIGN_OR_RETURN(const XRelation* relation,
                          ctx.env->GetRelation(relation_));
  return *relation;  // Copy: plans must not alias environment storage.
}

// ---------------------------------------------------------------------------
// SetOpNode
// ---------------------------------------------------------------------------

Result<ExtendedSchemaPtr> SetOpNode::InferSchema(
    const Environment& env, const StreamStore* streams) const {
  SERENA_ASSIGN_OR_RETURN(ExtendedSchemaPtr left,
                          left_->InferSchema(env, streams));
  SERENA_ASSIGN_OR_RETURN(ExtendedSchemaPtr right,
                          right_->InferSchema(env, streams));
  return SetOpSchema(left, right, PlanKindToString(kind()));
}

Result<XRelation> SetOpNode::EvaluateImpl(EvalContext& ctx) const {
  SERENA_ASSIGN_OR_RETURN(XRelation left, left_->Evaluate(ctx));
  SERENA_ASSIGN_OR_RETURN(XRelation right, right_->Evaluate(ctx));
  switch (kind()) {
    case PlanKind::kUnion:
      return Union(left, right);
    case PlanKind::kIntersect:
      return Intersect(left, right);
    case PlanKind::kDifference:
      return Difference(left, right);
    default:
      return Status::Internal("SetOpNode with non-set kind");
  }
}

std::string SetOpNode::ToString() const {
  return std::string(PlanKindToString(kind())) + "(" + left_->ToString() +
         ", " + right_->ToString() + ")";
}

// ---------------------------------------------------------------------------
// ProjectNode
// ---------------------------------------------------------------------------

Result<ExtendedSchemaPtr> ProjectNode::InferSchema(
    const Environment& env, const StreamStore* streams) const {
  SERENA_ASSIGN_OR_RETURN(ExtendedSchemaPtr child,
                          child_->InferSchema(env, streams));
  return ProjectSchema(child, attributes_);
}

Result<XRelation> ProjectNode::EvaluateImpl(EvalContext& ctx) const {
  SERENA_ASSIGN_OR_RETURN(XRelation child, child_->Evaluate(ctx));
  return Project(child, attributes_);
}

std::string ProjectNode::ToString() const {
  return "project[" + Join(attributes_, ", ") + "](" + child_->ToString() +
         ")";
}

// ---------------------------------------------------------------------------
// SelectNode
// ---------------------------------------------------------------------------

Result<ExtendedSchemaPtr> SelectNode::InferSchema(
    const Environment& env, const StreamStore* streams) const {
  SERENA_ASSIGN_OR_RETURN(ExtendedSchemaPtr child,
                          child_->InferSchema(env, streams));
  return SelectSchema(child, formula_);
}

Result<XRelation> SelectNode::EvaluateImpl(EvalContext& ctx) const {
  SERENA_ASSIGN_OR_RETURN(XRelation child, child_->Evaluate(ctx));
  return Select(child, formula_);
}

std::string SelectNode::ToString() const {
  return "select[" + formula_->ToString() + "](" + child_->ToString() + ")";
}

// ---------------------------------------------------------------------------
// RenameNode
// ---------------------------------------------------------------------------

Result<ExtendedSchemaPtr> RenameNode::InferSchema(
    const Environment& env, const StreamStore* streams) const {
  SERENA_ASSIGN_OR_RETURN(ExtendedSchemaPtr child,
                          child_->InferSchema(env, streams));
  return RenameSchema(child, from_, to_);
}

Result<XRelation> RenameNode::EvaluateImpl(EvalContext& ctx) const {
  SERENA_ASSIGN_OR_RETURN(XRelation child, child_->Evaluate(ctx));
  return Rename(child, from_, to_);
}

std::string RenameNode::ToString() const {
  return "rename[" + from_ + " -> " + to_ + "](" + child_->ToString() + ")";
}

// ---------------------------------------------------------------------------
// JoinNode
// ---------------------------------------------------------------------------

Result<ExtendedSchemaPtr> JoinNode::InferSchema(
    const Environment& env, const StreamStore* streams) const {
  SERENA_ASSIGN_OR_RETURN(ExtendedSchemaPtr left,
                          left_->InferSchema(env, streams));
  SERENA_ASSIGN_OR_RETURN(ExtendedSchemaPtr right,
                          right_->InferSchema(env, streams));
  return JoinSchema(left, right);
}

Result<XRelation> JoinNode::EvaluateImpl(EvalContext& ctx) const {
  SERENA_ASSIGN_OR_RETURN(XRelation left, left_->Evaluate(ctx));
  SERENA_ASSIGN_OR_RETURN(XRelation right, right_->Evaluate(ctx));
  return NaturalJoin(left, right);
}

std::string JoinNode::ToString() const {
  return "join(" + left_->ToString() + ", " + right_->ToString() + ")";
}

// ---------------------------------------------------------------------------
// AssignNode
// ---------------------------------------------------------------------------

Result<ExtendedSchemaPtr> AssignNode::InferSchema(
    const Environment& env, const StreamStore* streams) const {
  SERENA_ASSIGN_OR_RETURN(ExtendedSchemaPtr child,
                          child_->InferSchema(env, streams));
  // A parameter assignment types like a constant of the target's type.
  if (from_attribute() && !child->IsReal(source_attribute_)) {
    return Status::InvalidArgument("assign: source attribute '",
                                   source_attribute_,
                                   "' must be a real attribute");
  }
  return AssignSchema(child, target_);
}

Result<XRelation> AssignNode::EvaluateImpl(EvalContext& ctx) const {
  if (from_parameter()) {
    return Status::FailedPrecondition(
        "unbound parameter :", parameter_,
        " (use BindParameters before execution)");
  }
  SERENA_ASSIGN_OR_RETURN(XRelation child, child_->Evaluate(ctx));
  if (from_attribute()) {
    return AssignFromAttribute(child, target_, source_attribute_);
  }
  return AssignConstant(child, target_, *constant_);
}

std::string AssignNode::ToString() const {
  std::string rhs;
  if (from_parameter()) {
    rhs = ":" + parameter_;
  } else if (from_attribute()) {
    rhs = source_attribute_;
  } else {
    rhs = constant_->ToString();
  }
  return "assign[" + target_ + " := " + rhs + "](" + child_->ToString() + ")";
}

// ---------------------------------------------------------------------------
// InvokeNode
// ---------------------------------------------------------------------------

Result<BindingPattern> InvokeNode::ResolveBindingPattern(
    const ExtendedSchema& child_schema) const {
  const BindingPattern* bp =
      child_schema.FindBindingPattern(prototype_, service_attribute_);
  if (bp == nullptr) {
    return Status::InvalidArgument(
        "invoke: no (unambiguous) binding pattern for prototype '",
        prototype_, "'",
        service_attribute_.empty()
            ? std::string()
            : " with service attribute '" + service_attribute_ + "'",
        " in schema '", child_schema.name(), "'");
  }
  return *bp;
}

bool InvokeNode::IsActive(const Environment& env,
                          const StreamStore* streams) const {
  auto schema = child_->InferSchema(env, streams);
  if (!schema.ok()) return true;  // Conservative.
  auto bp = ResolveBindingPattern(**schema);
  if (!bp.ok()) return true;  // Conservative.
  return bp->active();
}

Result<ExtendedSchemaPtr> InvokeNode::InferSchema(
    const Environment& env, const StreamStore* streams) const {
  SERENA_ASSIGN_OR_RETURN(ExtendedSchemaPtr child,
                          child_->InferSchema(env, streams));
  SERENA_ASSIGN_OR_RETURN(BindingPattern bp, ResolveBindingPattern(*child));
  return InvokeSchema(child, bp);
}

Result<XRelation> InvokeNode::EvaluateImpl(EvalContext& ctx) const {
  SERENA_ASSIGN_OR_RETURN(XRelation child, child_->Evaluate(ctx));
  SERENA_ASSIGN_OR_RETURN(BindingPattern bp,
                          ResolveBindingPattern(child.schema()));
  InvokeOptions options;
  options.instant = ctx.instant;
  options.error_policy = ctx.error_policy;
  options.actions = ctx.actions;
  options.action_sink = ctx.action_sink;
  options.pool = ctx.pool;
  options.tally = &ctx.invocations;

  // Streaming binding patterns (§7 extension): the service provides a
  // stream, so under continuous evaluation every standing tuple is
  // re-invoked each instant — the result is the per-instant slice of the
  // service's stream, never reused across instants.
  if (ctx.state == nullptr || bp.prototype().streaming()) {
    options.failed_tuples = ctx.failed_tuples;
    return Invoke(child, bp, &ctx.env->registry(), options);
  }

  // Continuous semantics (§4.2): invoke only for newly inserted tuples;
  // reuse previous outputs for standing tuples; drop outputs of deleted
  // tuples.
  NodeStateStore::NodeState& state = ctx.state->StateFor(this);

  XRelation fresh(child.schema_ptr());
  for (const Tuple& t : child.tuples()) {
    if (!state.prev_child.has_value() || !state.prev_child->Contains(t)) {
      fresh.InsertUnchecked(t);
    }
  }

  // Tuples whose invocation fails this instant (vanished service) must
  // not count as realized: exclude them from the remembered child so
  // they are retried as "fresh" once the service is back.
  std::vector<Tuple> failed;
  options.failed_tuples = &failed;
  SERENA_ASSIGN_OR_RETURN(XRelation fresh_output,
                          Invoke(fresh, bp, &ctx.env->registry(), options));

  if (state.prev_output.has_value() && !state.prev_output->empty()) {
    // Keep previous outputs whose source tuple still stands. The source
    // part of an output tuple is its projection onto the child's real
    // attributes.
    std::vector<std::size_t> source_coords;
    for (const std::string& name : child.schema().RealNames()) {
      source_coords.push_back(
          *state.prev_output->schema().CoordinateOf(name));
    }
    for (const Tuple& out : state.prev_output->tuples()) {
      Tuple source = out.Project(source_coords);
      if (child.Contains(source) && !fresh.Contains(source)) {
        fresh_output.InsertUnchecked(out);
      }
    }
  }

  for (const Tuple& t : failed) {
    child.Erase(t);
  }
  if (ctx.failed_tuples != nullptr) {
    ctx.failed_tuples->insert(ctx.failed_tuples->end(), failed.begin(),
                              failed.end());
  }
  state.prev_child = std::move(child);
  state.prev_output = fresh_output;
  return fresh_output;
}

std::string InvokeNode::ToString() const {
  std::string s = "invoke[" + prototype_;
  if (!service_attribute_.empty()) s += "[" + service_attribute_ + "]";
  s += "](" + child_->ToString() + ")";
  return s;
}

// ---------------------------------------------------------------------------
// AggregateNode
// ---------------------------------------------------------------------------

Result<ExtendedSchemaPtr> AggregateNode::InferSchema(
    const Environment& env, const StreamStore* streams) const {
  SERENA_ASSIGN_OR_RETURN(ExtendedSchemaPtr child,
                          child_->InferSchema(env, streams));
  return AggregateSchema(child, group_by_, aggregates_);
}

Result<XRelation> AggregateNode::EvaluateImpl(EvalContext& ctx) const {
  SERENA_ASSIGN_OR_RETURN(XRelation child, child_->Evaluate(ctx));
  return serena::Aggregate(child, group_by_, aggregates_);
}

std::string AggregateNode::ToString() const {
  std::string s = "aggregate[" + Join(group_by_, ", ") + "; ";
  for (std::size_t i = 0; i < aggregates_.size(); ++i) {
    if (i > 0) s += ", ";
    s += aggregates_[i].ToString();
  }
  s += "](" + child_->ToString() + ")";
  return s;
}

// ---------------------------------------------------------------------------
// WindowNode
// ---------------------------------------------------------------------------

Result<ExtendedSchemaPtr> WindowNode::InferSchema(
    const Environment& /*env*/, const StreamStore* streams) const {
  if (streams == nullptr) {
    return Status::FailedPrecondition(
        "window: no stream store available for stream '", stream_, "'");
  }
  SERENA_ASSIGN_OR_RETURN(const XDRelation* stream,
                          streams->GetStream(stream_));
  return stream->schema_ptr();
}

Result<XRelation> WindowNode::EvaluateImpl(EvalContext& ctx) const {
  if (ctx.streams == nullptr) {
    return Status::FailedPrecondition(
        "window: no stream store available for stream '", stream_, "'");
  }
  SERENA_ASSIGN_OR_RETURN(const XDRelation* stream,
                          ctx.streams->GetStream(stream_));
  XRelation result(stream->schema_ptr());
  std::vector<Tuple> slice =
      mode_ == WindowMode::kTime
          ? stream->InsertedDuring(ctx.instant - period_, ctx.instant)
          : stream->LastInserted(static_cast<std::size_t>(period_),
                                 ctx.instant);
  result.Reserve(slice.size());
  for (Tuple& t : slice) {
    result.InsertUnchecked(std::move(t));
  }
  return result;
}

std::string WindowNode::ToString() const {
  const std::string spec = mode_ == WindowMode::kRows
                               ? "rows " + std::to_string(period_)
                               : std::to_string(period_);
  return "window[" + spec + "](" + stream_ + ")";
}

// ---------------------------------------------------------------------------
// EmptyNode
// ---------------------------------------------------------------------------

Result<ExtendedSchemaPtr> EmptyNode::InferSchema(
    const Environment& /*env*/, const StreamStore* /*streams*/) const {
  return ExtendedSchema::Create("empty", attributes_);
}

Result<XRelation> EmptyNode::EvaluateImpl(EvalContext& ctx) const {
  (void)ctx;
  SERENA_ASSIGN_OR_RETURN(ExtendedSchemaPtr schema,
                          ExtendedSchema::Create("empty", attributes_));
  return XRelation(std::move(schema));
}

std::string EmptyNode::ToString() const {
  std::string s = "empty[";
  for (std::size_t i = 0; i < attributes_.size(); ++i) {
    if (i > 0) s += ", ";
    s += attributes_[i].ToString();
  }
  s += "]";
  return s;
}

// ---------------------------------------------------------------------------
// StreamingNode
// ---------------------------------------------------------------------------

Result<ExtendedSchemaPtr> StreamingNode::InferSchema(
    const Environment& env, const StreamStore* streams) const {
  return child_->InferSchema(env, streams);
}

Result<XRelation> StreamingNode::EvaluateImpl(EvalContext& ctx) const {
  if (ctx.state == nullptr) {
    return Status::FailedPrecondition(
        "streaming operator requires continuous evaluation (register the "
        "query with the continuous executor)");
  }
  SERENA_ASSIGN_OR_RETURN(XRelation child, child_->Evaluate(ctx));
  NodeStateStore::NodeState& state = ctx.state->StateFor(this);

  XRelation result(child.schema_ptr());
  switch (type_) {
    case StreamingType::kInsertion:
      for (const Tuple& t : child.tuples()) {
        if (!state.prev_child.has_value() || !state.prev_child->Contains(t)) {
          result.InsertUnchecked(t);
        }
      }
      break;
    case StreamingType::kDeletion:
      if (state.prev_child.has_value()) {
        for (const Tuple& t : state.prev_child->tuples()) {
          if (!child.Contains(t)) result.InsertUnchecked(t);
        }
      }
      break;
    case StreamingType::kHeartbeat:
      for (const Tuple& t : child.tuples()) result.InsertUnchecked(t);
      break;
  }
  state.prev_child = std::move(child);
  return result;
}

std::string StreamingNode::ToString() const {
  return std::string("stream[") + StreamingTypeToString(type_) + "](" +
         child_->ToString() + ")";
}

// ---------------------------------------------------------------------------
// Factories
// ---------------------------------------------------------------------------

PlanPtr Scan(std::string relation) {
  return std::make_shared<ScanNode>(std::move(relation));
}
PlanPtr UnionOf(PlanPtr left, PlanPtr right) {
  return std::make_shared<SetOpNode>(PlanKind::kUnion, std::move(left),
                                     std::move(right));
}
PlanPtr IntersectOf(PlanPtr left, PlanPtr right) {
  return std::make_shared<SetOpNode>(PlanKind::kIntersect, std::move(left),
                                     std::move(right));
}
PlanPtr DifferenceOf(PlanPtr left, PlanPtr right) {
  return std::make_shared<SetOpNode>(PlanKind::kDifference, std::move(left),
                                     std::move(right));
}
PlanPtr Project(PlanPtr child, std::vector<std::string> attributes) {
  return std::make_shared<ProjectNode>(std::move(child),
                                       std::move(attributes));
}
PlanPtr Select(PlanPtr child, FormulaPtr formula) {
  return std::make_shared<SelectNode>(std::move(child), std::move(formula));
}
PlanPtr Rename(PlanPtr child, std::string from, std::string to) {
  return std::make_shared<RenameNode>(std::move(child), std::move(from),
                                      std::move(to));
}
PlanPtr Join(PlanPtr left, PlanPtr right) {
  return std::make_shared<JoinNode>(std::move(left), std::move(right));
}
PlanPtr Assign(PlanPtr child, std::string target, std::string source) {
  return std::make_shared<AssignNode>(std::move(child), std::move(target),
                                      std::move(source));
}
PlanPtr Assign(PlanPtr child, std::string target, Value constant) {
  return std::make_shared<AssignNode>(std::move(child), std::move(target),
                                      std::move(constant));
}
PlanPtr AssignParam(PlanPtr child, std::string target,
                    std::string parameter) {
  return std::make_shared<AssignNode>(std::move(child), std::move(target),
                                      std::move(parameter),
                                      AssignNode::ParamTag{});
}
PlanPtr Invoke(PlanPtr child, std::string prototype,
               std::string service_attribute) {
  return std::make_shared<InvokeNode>(std::move(child), std::move(prototype),
                                      std::move(service_attribute));
}
PlanPtr Aggregate(PlanPtr child, std::vector<std::string> group_by,
                  std::vector<AggregateSpec> aggregates) {
  return std::make_shared<AggregateNode>(
      std::move(child), std::move(group_by), std::move(aggregates));
}
PlanPtr Window(std::string stream, Timestamp period, WindowMode mode) {
  return std::make_shared<WindowNode>(std::move(stream), period, mode);
}
PlanPtr Streaming(PlanPtr child, StreamingType type) {
  return std::make_shared<StreamingNode>(std::move(child), type);
}
PlanPtr Empty(std::vector<Attribute> attributes) {
  return std::make_shared<EmptyNode>(std::move(attributes));
}

// ---------------------------------------------------------------------------
// Whole-query helpers
// ---------------------------------------------------------------------------

Result<QueryResult> Execute(const PlanPtr& plan, Environment* env,
                            StreamStore* streams,
                            std::optional<Timestamp> instant) {
  if (plan == nullptr) return Status::InvalidArgument("null plan");
  if (env == nullptr) return Status::InvalidArgument("null environment");
  ActionSet actions;
  EvalContext ctx;
  ctx.env = env;
  ctx.streams = streams;
  ctx.instant = instant.value_or(env->clock().now());
  ctx.actions = &actions;
  // With metrics on, one-shot queries feed the runtime statistics store:
  // a scratch record gathers this evaluation's per-node actuals and
  // flushes them (even on failure — error counts matter) keyed by the
  // operators' stable fingerprints.
  const bool record_stats = obs::MetricsRegistry::Global().enabled();
  PlanStats scratch = record_stats ? PlanStats(*plan) : PlanStats();
  if (record_stats) ctx.stats = &scratch;
  Result<XRelation> relation = plan->Evaluate(ctx);
  if (record_stats) obs::StatsStore::Global().RecordPlan(scratch);
  if (!relation.ok()) return relation.status();
  return QueryResult{std::move(*relation), std::move(actions)};
}

Result<ActionSet> ComputeActionSet(const PlanPtr& plan, Environment* env,
                                   StreamStore* streams,
                                   std::optional<Timestamp> instant) {
  SERENA_ASSIGN_OR_RETURN(QueryResult result,
                          Execute(plan, env, streams, instant));
  return result.actions;
}

bool ContainsActiveInvoke(const PlanPtr& plan, const Environment& env,
                          const StreamStore* streams) {
  if (plan == nullptr) return false;
  if (plan->kind() == PlanKind::kInvoke) {
    const auto* node = static_cast<const InvokeNode*>(plan.get());
    if (node->IsActive(env, streams)) return true;
  }
  for (const PlanPtr& child : plan->children()) {
    if (ContainsActiveInvoke(child, env, streams)) return true;
  }
  return false;
}

Result<PlanPtr> ReplaceChildren(const PlanPtr& plan,
                                std::vector<PlanPtr> children) {
  if (plan == nullptr) return Status::InvalidArgument("null plan");
  const std::vector<PlanPtr> old_children = plan->children();
  if (old_children.size() != children.size()) {
    return Status::InvalidArgument(
        "ReplaceChildren: operator takes ", old_children.size(),
        " operand(s), got ", children.size());
  }
  bool same = true;
  for (std::size_t i = 0; same && i < children.size(); ++i) {
    same = old_children[i] == children[i];
  }
  if (same) return plan;

  switch (plan->kind()) {
    case PlanKind::kScan:
    case PlanKind::kWindow:
    case PlanKind::kEmpty:
      return plan;
    case PlanKind::kUnion:
      return UnionOf(children[0], children[1]);
    case PlanKind::kIntersect:
      return IntersectOf(children[0], children[1]);
    case PlanKind::kDifference:
      return DifferenceOf(children[0], children[1]);
    case PlanKind::kJoin:
      return Join(children[0], children[1]);
    case PlanKind::kProject: {
      const auto* node = static_cast<const ProjectNode*>(plan.get());
      return Project(children[0], node->attributes());
    }
    case PlanKind::kSelect: {
      const auto* node = static_cast<const SelectNode*>(plan.get());
      return Select(children[0], node->formula());
    }
    case PlanKind::kRename: {
      const auto* node = static_cast<const RenameNode*>(plan.get());
      return Rename(children[0], node->from(), node->to());
    }
    case PlanKind::kAssign: {
      const auto* node = static_cast<const AssignNode*>(plan.get());
      if (node->from_parameter()) {
        return AssignParam(children[0], node->target(), node->parameter());
      }
      return node->from_attribute()
                 ? Assign(children[0], node->target(),
                          node->source_attribute())
                 : Assign(children[0], node->target(), node->constant());
    }
    case PlanKind::kInvoke: {
      const auto* node = static_cast<const InvokeNode*>(plan.get());
      return Invoke(children[0], node->prototype(),
                    node->service_attribute());
    }
    case PlanKind::kAggregate: {
      const auto* node = static_cast<const AggregateNode*>(plan.get());
      return Aggregate(children[0], node->group_by(), node->aggregates());
    }
    case PlanKind::kStreaming: {
      const auto* node = static_cast<const StreamingNode*>(plan.get());
      return Streaming(children[0], node->type());
    }
  }
  return Status::Internal("unknown plan kind");
}

}  // namespace serena
