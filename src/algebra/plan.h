#ifndef SERENA_ALGEBRA_PLAN_H_
#define SERENA_ALGEBRA_PLAN_H_

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "algebra/action.h"
#include "algebra/aggregate.h"
#include "algebra/formula.h"
#include "algebra/operators.h"
#include "common/clock.h"
#include "common/result.h"
#include "stream/stream_store.h"
#include "xrel/environment.h"
#include "xrel/xrelation.h"

namespace serena {

namespace vec {
class PipelineCache;
}  // namespace vec

class PlanNode;
using PlanPtr = std::shared_ptr<const PlanNode>;

/// The operator kinds of the (extended) Serena algebra.
enum class PlanKind {
  kScan,
  kUnion,
  kIntersect,
  kDifference,
  kProject,
  kSelect,
  kRename,
  kJoin,
  kAssign,
  kInvoke,
  kAggregate,
  kWindow,
  kStreaming,
  kEmpty,  ///< ∅ with a fixed schema — the result of provably-empty folds.
};

const char* PlanKindToString(PlanKind kind);

/// S[type] streaming operator flavors (§4.2).
enum class StreamingType { kInsertion, kDeletion, kHeartbeat };

const char* StreamingTypeToString(StreamingType type);
Result<StreamingType> StreamingTypeFromString(std::string_view name);

/// Per-node evaluation state enabling continuous semantics: the Streaming
/// operator needs the previous instant's child relation, and the
/// continuous invocation operator (§4.2) invokes services only for newly
/// inserted tuples, reusing previous outputs for standing tuples.
///
/// Owned by whoever runs a plan repeatedly (the ContinuousQuery executor);
/// keyed by node identity, so a state store must only ever be used with
/// one plan instance.
class NodeStateStore {
 public:
  struct NodeState {
    std::optional<XRelation> prev_child;
    std::optional<XRelation> prev_output;
  };

  NodeState& StateFor(const PlanNode* node) { return states_[node]; }
  void Clear() { states_.clear(); }

 private:
  std::unordered_map<const PlanNode*, NodeState> states_;
};

/// Actual execution statistics of one plan node over one evaluation of
/// its plan (a one-shot query, one standing-query step, or one EXPLAIN
/// ANALYZE); a subtree shared by several paths accumulates one eval per
/// path. Wall time is inclusive of children, like EXPLAIN ANALYZE in
/// classical engines.
struct NodeRuntimeStats {
  std::uint64_t evals = 0;
  std::uint64_t rows_out = 0;
  std::uint64_t wall_ns = 0;
  /// Logical service invocations issued while evaluating this subtree.
  std::uint64_t invocations = 0;
  /// Invocations answered from the per-instant memo (§3.2 determinism)
  /// while evaluating this subtree.
  std::uint64_t memo_hits = 0;
  std::uint64_t errors = 0;
  /// Tuple batches this operator emitted while running inside a fused
  /// vectorized pipeline (docs/VECTORIZATION.md). 0 for scalar
  /// evaluations — the EXPLAIN ANALYZE signal of which fusion ran.
  std::uint64_t batches = 0;
};

/// Per-node runtime statistics of one plan instance — the substrate of
/// EXPLAIN ANALYZE and of every standing query's runtime record. One
/// `NodeRuntimeStats` per distinct node, in a flat array indexed by the
/// node's *ordinal*: its position in a depth-first walk from the root
/// that visits a shared subtree once. The statistics store resolves its
/// records by the same ordinals. The shape is built once per plan;
/// recording an evaluation
/// resolves a node to its ordinal by binary search over the plan's node
/// addresses, so it allocates nothing and takes no lock.
class PlanStats {
 public:
  /// A plan with no nodes: records nothing.
  PlanStats() = default;
  explicit PlanStats(const PlanNode& root);

  /// Number of distinct nodes.
  std::size_t size() const { return nodes_.size(); }
  const PlanNode* node(std::size_t ordinal) const {
    return nodes_[ordinal].node;
  }

  /// What `OrdinalOf` returns for a node outside the plan.
  static constexpr std::size_t kNotInPlan = static_cast<std::size_t>(-1);
  /// `node`'s ordinal, or kNotInPlan.
  std::size_t OrdinalOf(const PlanNode* node) const {
    const std::uint32_t ordinal = Ordinal(node);
    return ordinal == kNoOrdinal ? kNotInPlan : ordinal;
  }

  NodeRuntimeStats& at(std::size_t ordinal) { return stats_[ordinal]; }
  const NodeRuntimeStats& at(std::size_t ordinal) const {
    return stats_[ordinal];
  }
  /// The statistics of `node`, or nullptr when it is not part of the plan.
  NodeRuntimeStats* Find(const PlanNode* node);
  const NodeRuntimeStats* Find(const PlanNode* node) const;

  /// Tuples that entered node `ordinal`: its children's outputs summed,
  /// a child reached through two operands twice (0 for leaves).
  std::uint64_t RowsIn(std::size_t ordinal) const;
  /// Tuples the plan's leaves emitted, each distinct leaf read once.
  std::uint64_t LeafRowsOut() const;

  /// Whether evaluations read the clock for `wall_ns` (default true).
  /// Evals, rows and invocation counts are kept either way.
  bool timed() const { return timed_; }
  void set_timed(bool timed) { timed_ = timed; }

  /// Zeroes every node's statistics; the shape stays.
  void Reset();

 private:
  struct Node {
    const PlanNode* node;
    /// The node's children's ordinals are
    /// `child_ordinals_[first_child, first_child + child_count)`, in
    /// operand order.
    std::uint32_t first_child;
    std::uint32_t child_count;
  };
  static constexpr std::uint32_t kNoOrdinal = static_cast<std::uint32_t>(-1);

  /// `node`'s ordinal, or kNoOrdinal.
  std::uint32_t Ordinal(const PlanNode* node) const;

  std::vector<Node> nodes_;
  std::vector<std::uint32_t> child_ordinals_;
  /// (node address, ordinal), sorted by address.
  std::vector<std::pair<const PlanNode*, std::uint32_t>> by_address_;
  std::vector<NodeRuntimeStats> stats_;
  bool timed_ = true;
};

/// Everything a plan needs to evaluate at one instant τ.
struct EvalContext {
  Environment* env = nullptr;
  /// Optional: named infinite XD-Relations, required by Window nodes.
  StreamStore* streams = nullptr;
  /// The evaluation instant (§3.2: all invocations occur "at" τ).
  Timestamp instant = 0;
  /// Optional collector for the query's action set (Def. 8).
  ActionSet* actions = nullptr;
  /// Optional per-action callback (sees every occurrence; the set above
  /// deduplicates).
  std::function<void(const Action&)> action_sink;
  InvocationErrorPolicy error_policy = InvocationErrorPolicy::kFail;
  /// Optional: enables continuous (delta-aware) semantics.
  NodeStateStore* state = nullptr;
  /// Optional: per-node actual rows/time/invocations of the evaluated
  /// plan land here (EXPLAIN ANALYZE, a standing query's runtime record,
  /// and through the statistics store the `serena.op.*` counters). Nodes
  /// outside the plan it was built for are not recorded. Timing is only
  /// paid when set and `timed()`.
  PlanStats* stats = nullptr;
  /// Pool used by Invoke nodes for concurrent physical service calls
  /// (nullptr = `ThreadPool::Shared()`). Evaluation results are
  /// deterministic regardless of the pool.
  ThreadPool* pool = nullptr;
  /// Optional: where the vectorized core keeps the fused pipelines it
  /// prepares, indexed by the ordinals of `stats` (nullptr = each
  /// pipeline is a temporary, prepared and run once). A standing query's
  /// runtime record owns one, so its steps rebind and run pipelines
  /// prepared at its first step instead of rebuilding them.
  vec::PipelineCache* pipelines = nullptr;
  /// Optional collector for input tuples whose invocation failed under
  /// `kSkipTuple` (the §4.2 retry set; surfaced by the flight recorder).
  std::vector<Tuple>* failed_tuples = nullptr;
  /// Running totals of the service invocations issued through this
  /// context. `Evaluate` charges each node the growth across its own
  /// evaluation, so queries stepping concurrently on one registry never
  /// count each other's calls.
  InvocationTally invocations;
};

/// A query over a relational pervasive environment (Def. 7): an immutable
/// tree of Serena algebra operators. Rewriting builds new trees; nodes are
/// shared via `PlanPtr`.
class PlanNode {
 public:
  virtual ~PlanNode() = default;

  PlanNode(const PlanNode&) = delete;
  PlanNode& operator=(const PlanNode&) = delete;

  PlanKind kind() const { return kind_; }

  /// Children in operand order (empty for leaves).
  virtual std::vector<PlanPtr> children() const = 0;

  /// Static schema inference: the schema of the X-Relation this node
  /// produces, per the output-schema rules of Table 3.
  virtual Result<ExtendedSchemaPtr> InferSchema(
      const Environment& env, const StreamStore* streams) const = 0;

  /// Evaluates the subtree at ctx.instant. Non-virtual: wraps the
  /// per-kind `EvaluateImpl` with instrumentation — when `ctx.stats` is
  /// set, this node's actuals land in its slot there. With tracing off
  /// and no record the wrapper is a relaxed atomic load plus the virtual
  /// call.
  Result<XRelation> Evaluate(EvalContext& ctx) const;

  /// The Serena Algebra Language rendering of this subtree; parseable by
  /// the algebra parser (round-trip).
  virtual std::string ToString() const = 0;

  /// Structural equality (by rendered form).
  bool Equals(const PlanNode& other) const {
    return ToString() == other.ToString();
  }

  /// The stable hash behind `obs::OperatorFingerprint`: of the operator
  /// kind plus the rendered subtree, computed on first use and kept
  /// (nodes are immutable).
  std::uint64_t StableFingerprint() const;

 protected:
  explicit PlanNode(PlanKind kind) : kind_(kind) {}

  /// The operator's evaluation logic; called only through `Evaluate`.
  virtual Result<XRelation> EvaluateImpl(EvalContext& ctx) const = 0;

 private:
  /// Routes the evaluation either through the vectorized batch core
  /// (fusable subtree, `SERENA_VECTORIZE` on) or the scalar
  /// `EvaluateImpl`. Both produce byte-identical relations.
  Result<XRelation> EvaluateDispatch(EvalContext& ctx) const;

  PlanKind kind_;
  /// `StableFingerprint`, valid once `fingerprint_known_` is set. Threads
  /// racing to compute it store the same value.
  mutable std::atomic<std::uint64_t> fingerprint_{0};
  mutable std::atomic<bool> fingerprint_known_{false};
};

// ---------------------------------------------------------------------------
// Node classes. Construct through the factory functions below; they are
// exposed so the rewriter can inspect operator arguments.
// ---------------------------------------------------------------------------

/// Leaf: reads a named X-Relation from the environment.
class ScanNode final : public PlanNode {
 public:
  explicit ScanNode(std::string relation)
      : PlanNode(PlanKind::kScan), relation_(std::move(relation)) {}

  const std::string& relation() const { return relation_; }

  std::vector<PlanPtr> children() const override { return {}; }
  Result<ExtendedSchemaPtr> InferSchema(
      const Environment& env, const StreamStore* streams) const override;
  Result<XRelation> EvaluateImpl(EvalContext& ctx) const override;
  std::string ToString() const override { return relation_; }

 private:
  std::string relation_;
};

/// union / intersect / difference.
class SetOpNode final : public PlanNode {
 public:
  SetOpNode(PlanKind kind, PlanPtr left, PlanPtr right)
      : PlanNode(kind), left_(std::move(left)), right_(std::move(right)) {}

  const PlanPtr& left() const { return left_; }
  const PlanPtr& right() const { return right_; }

  std::vector<PlanPtr> children() const override { return {left_, right_}; }
  Result<ExtendedSchemaPtr> InferSchema(
      const Environment& env, const StreamStore* streams) const override;
  Result<XRelation> EvaluateImpl(EvalContext& ctx) const override;
  std::string ToString() const override;

 private:
  PlanPtr left_;
  PlanPtr right_;
};

class ProjectNode final : public PlanNode {
 public:
  ProjectNode(PlanPtr child, std::vector<std::string> attributes)
      : PlanNode(PlanKind::kProject),
        child_(std::move(child)),
        attributes_(std::move(attributes)) {}

  const PlanPtr& child() const { return child_; }
  const std::vector<std::string>& attributes() const { return attributes_; }

  std::vector<PlanPtr> children() const override { return {child_}; }
  Result<ExtendedSchemaPtr> InferSchema(
      const Environment& env, const StreamStore* streams) const override;
  Result<XRelation> EvaluateImpl(EvalContext& ctx) const override;
  std::string ToString() const override;

 private:
  PlanPtr child_;
  std::vector<std::string> attributes_;
};

class SelectNode final : public PlanNode {
 public:
  SelectNode(PlanPtr child, FormulaPtr formula)
      : PlanNode(PlanKind::kSelect),
        child_(std::move(child)),
        formula_(std::move(formula)) {}

  const PlanPtr& child() const { return child_; }
  const FormulaPtr& formula() const { return formula_; }

  std::vector<PlanPtr> children() const override { return {child_}; }
  Result<ExtendedSchemaPtr> InferSchema(
      const Environment& env, const StreamStore* streams) const override;
  Result<XRelation> EvaluateImpl(EvalContext& ctx) const override;
  std::string ToString() const override;

 private:
  PlanPtr child_;
  FormulaPtr formula_;
};

class RenameNode final : public PlanNode {
 public:
  RenameNode(PlanPtr child, std::string from, std::string to)
      : PlanNode(PlanKind::kRename),
        child_(std::move(child)),
        from_(std::move(from)),
        to_(std::move(to)) {}

  const PlanPtr& child() const { return child_; }
  const std::string& from() const { return from_; }
  const std::string& to() const { return to_; }

  std::vector<PlanPtr> children() const override { return {child_}; }
  Result<ExtendedSchemaPtr> InferSchema(
      const Environment& env, const StreamStore* streams) const override;
  Result<XRelation> EvaluateImpl(EvalContext& ctx) const override;
  std::string ToString() const override;

 private:
  PlanPtr child_;
  std::string from_;
  std::string to_;
};

class JoinNode final : public PlanNode {
 public:
  JoinNode(PlanPtr left, PlanPtr right)
      : PlanNode(PlanKind::kJoin),
        left_(std::move(left)),
        right_(std::move(right)) {}

  const PlanPtr& left() const { return left_; }
  const PlanPtr& right() const { return right_; }

  std::vector<PlanPtr> children() const override { return {left_, right_}; }
  Result<ExtendedSchemaPtr> InferSchema(
      const Environment& env, const StreamStore* streams) const override;
  Result<XRelation> EvaluateImpl(EvalContext& ctx) const override;
  std::string ToString() const override;

 private:
  PlanPtr left_;
  PlanPtr right_;
};

/// α_{A:=B} (source attribute) or α_{A:=a} (constant).
class AssignNode final : public PlanNode {
 public:
  /// Assignment from a real attribute.
  AssignNode(PlanPtr child, std::string target, std::string source_attribute)
      : PlanNode(PlanKind::kAssign),
        child_(std::move(child)),
        target_(std::move(target)),
        source_attribute_(std::move(source_attribute)) {}

  /// Assignment of a constant.
  AssignNode(PlanPtr child, std::string target, Value constant)
      : PlanNode(PlanKind::kAssign),
        child_(std::move(child)),
        target_(std::move(target)),
        constant_(std::move(constant)) {}

  /// Tag type selecting the parameter-assignment constructor.
  struct ParamTag {};
  /// Assignment of a named parameter (`:name`), bound before execution.
  AssignNode(PlanPtr child, std::string target, std::string parameter,
             ParamTag)
      : PlanNode(PlanKind::kAssign),
        child_(std::move(child)),
        target_(std::move(target)),
        parameter_(std::move(parameter)) {}

  const PlanPtr& child() const { return child_; }
  const std::string& target() const { return target_; }
  bool from_parameter() const { return !parameter_.empty(); }
  bool from_attribute() const {
    return constant_ == std::nullopt && !from_parameter();
  }
  const std::string& source_attribute() const { return source_attribute_; }
  const std::string& parameter() const { return parameter_; }
  const Value& constant() const { return *constant_; }

  std::vector<PlanPtr> children() const override { return {child_}; }
  Result<ExtendedSchemaPtr> InferSchema(
      const Environment& env, const StreamStore* streams) const override;
  Result<XRelation> EvaluateImpl(EvalContext& ctx) const override;
  std::string ToString() const override;

 private:
  PlanPtr child_;
  std::string target_;
  std::string source_attribute_;
  std::string parameter_;
  std::optional<Value> constant_;
};

/// β_bp: invokes the binding pattern identified by prototype name (and
/// optionally the service attribute, when a schema carries several
/// patterns for the same prototype).
class InvokeNode final : public PlanNode {
 public:
  InvokeNode(PlanPtr child, std::string prototype,
             std::string service_attribute = {})
      : PlanNode(PlanKind::kInvoke),
        child_(std::move(child)),
        prototype_(std::move(prototype)),
        service_attribute_(std::move(service_attribute)) {}

  const PlanPtr& child() const { return child_; }
  const std::string& prototype() const { return prototype_; }
  const std::string& service_attribute() const { return service_attribute_; }

  /// Resolves the binding pattern against the child's schema.
  Result<BindingPattern> ResolveBindingPattern(
      const ExtendedSchema& child_schema) const;

  /// True if the resolved pattern is active. Conservatively true when the
  /// schema cannot be inferred.
  bool IsActive(const Environment& env, const StreamStore* streams) const;

  std::vector<PlanPtr> children() const override { return {child_}; }
  Result<ExtendedSchemaPtr> InferSchema(
      const Environment& env, const StreamStore* streams) const override;
  Result<XRelation> EvaluateImpl(EvalContext& ctx) const override;
  std::string ToString() const override;

 private:
  PlanPtr child_;
  std::string prototype_;
  std::string service_attribute_;
};

/// γ_{group_by; aggregates}: grouping with aggregation (count/sum/avg/
/// min/max) — the extension the §1.2 "mean temperature" queries need.
class AggregateNode final : public PlanNode {
 public:
  AggregateNode(PlanPtr child, std::vector<std::string> group_by,
                std::vector<AggregateSpec> aggregates)
      : PlanNode(PlanKind::kAggregate),
        child_(std::move(child)),
        group_by_(std::move(group_by)),
        aggregates_(std::move(aggregates)) {}

  const PlanPtr& child() const { return child_; }
  const std::vector<std::string>& group_by() const { return group_by_; }
  const std::vector<AggregateSpec>& aggregates() const { return aggregates_; }

  std::vector<PlanPtr> children() const override { return {child_}; }
  Result<ExtendedSchemaPtr> InferSchema(
      const Environment& env, const StreamStore* streams) const override;
  Result<XRelation> EvaluateImpl(EvalContext& ctx) const override;
  std::string ToString() const override;

 private:
  PlanPtr child_;
  std::vector<std::string> group_by_;
  std::vector<AggregateSpec> aggregates_;
};

/// How a window bounds the stream history it exposes.
enum class WindowMode {
  kTime,  ///< W[p]: tuples inserted during the last `p` instants (§4.2).
  kRows,  ///< W[rows n]: the last `n` inserted tuples (CQL's ROWS n).
};

/// W[period] / W[rows n]: leaf over a named infinite XD-Relation,
/// re-entering the finite algebra with a bounded slice of the stream.
class WindowNode final : public PlanNode {
 public:
  WindowNode(std::string stream, Timestamp period,
             WindowMode mode = WindowMode::kTime)
      : PlanNode(PlanKind::kWindow),
        stream_(std::move(stream)),
        period_(period),
        mode_(mode) {}

  const std::string& stream() const { return stream_; }
  Timestamp period() const { return period_; }
  WindowMode mode() const { return mode_; }

  std::vector<PlanPtr> children() const override { return {}; }
  Result<ExtendedSchemaPtr> InferSchema(
      const Environment& env, const StreamStore* streams) const override;
  Result<XRelation> EvaluateImpl(EvalContext& ctx) const override;
  std::string ToString() const override;

 private:
  std::string stream_;
  Timestamp period_;
  WindowMode mode_;
};

/// ∅ with a fixed schema: a leaf producing the empty X-Relation at every
/// instant. Never written by users — the semantic rewrite pass introduces
/// it when the abstract interpreter proves a subtree empty
/// (docs/REWRITES.md), so EXPLAIN can show the folded plan. Carries the
/// replaced subtree's attributes (binding patterns are dropped; the
/// verify-or-revert guard reverts folds whose consumers needed them).
class EmptyNode final : public PlanNode {
 public:
  explicit EmptyNode(std::vector<Attribute> attributes)
      : PlanNode(PlanKind::kEmpty), attributes_(std::move(attributes)) {}

  const std::vector<Attribute>& attributes() const { return attributes_; }

  std::vector<PlanPtr> children() const override { return {}; }
  Result<ExtendedSchemaPtr> InferSchema(
      const Environment& env, const StreamStore* streams) const override;
  Result<XRelation> EvaluateImpl(EvalContext& ctx) const override;
  std::string ToString() const override;

 private:
  std::vector<Attribute> attributes_;
};

/// S[insertion|deletion|heartbeat]: converts a finite XD-Relation into
/// stream deltas (§4.2). Requires continuous evaluation (a NodeStateStore).
class StreamingNode final : public PlanNode {
 public:
  StreamingNode(PlanPtr child, StreamingType type)
      : PlanNode(PlanKind::kStreaming),
        child_(std::move(child)),
        type_(type) {}

  const PlanPtr& child() const { return child_; }
  StreamingType type() const { return type_; }

  std::vector<PlanPtr> children() const override { return {child_}; }
  Result<ExtendedSchemaPtr> InferSchema(
      const Environment& env, const StreamStore* streams) const override;
  Result<XRelation> EvaluateImpl(EvalContext& ctx) const override;
  std::string ToString() const override;

 private:
  PlanPtr child_;
  StreamingType type_;
};

// ---------------------------------------------------------------------------
// Factory functions — the idiomatic way to build plans:
//   auto q = Invoke(Assign(Select(Scan("contacts"), f), "text", msg),
//                   "sendMessage");
// ---------------------------------------------------------------------------

PlanPtr Scan(std::string relation);
PlanPtr UnionOf(PlanPtr left, PlanPtr right);
PlanPtr IntersectOf(PlanPtr left, PlanPtr right);
PlanPtr DifferenceOf(PlanPtr left, PlanPtr right);
PlanPtr Project(PlanPtr child, std::vector<std::string> attributes);
PlanPtr Select(PlanPtr child, FormulaPtr formula);
PlanPtr Rename(PlanPtr child, std::string from, std::string to);
PlanPtr Join(PlanPtr left, PlanPtr right);
PlanPtr Assign(PlanPtr child, std::string target, std::string source);
PlanPtr Assign(PlanPtr child, std::string target, Value constant);
/// α_{A := :param}: assignment of a named parameter.
PlanPtr AssignParam(PlanPtr child, std::string target,
                    std::string parameter);
PlanPtr Invoke(PlanPtr child, std::string prototype,
               std::string service_attribute = {});
PlanPtr Aggregate(PlanPtr child, std::vector<std::string> group_by,
                  std::vector<AggregateSpec> aggregates);
PlanPtr Window(std::string stream, Timestamp period,
               WindowMode mode = WindowMode::kTime);
PlanPtr Streaming(PlanPtr child, StreamingType type);
/// ∅ with the given attributes (see EmptyNode).
PlanPtr Empty(std::vector<Attribute> attributes);

// ---------------------------------------------------------------------------
// Whole-query helpers.
// ---------------------------------------------------------------------------

/// The result of evaluating a query: its X-Relation plus its action set
/// (Def. 8).
struct QueryResult {
  XRelation relation;
  ActionSet actions;
};

/// One-shot evaluation of `plan` against `env` at the environment's
/// current instant (or `instant` when given), collecting the action set.
Result<QueryResult> Execute(const PlanPtr& plan, Environment* env,
                            StreamStore* streams = nullptr,
                            std::optional<Timestamp> instant = std::nullopt);

/// Actions_p(q) (Def. 8): evaluates the query and returns only the action
/// set it triggers.
Result<ActionSet> ComputeActionSet(const PlanPtr& plan, Environment* env,
                                   StreamStore* streams = nullptr,
                                   std::optional<Timestamp> instant =
                                       std::nullopt);

/// True if the subtree contains an invocation of an *active* binding
/// pattern (the rewrite barrier of §3.3).
bool ContainsActiveInvoke(const PlanPtr& plan, const Environment& env,
                          const StreamStore* streams);

/// Rebuilds `plan` with `children` substituted in operand order,
/// preserving every operator argument (identity — the same PlanPtr —
/// when all children are unchanged). The structural-rewrite primitive
/// shared by the classic rewriter and the semantic rewrite pass.
Result<PlanPtr> ReplaceChildren(const PlanPtr& plan,
                                std::vector<PlanPtr> children);

}  // namespace serena

#endif  // SERENA_ALGEBRA_PLAN_H_
