#ifndef SERENA_ALGEBRA_OPERATORS_H_
#define SERENA_ALGEBRA_OPERATORS_H_

#include <functional>
#include <string>
#include <vector>

#include "algebra/action.h"
#include "algebra/formula.h"
#include "common/clock.h"
#include "common/result.h"
#include "schema/extended_schema.h"
#include "service/service_registry.h"
#include "xrel/xrelation.h"

namespace serena {

class ThreadPool;

/// The Serena algebra operators of Table 3, as standalone evaluation
/// functions over X-Relations. Each operator also has a schema-only
/// counterpart (`*Schema`) used for static schema inference on query
/// plans; the data functions derive exactly the same output schema.
///
/// All Table 3 rules about binding-pattern propagation are implemented by
/// filtering the candidate patterns through Def. 2 validity on the output
/// schema: a pattern survives iff its service attribute is still a real
/// attribute and its prototype's input/output attributes are still
/// present/virtual respectively.

// ---------------------------------------------------------------------------
// Set operators (§3.1.1). Operands must have identical attribute sequences.
// ---------------------------------------------------------------------------

Result<XRelation> Union(const XRelation& r1, const XRelation& r2);
Result<XRelation> Intersect(const XRelation& r1, const XRelation& r2);
Result<XRelation> Difference(const XRelation& r1, const XRelation& r2);

Result<ExtendedSchemaPtr> SetOpSchema(const ExtendedSchemaPtr& s1,
                                      const ExtendedSchemaPtr& s2,
                                      const char* op_name);

// ---------------------------------------------------------------------------
// Projection π_Y (Table 3 (a)).
// ---------------------------------------------------------------------------

/// Output schema: attributes restricted to Y (preserving schema order);
/// binding patterns that reference dropped attributes are eliminated.
Result<ExtendedSchemaPtr> ProjectSchema(const ExtendedSchemaPtr& schema,
                                        const std::vector<std::string>& y);

/// s = { t[Y ∩ realSchema(R)] | t ∈ r }.
Result<XRelation> Project(const XRelation& r,
                          const std::vector<std::string>& y);

// ---------------------------------------------------------------------------
// Selection σ_F (Table 3 (b)).
// ---------------------------------------------------------------------------

/// Output schema = input schema; F must reference only real attributes.
Result<ExtendedSchemaPtr> SelectSchema(const ExtendedSchemaPtr& schema,
                                       const FormulaPtr& formula);

Result<XRelation> Select(const XRelation& r, const FormulaPtr& formula);

// ---------------------------------------------------------------------------
// Renaming ρ_{A→B} (Table 3 (c)).
// ---------------------------------------------------------------------------

Result<ExtendedSchemaPtr> RenameSchema(const ExtendedSchemaPtr& schema,
                                       const std::string& from,
                                       const std::string& to);

Result<XRelation> Rename(const XRelation& r, const std::string& from,
                         const std::string& to);

// ---------------------------------------------------------------------------
// Natural join ⋈ (Table 3 (d)).
// ---------------------------------------------------------------------------

/// schema(S) = schema(R1) ∪ schema(R2); an attribute is virtual in S only
/// if virtual in every operand containing it (join realizes virtuals met
/// by a real attribute on the other side). Binding patterns: union of both
/// operands' patterns, minus those whose outputs became real.
Result<ExtendedSchemaPtr> JoinSchema(const ExtendedSchemaPtr& s1,
                                     const ExtendedSchemaPtr& s2);

/// Join predicate: equality on attributes real in *both* operands; if none
/// exist the join degrades to a Cartesian product (Table 3 (d) note).
Result<XRelation> NaturalJoin(const XRelation& r1, const XRelation& r2);

/// The resolved execution plan of one natural join over operand schemas
/// (s1, s2): output schema, join-key coordinates on each side, and the
/// output-row construction plan. Shared by the scalar `NaturalJoin` and
/// the vectorized join cursor so both emit bit-identical rows.
struct JoinSpec {
  ExtendedSchemaPtr schema;
  /// Coordinates (in s1 / s2) of the attributes real in both operands —
  /// the equality predicate. Empty => Cartesian product.
  std::vector<std::size_t> key1;
  std::vector<std::size_t> key2;
  /// For each real output attribute: which side and coordinate supplies
  /// its value (side 1 wins for shared attributes).
  struct Source {
    bool from_r1;
    std::size_t coord;
  };
  std::vector<Source> sources;

  static Result<JoinSpec> Resolve(const ExtendedSchemaPtr& s1,
                                  const ExtendedSchemaPtr& s2);

  /// The output row for the matched pair (t1 ∈ r1, t2 ∈ r2).
  Tuple Merge(const Tuple& t1, const Tuple& t2) const;
};

// ---------------------------------------------------------------------------
// Assignment α_{A:=B} / α_{A:=a} (Table 3 (e)) — realization operator.
// ---------------------------------------------------------------------------

Result<ExtendedSchemaPtr> AssignSchema(const ExtendedSchemaPtr& schema,
                                       const std::string& target);

/// α_{A:=B}: realizes virtual attribute A with the value of real
/// attribute B on each tuple.
Result<XRelation> AssignFromAttribute(const XRelation& r,
                                      const std::string& target,
                                      const std::string& source);

/// α_{A:=a}: realizes virtual attribute A with constant a.
Result<XRelation> AssignConstant(const XRelation& r,
                                 const std::string& target,
                                 const Value& constant);

// ---------------------------------------------------------------------------
// Invocation β_bp (Table 3 (f)) — realization operator.
// ---------------------------------------------------------------------------

/// What to do when a per-tuple invocation fails (service unregistered,
/// fault, …). One-shot queries fail hard; the continuous executor skips
/// the tuple so a disappearing sensor cannot kill a standing query.
enum class InvocationErrorPolicy { kFail, kSkipTuple };

struct InvokeOptions {
  Timestamp instant = 0;
  InvocationErrorPolicy error_policy = InvocationErrorPolicy::kFail;
  /// If non-null, every *active* binding-pattern invocation is recorded
  /// here (Def. 8).
  ActionSet* actions = nullptr;
  /// Optional per-action callback, fired alongside `actions` — unlike the
  /// set, it observes every occurrence (audit logs with timestamps).
  std::function<void(const Action&)> action_sink;
  /// With kSkipTuple: if non-null, receives each input tuple whose
  /// invocation failed (so continuous evaluation can retry it next
  /// instant instead of treating it as realized).
  std::vector<Tuple>* failed_tuples = nullptr;
  /// Pool for the batched physical service calls (nullptr =
  /// `ThreadPool::Shared()`). Output order, `failed_tuples`, and action
  /// emission stay deterministic regardless of the pool: results are
  /// spliced serially in input-tuple order.
  ThreadPool* pool = nullptr;
  /// If non-null, receives this call's logical invocations and memo hits
  /// (the per-query share of the registry-wide counters).
  InvocationTally* tally = nullptr;
};

Result<ExtendedSchemaPtr> InvokeSchema(const ExtendedSchemaPtr& schema,
                                       const BindingPattern& bp);

/// For each tuple u ∈ r: invokes bp's prototype on the service referenced
/// by u[service_bp] with input u[schema(Input_ψ)]; each output tuple
/// extends u with values for the (now real) output attributes.
/// Requires schema(Input_ψ) ⊆ realSchema(R).
Result<XRelation> Invoke(const XRelation& r, const BindingPattern& bp,
                         ServiceRegistry* registry,
                         const InvokeOptions& options);

// ---------------------------------------------------------------------------
// Shared helper.
// ---------------------------------------------------------------------------

/// Def. 2 validity of `bp` against an attribute sequence: service attribute
/// real and of reference type, inputs present with compatible types,
/// outputs virtual with compatible types.
bool BindingPatternValidFor(const std::vector<Attribute>& attributes,
                            const BindingPattern& bp);

}  // namespace serena

#endif  // SERENA_ALGEBRA_OPERATORS_H_
