#include "algebra/operators.h"

#include <algorithm>
#include <unordered_set>

#include "algebra/join_table.h"

namespace serena {

namespace {

bool IsServiceReferenceType(DataType type) {
  return type == DataType::kService || type == DataType::kString;
}

/// Filters `candidates` down to the patterns valid for `attributes`
/// (Def. 2), dropping duplicates.
std::vector<BindingPattern> FilterBindingPatterns(
    const std::vector<Attribute>& attributes,
    const std::vector<BindingPattern>& candidates) {
  std::vector<BindingPattern> kept;
  for (const BindingPattern& bp : candidates) {
    if (!BindingPatternValidFor(attributes, bp)) continue;
    if (std::find(kept.begin(), kept.end(), bp) != kept.end()) continue;
    kept.push_back(bp);
  }
  return kept;
}

const Attribute* FindAttr(const std::vector<Attribute>& attributes,
                          std::string_view name) {
  for (const Attribute& attr : attributes) {
    if (attr.name == name) return &attr;
  }
  return nullptr;
}

}  // namespace

bool BindingPatternValidFor(const std::vector<Attribute>& attributes,
                            const BindingPattern& bp) {
  const Attribute* service_attr = FindAttr(attributes, bp.service_attribute());
  if (service_attr == nullptr || !service_attr->is_real() ||
      !IsServiceReferenceType(service_attr->type)) {
    return false;
  }
  for (const Attribute& in_attr : bp.prototype().input().attributes()) {
    const Attribute* attr = FindAttr(attributes, in_attr.name);
    if (attr == nullptr || !IsAssignableTo(attr->type, in_attr.type)) {
      return false;
    }
  }
  for (const Attribute& out_attr : bp.prototype().output().attributes()) {
    const Attribute* attr = FindAttr(attributes, out_attr.name);
    if (attr == nullptr || !attr->is_virtual() ||
        !IsAssignableTo(out_attr.type, attr->type)) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Set operators
// ---------------------------------------------------------------------------

Result<ExtendedSchemaPtr> SetOpSchema(const ExtendedSchemaPtr& s1,
                                      const ExtendedSchemaPtr& s2,
                                      const char* op_name) {
  if (!s1->SameAttributes(*s2)) {
    return Status::InvalidArgument(op_name,
                                   ": operand schemas differ ('", s1->name(),
                                   "' vs '", s2->name(), "')");
  }
  // The result carries the union of both operands' binding patterns; both
  // sets are valid for the shared attribute sequence.
  std::vector<BindingPattern> bps = s1->binding_patterns();
  bps.insert(bps.end(), s2->binding_patterns().begin(),
             s2->binding_patterns().end());
  return ExtendedSchema::Create(
      std::string(op_name) + "(" + s1->name() + "," + s2->name() + ")",
      s1->attributes(), FilterBindingPatterns(s1->attributes(), bps));
}

namespace {

using SetOpFn = void (*)(const XRelation&, const XRelation&, XRelation*);

Result<XRelation> EvaluateSetOp(const XRelation& r1, const XRelation& r2,
                                const char* op_name, SetOpFn fill) {
  SERENA_ASSIGN_OR_RETURN(
      ExtendedSchemaPtr schema,
      SetOpSchema(r1.schema_ptr(), r2.schema_ptr(), op_name));
  XRelation result(std::move(schema));
  fill(r1, r2, &result);
  return result;
}

}  // namespace

Result<XRelation> Union(const XRelation& r1, const XRelation& r2) {
  return EvaluateSetOp(
      r1, r2, "union", +[](const XRelation& a, const XRelation& b,
                           XRelation* out) {
        out->Reserve(a.size() + b.size());
        for (const Tuple& t : a.tuples()) out->InsertUnchecked(t);
        for (const Tuple& t : b.tuples()) out->InsertUnchecked(t);
      });
}

Result<XRelation> Intersect(const XRelation& r1, const XRelation& r2) {
  return EvaluateSetOp(
      r1, r2, "intersect", +[](const XRelation& a, const XRelation& b,
                               XRelation* out) {
        for (const Tuple& t : a.tuples()) {
          if (b.Contains(t)) out->InsertUnchecked(t);
        }
      });
}

Result<XRelation> Difference(const XRelation& r1, const XRelation& r2) {
  return EvaluateSetOp(
      r1, r2, "difference", +[](const XRelation& a, const XRelation& b,
                                XRelation* out) {
        for (const Tuple& t : a.tuples()) {
          if (!b.Contains(t)) out->InsertUnchecked(t);
        }
      });
}

// ---------------------------------------------------------------------------
// Projection
// ---------------------------------------------------------------------------

Result<ExtendedSchemaPtr> ProjectSchema(const ExtendedSchemaPtr& schema,
                                        const std::vector<std::string>& y) {
  std::unordered_set<std::string> requested;
  for (const std::string& name : y) {
    if (!schema->Contains(name)) {
      return Status::InvalidArgument("project: attribute '", name,
                                     "' is not in schema '", schema->name(),
                                     "'");
    }
    requested.insert(name);
  }
  std::vector<Attribute> attributes;
  for (const Attribute& attr : schema->attributes()) {
    if (requested.count(attr.name) > 0) attributes.push_back(attr);
  }
  return ExtendedSchema::Create(
      "project(" + schema->name() + ")", attributes,
      FilterBindingPatterns(attributes, schema->binding_patterns()));
}

Result<XRelation> Project(const XRelation& r,
                          const std::vector<std::string>& y) {
  SERENA_ASSIGN_OR_RETURN(ExtendedSchemaPtr schema,
                          ProjectSchema(r.schema_ptr(), y));
  // Source coordinate for each real attribute of the output, in output
  // coordinate order.
  std::vector<std::size_t> coords;
  for (const Attribute& attr : schema->attributes()) {
    if (attr.is_real()) {
      coords.push_back(*r.schema().CoordinateOf(attr.name));
    }
  }
  XRelation result(std::move(schema));
  result.Reserve(r.size());
  for (const Tuple& t : r.tuples()) {
    result.InsertUnchecked(t.Project(coords));
  }
  return result;
}

// ---------------------------------------------------------------------------
// Selection
// ---------------------------------------------------------------------------

Result<ExtendedSchemaPtr> SelectSchema(const ExtendedSchemaPtr& schema,
                                       const FormulaPtr& formula) {
  if (formula == nullptr) {
    return Status::InvalidArgument("select: null formula");
  }
  SERENA_RETURN_NOT_OK(formula->Validate(*schema));
  return schema;
}

Result<XRelation> Select(const XRelation& r, const FormulaPtr& formula) {
  SERENA_ASSIGN_OR_RETURN(ExtendedSchemaPtr schema,
                          SelectSchema(r.schema_ptr(), formula));
  XRelation result(schema);
  result.Reserve(r.size());
  for (const Tuple& t : r.tuples()) {
    SERENA_ASSIGN_OR_RETURN(bool keep, formula->Evaluate(*schema, t));
    if (keep) result.InsertUnchecked(t);
  }
  return result;
}

// ---------------------------------------------------------------------------
// Renaming
// ---------------------------------------------------------------------------

Result<ExtendedSchemaPtr> RenameSchema(const ExtendedSchemaPtr& schema,
                                       const std::string& from,
                                       const std::string& to) {
  if (!schema->Contains(from)) {
    return Status::InvalidArgument("rename: attribute '", from,
                                   "' is not in schema '", schema->name(),
                                   "'");
  }
  if (schema->Contains(to)) {
    return Status::InvalidArgument("rename: attribute '", to,
                                   "' already exists in schema '",
                                   schema->name(), "'");
  }
  std::vector<Attribute> attributes = schema->attributes();
  for (Attribute& attr : attributes) {
    if (attr.name == from) attr.name = to;
  }
  // Table 3 (c): patterns keep their prototype; a pattern whose service
  // attribute was renamed follows the rename; patterns whose prototype
  // input/output attributes no longer appear are eliminated.
  std::vector<BindingPattern> candidates;
  candidates.reserve(schema->binding_patterns().size());
  for (const BindingPattern& bp : schema->binding_patterns()) {
    candidates.push_back(bp.service_attribute() == from
                             ? bp.WithServiceAttribute(to)
                             : bp);
  }
  return ExtendedSchema::Create("rename(" + schema->name() + ")", attributes,
                                FilterBindingPatterns(attributes, candidates));
}

Result<XRelation> Rename(const XRelation& r, const std::string& from,
                         const std::string& to) {
  SERENA_ASSIGN_OR_RETURN(ExtendedSchemaPtr schema,
                          RenameSchema(r.schema_ptr(), from, to));
  XRelation result(std::move(schema));
  result.Reserve(r.size());
  for (const Tuple& t : r.tuples()) {
    result.InsertUnchecked(t);
  }
  return result;
}

// ---------------------------------------------------------------------------
// Natural join
// ---------------------------------------------------------------------------

Result<ExtendedSchemaPtr> JoinSchema(const ExtendedSchemaPtr& s1,
                                     const ExtendedSchemaPtr& s2) {
  std::vector<Attribute> attributes;
  // R1's attributes first; a shared attribute is real if real in either
  // operand (implicit realization) and takes the widened type.
  for (const Attribute& a1 : s1->attributes()) {
    const Attribute* a2 = s2->FindAttribute(a1.name);
    if (a2 == nullptr) {
      attributes.push_back(a1);
      continue;
    }
    if (!IsAssignableTo(a1.type, a2->type) &&
        !IsAssignableTo(a2->type, a1.type)) {
      return Status::TypeMismatch("join: attribute '", a1.name,
                                  "' has incompatible types ",
                                  DataTypeToString(a1.type), " and ",
                                  DataTypeToString(a2->type));
    }
    Attribute merged = a1;
    merged.type = IsAssignableTo(a1.type, a2->type) ? a2->type : a1.type;
    merged.kind = (a1.is_real() || a2->is_real()) ? AttributeKind::kReal
                                                  : AttributeKind::kVirtual;
    attributes.push_back(merged);
  }
  // Then R2's attributes not present in R1.
  for (const Attribute& a2 : s2->attributes()) {
    if (!s1->Contains(a2.name)) attributes.push_back(a2);
  }
  std::vector<BindingPattern> candidates = s1->binding_patterns();
  candidates.insert(candidates.end(), s2->binding_patterns().begin(),
                    s2->binding_patterns().end());
  return ExtendedSchema::Create(
      "join(" + s1->name() + "," + s2->name() + ")", attributes,
      FilterBindingPatterns(attributes, candidates));
}

Result<JoinSpec> JoinSpec::Resolve(const ExtendedSchemaPtr& s1,
                                   const ExtendedSchemaPtr& s2) {
  JoinSpec spec;
  SERENA_ASSIGN_OR_RETURN(spec.schema, JoinSchema(s1, s2));

  // Join attributes: real in both operands (Table 3 (d) — virtual ones
  // impose no predicate).
  for (const Attribute& attr : spec.schema->attributes()) {
    const auto c1 = s1->CoordinateOf(attr.name);
    const auto c2 = s2->CoordinateOf(attr.name);
    if (c1.has_value() && c2.has_value()) {
      spec.key1.push_back(*c1);
      spec.key2.push_back(*c2);
    }
  }

  // Output construction plan: for each real output attribute, where to
  // fetch the value (side 1 wins for shared attributes).
  for (const Attribute& attr : spec.schema->attributes()) {
    if (!attr.is_real()) continue;
    const auto c1 = s1->CoordinateOf(attr.name);
    if (c1.has_value()) {
      spec.sources.push_back({true, *c1});
    } else {
      // Real in the result and not real in R1 => real in R2.
      spec.sources.push_back({false, *s2->CoordinateOf(attr.name)});
    }
  }
  return spec;
}

Tuple JoinSpec::Merge(const Tuple& t1, const Tuple& t2) const {
  std::vector<Value> values;
  values.reserve(sources.size());
  for (const Source& src : sources) {
    values.push_back(src.from_r1 ? t1[src.coord] : t2[src.coord]);
  }
  return Tuple(std::move(values));
}

Result<XRelation> NaturalJoin(const XRelation& r1, const XRelation& r2) {
  SERENA_ASSIGN_OR_RETURN(JoinSpec spec,
                          JoinSpec::Resolve(r1.schema_ptr(), r2.schema_ptr()));

  XRelation result(spec.schema);
  auto emit = [&](const Tuple& t1, const Tuple& t2) {
    result.InsertUnchecked(spec.Merge(t1, t2));
  };

  if (spec.key1.empty()) {
    // Cartesian product.
    result.Reserve(r1.size() * r2.size());
    for (const Tuple& t1 : r1.tuples()) {
      for (const Tuple& t2 : r2.tuples()) emit(t1, t2);
    }
    return result;
  }

  // Hash join on the common real attributes, building on the smaller
  // side (`JoinBuildTable`, which the vectorized join cursor shares).
  const bool build_r1 = r1.size() < r2.size();
  const XRelation& build = build_r1 ? r1 : r2;
  const XRelation& probe = build_r1 ? r2 : r1;
  const std::vector<std::size_t>& probe_key =
      build_r1 ? spec.key2 : spec.key1;
  const JoinBuildTable table(build.tuples(), build_r1 ? spec.key1 : spec.key2);
  if (table.empty()) return result;
  result.Reserve(probe.size());
  for (const Tuple& t : probe.tuples()) {
    // emit() takes (t1, t2) in operand order regardless of which side we
    // built on.
    table.ForEachMatch(t, probe_key, [&](const Tuple& match) {
      if (build_r1) {
        emit(match, t);
      } else {
        emit(t, match);
      }
    });
  }
  return result;
}

// ---------------------------------------------------------------------------
// Assignment
// ---------------------------------------------------------------------------

Result<ExtendedSchemaPtr> AssignSchema(const ExtendedSchemaPtr& schema,
                                       const std::string& target) {
  const Attribute* attr = schema->FindAttribute(target);
  if (attr == nullptr) {
    return Status::InvalidArgument("assign: attribute '", target,
                                   "' is not in schema '", schema->name(),
                                   "'");
  }
  if (!attr->is_virtual()) {
    return Status::InvalidArgument(
        "assign: attribute '", target,
        "' is already real (realization is one-way)");
  }
  std::vector<Attribute> attributes = schema->attributes();
  for (Attribute& a : attributes) {
    if (a.name == target) a.kind = AttributeKind::kReal;
  }
  return ExtendedSchema::Create(
      "assign(" + schema->name() + ")", attributes,
      FilterBindingPatterns(attributes, schema->binding_patterns()));
}

namespace {

/// Shared tuple-rebuilding logic for both assignment flavors: `make_value`
/// produces the realized value for each source tuple.
template <typename MakeValue>
Result<XRelation> AssignImpl(const XRelation& r, const std::string& target,
                             MakeValue make_value) {
  SERENA_ASSIGN_OR_RETURN(ExtendedSchemaPtr schema,
                          AssignSchema(r.schema_ptr(), target));
  const DataType declared = schema->FindAttribute(target)->type;
  // For each real output attribute: source coordinate in the input tuple,
  // or npos for the realized attribute.
  constexpr std::size_t kNew = static_cast<std::size_t>(-1);
  std::vector<std::size_t> plan;
  for (const Attribute& attr : schema->attributes()) {
    if (!attr.is_real()) continue;
    if (attr.name == target) {
      plan.push_back(kNew);
    } else {
      plan.push_back(*r.schema().CoordinateOf(attr.name));
    }
  }
  XRelation result(std::move(schema));
  result.Reserve(r.size());
  for (const Tuple& u : r.tuples()) {
    SERENA_ASSIGN_OR_RETURN(Value realized, make_value(u));
    if (!realized.ConformsTo(declared)) {
      return Status::TypeMismatch("assign: value ", realized.ToString(),
                                  " does not conform to '", target,
                                  "' of type ", DataTypeToString(declared));
    }
    std::vector<Value> values;
    values.reserve(plan.size());
    for (std::size_t coord : plan) {
      values.push_back(coord == kNew ? realized.CoerceTo(declared)
                                     : u[coord]);
    }
    result.InsertUnchecked(Tuple(std::move(values)));
  }
  return result;
}

}  // namespace

Result<XRelation> AssignFromAttribute(const XRelation& r,
                                      const std::string& target,
                                      const std::string& source) {
  const auto coord = r.schema().CoordinateOf(source);
  if (!coord.has_value()) {
    return Status::InvalidArgument(
        "assign: source attribute '", source,
        "' must be a real attribute of schema '", r.schema().name(), "'");
  }
  return AssignImpl(r, target,
                    [&](const Tuple& u) -> Result<Value> { return u[*coord]; });
}

Result<XRelation> AssignConstant(const XRelation& r, const std::string& target,
                                 const Value& constant) {
  return AssignImpl(
      r, target, [&](const Tuple&) -> Result<Value> { return constant; });
}

// ---------------------------------------------------------------------------
// Invocation
// ---------------------------------------------------------------------------

Result<ExtendedSchemaPtr> InvokeSchema(const ExtendedSchemaPtr& schema,
                                       const BindingPattern& bp) {
  // bp ∈ BP(R).
  const BindingPattern* found =
      schema->FindBindingPattern(bp.prototype().name(),
                                 bp.service_attribute());
  if (found == nullptr) {
    return Status::InvalidArgument(
        "invoke: binding pattern ", bp.ToString(),
        " is not associated with schema '", schema->name(), "'");
  }
  // schema(Input_ψ) ⊆ realSchema(R).
  for (const Attribute& in_attr : bp.prototype().input().attributes()) {
    if (!schema->IsReal(in_attr.name)) {
      return Status::FailedPrecondition(
          "invoke: input attribute '", in_attr.name, "' of prototype '",
          bp.prototype().name(),
          "' must be real before invocation (realize it with assignment "
          "first)");
    }
  }
  std::vector<Attribute> attributes = schema->attributes();
  for (Attribute& attr : attributes) {
    if (bp.prototype().output().Contains(attr.name)) {
      attr.kind = AttributeKind::kReal;
    }
  }
  return ExtendedSchema::Create(
      "invoke(" + schema->name() + ")", attributes,
      FilterBindingPatterns(attributes, schema->binding_patterns()));
}

Result<XRelation> Invoke(const XRelation& r, const BindingPattern& bp,
                         ServiceRegistry* registry,
                         const InvokeOptions& options) {
  if (registry == nullptr) {
    return Status::InvalidArgument("invoke: null service registry");
  }
  SERENA_ASSIGN_OR_RETURN(ExtendedSchemaPtr schema,
                          InvokeSchema(r.schema_ptr(), bp));
  const Prototype& proto = bp.prototype();

  // Input projection: coordinates of Input_ψ attributes in prototype
  // declaration order, plus target input types for coercion.
  std::vector<std::size_t> input_coords;
  std::vector<DataType> input_types;
  for (const Attribute& in_attr : proto.input().attributes()) {
    input_coords.push_back(*r.schema().CoordinateOf(in_attr.name));
    input_types.push_back(in_attr.type);
  }
  const std::size_t service_coord =
      *r.schema().CoordinateOf(bp.service_attribute());

  // Output construction plan: for each real output attribute, fetch from
  // the input tuple or from the invocation output.
  constexpr std::size_t kFromOutput = static_cast<std::size_t>(-1);
  struct Slot {
    std::size_t input_coord;   // kFromOutput if served by the invocation.
    std::size_t output_index;  // index into Output_ψ when kFromOutput.
  };
  std::vector<Slot> plan;
  for (const Attribute& attr : schema->attributes()) {
    if (!attr.is_real()) continue;
    const auto out_index = proto.output().IndexOf(attr.name);
    if (out_index.has_value()) {
      plan.push_back({kFromOutput, *out_index});
    } else {
      plan.push_back({*r.schema().CoordinateOf(attr.name), 0});
    }
  }

  // Phase 1 (serial): build one invocation request per input tuple.
  // Malformed service references are schema-level errors, reported before
  // any service is called (and regardless of the error policy).
  std::vector<InvocationRequest> requests;
  requests.reserve(r.size());
  for (const Tuple& u : r.tuples()) {
    const Value& service_value = u[service_coord];
    if (!service_value.is_string()) {
      return Status::TypeMismatch("invoke: service reference ",
                                  service_value.ToString(),
                                  " is not a string value");
    }
    // Build the invocation input, coercing ints feeding REAL parameters.
    std::vector<Value> input_values;
    input_values.reserve(input_coords.size());
    for (std::size_t i = 0; i < input_coords.size(); ++i) {
      input_values.push_back(u[input_coords[i]].CoerceTo(input_types[i]));
    }
    requests.push_back(InvocationRequest{service_value.string_value(),
                                         Tuple(std::move(input_values))});
  }

  // Phase 2 (parallel): deduplicated, concurrent physical calls. Under
  // kFail the first failure cancels not-yet-started calls — their results
  // are discarded below anyway.
  std::vector<Result<TupleRows>> invocations = registry->InvokeMany(
      proto, requests, options.instant, options.pool,
      /*cancel_on_error=*/options.error_policy ==
          InvocationErrorPolicy::kFail,
      options.tally);

  // Phase 3 (serial): splice results in input-tuple order so the output
  // relation, `failed_tuples`, and action emission are deterministic and
  // identical to the serial loop.
  XRelation result(std::move(schema));
  result.Reserve(r.size());
  for (std::size_t idx = 0; idx < requests.size(); ++idx) {
    const Tuple& u = r.tuples()[idx];
    const Result<TupleRows>& outputs = invocations[idx];
    if (!outputs.ok()) {
      if (options.error_policy == InvocationErrorPolicy::kSkipTuple) {
        if (options.failed_tuples != nullptr) {
          options.failed_tuples->push_back(u);
        }
        continue;
      }
      // Prefer a genuine failure over a "cancelled" marker: the marker
      // only says some *other* request failed first.
      if (ServiceRegistry::IsCancelled(outputs.status())) {
        for (std::size_t j = idx + 1; j < invocations.size(); ++j) {
          if (!invocations[j].ok() &&
              !ServiceRegistry::IsCancelled(invocations[j].status())) {
            return invocations[j].status();
          }
        }
      }
      return outputs.status();
    }

    if (proto.active() &&
        (options.actions != nullptr || options.action_sink)) {
      Action action{proto.name(), bp.service_attribute(),
                    requests[idx].service_ref, requests[idx].input};
      if (options.action_sink) options.action_sink(action);
      if (options.actions != nullptr) {
        options.actions->Add(std::move(action));
      }
    }

    for (const Tuple& out : **outputs) {
      std::vector<Value> values;
      values.reserve(plan.size());
      for (const Slot& slot : plan) {
        values.push_back(slot.input_coord == kFromOutput
                             ? out[slot.output_index]
                             : u[slot.input_coord]);
      }
      result.InsertUnchecked(Tuple(std::move(values)));
    }
  }
  return result;
}

}  // namespace serena
