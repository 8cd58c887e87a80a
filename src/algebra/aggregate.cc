#include "algebra/aggregate.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/string_util.h"

namespace serena {

const char* AggregateFnToString(AggregateFn fn) {
  switch (fn) {
    case AggregateFn::kCount:
      return "count";
    case AggregateFn::kSum:
      return "sum";
    case AggregateFn::kAvg:
      return "avg";
    case AggregateFn::kMin:
      return "min";
    case AggregateFn::kMax:
      return "max";
  }
  return "?";
}

Result<AggregateFn> AggregateFnFromString(std::string_view name) {
  const std::string lower = ToLower(name);
  if (lower == "count") return AggregateFn::kCount;
  if (lower == "sum") return AggregateFn::kSum;
  if (lower == "avg" || lower == "mean") return AggregateFn::kAvg;
  if (lower == "min") return AggregateFn::kMin;
  if (lower == "max") return AggregateFn::kMax;
  return Status::ParseError("unknown aggregate function: ",
                            std::string(name));
}

std::string AggregateSpec::ToString() const {
  std::string s = AggregateFnToString(fn);
  s += '(';
  s += input;
  s += ") -> ";
  s += output;
  return s;
}

namespace {

/// Output type of an aggregate over an input of type `input_type`.
Result<DataType> AggregateOutputType(AggregateFn fn, DataType input_type,
                                     const std::string& input) {
  switch (fn) {
    case AggregateFn::kCount:
      return DataType::kInt;
    case AggregateFn::kSum:
    case AggregateFn::kAvg:
      if (input_type != DataType::kInt && input_type != DataType::kReal) {
        return Status::TypeMismatch("aggregate over non-numeric attribute '",
                                    input, "'");
      }
      return fn == AggregateFn::kAvg ? DataType::kReal : input_type;
    case AggregateFn::kMin:
    case AggregateFn::kMax:
      return input_type;
  }
  return Status::Internal("unknown aggregate");
}

/// `Tuple::operator<` made a strict weak order: NaN compares unordered
/// with every number there, so it is ranked after all numbers (and level
/// with another NaN) for the sort to be well defined.
bool KeyLess(const Tuple& a, const Tuple& b) {
  const auto is_nan = [](const Value& v) {
    return v.is_real() && std::isnan(v.real_value());
  };
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] < b[i]) return true;
    if (b[i] < a[i]) return false;
    const bool a_nan = is_nan(a[i]);
    const bool b_nan = is_nan(b[i]);
    if (a_nan != b_nan) return b_nan;
  }
  return a.size() < b.size();
}

}  // namespace

Result<ExtendedSchemaPtr> AggregateSchema(
    const ExtendedSchemaPtr& schema, const std::vector<std::string>& group_by,
    const std::vector<AggregateSpec>& aggregates) {
  if (aggregates.empty()) {
    return Status::InvalidArgument("aggregate: no aggregate columns");
  }
  std::vector<Attribute> attributes;
  for (const std::string& name : group_by) {
    const Attribute* attr = schema->FindAttribute(name);
    if (attr == nullptr || !attr->is_real()) {
      return Status::InvalidArgument(
          "aggregate: group-by attribute '", name,
          "' must be a real attribute of schema '", schema->name(), "'");
    }
    attributes.push_back(*attr);
  }
  for (const AggregateSpec& spec : aggregates) {
    if (spec.output.empty()) {
      return Status::InvalidArgument("aggregate: empty output name");
    }
    DataType input_type = DataType::kInt;
    if (!spec.input.empty()) {
      const Attribute* attr = schema->FindAttribute(spec.input);
      if (attr == nullptr || !attr->is_real()) {
        return Status::InvalidArgument(
            "aggregate: input attribute '", spec.input,
            "' must be a real attribute of schema '", schema->name(), "'");
      }
      input_type = attr->type;
    } else if (spec.fn != AggregateFn::kCount) {
      return Status::InvalidArgument("aggregate: ",
                                     AggregateFnToString(spec.fn),
                                     " requires an input attribute");
    }
    SERENA_ASSIGN_OR_RETURN(
        DataType out_type,
        AggregateOutputType(spec.fn, input_type, spec.input));
    attributes.emplace_back(spec.output, out_type, AttributeKind::kReal);
  }
  return ExtendedSchema::Create("aggregate(" + schema->name() + ")",
                                std::move(attributes));
}

void Aggregator::Cell::Add(AggregateFn fn, const Value* v) {
  ++count;
  if (v == nullptr) return;
  switch (fn) {
    case AggregateFn::kCount:
      return;
    case AggregateFn::kSum:
    case AggregateFn::kAvg:
      if (v->is_int()) {
        // Wraps on overflow instead of the undefined signed overflow.
        isum = static_cast<std::int64_t>(static_cast<std::uint64_t>(isum) +
                                         static_cast<std::uint64_t>(
                                             v->int_value()));
        sum += static_cast<double>(v->int_value());
      } else if (v->is_real()) {
        all_int = false;
        sum += v->real_value();
      }
      return;
    case AggregateFn::kMin:
      if (count == 1 || *v < extreme) extreme = *v;
      return;
    case AggregateFn::kMax:
      if (count == 1 || extreme < *v) extreme = *v;
      return;
  }
}

Value Aggregator::Cell::Finish(AggregateFn fn) const {
  switch (fn) {
    case AggregateFn::kCount:
      return Value::Int(count);
    case AggregateFn::kSum:
      return all_int ? Value::Int(isum) : Value::Real(sum);
    case AggregateFn::kAvg:
      // Every group holds at least one row, so count > 0.
      return Value::Real(sum / static_cast<double>(count));
    case AggregateFn::kMin:
    case AggregateFn::kMax:
      return extreme;
  }
  return Value();
}

Result<Aggregator> Aggregator::Create(
    const ExtendedSchemaPtr& input, const std::vector<std::string>& group_by,
    const std::vector<AggregateSpec>& aggregates) {
  Aggregator aggregator;
  SERENA_ASSIGN_OR_RETURN(aggregator.schema_,
                          AggregateSchema(input, group_by, aggregates));
  SERENA_ASSIGN_OR_RETURN(aggregator.key_coords_,
                          input->CoordinatesOf(group_by));
  for (const AggregateSpec& spec : aggregates) {
    aggregator.fns_.push_back(spec.fn);
    aggregator.input_coords_.push_back(
        spec.input.empty() ? kNoInput : *input->CoordinateOf(spec.input));
  }
  return aggregator;
}

XRelation Aggregator::Finish() {
  // Ties (Int(2) and Real(2.0), NaN keys) keep their first-seen order
  // through the group index, which makes the order total: no stable sort,
  // and so no temporary buffer, is needed. A heap sort never reads past
  // the range even where `Value::operator<` is not a strict weak order
  // (ints past 2^53 against reals).
  const auto before = [this](std::size_t a, std::size_t b) {
    if (KeyLess(keys_[a], keys_[b])) return true;
    if (KeyLess(keys_[b], keys_[a])) return false;
    return a < b;
  };
  order_.resize(keys_.size());
  std::iota(order_.begin(), order_.end(), 0);
  std::make_heap(order_.begin(), order_.end(), before);
  std::sort_heap(order_.begin(), order_.end(), before);
  const std::size_t width = fns_.size();
  XRelation result(schema_);
  result.Reserve(order_.size());
  for (const std::size_t group : order_) {
    const std::vector<Value>& key = keys_[group].values();
    std::vector<Value> values;
    values.reserve(key.size() + width);
    values.insert(values.end(), key.begin(), key.end());
    for (std::size_t i = 0; i < width; ++i) {
      values.push_back(cells_[group * width + i].Finish(fns_[i]));
    }
    result.InsertUnchecked(Tuple(std::move(values)));
  }
  return result;
}

Result<XRelation> Aggregate(const XRelation& r,
                            const std::vector<std::string>& group_by,
                            const std::vector<AggregateSpec>& aggregates) {
  SERENA_ASSIGN_OR_RETURN(Aggregator aggregator,
                          Aggregator::Create(r.schema_ptr(), group_by,
                                             aggregates));
  for (const Tuple& t : r.tuples()) aggregator.Add(t);
  return aggregator.Finish();
}

}  // namespace serena
