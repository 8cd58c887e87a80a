#include "algebra/formula.h"

namespace serena {

const char* CompareOpToString(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
    case CompareOp::kContains:
      return "contains";
  }
  return "?";
}

namespace {

/// Resolves an operand against a tuple.
Result<Value> Resolve(const Operand& operand, const ExtendedSchema& schema,
                      const Tuple& tuple) {
  if (operand.is_parameter()) {
    return Status::FailedPrecondition("unbound parameter :",
                                      operand.parameter(),
                                      " (bind it before execution)");
  }
  if (!operand.is_attribute()) return operand.value();
  const auto coord = schema.CoordinateOf(operand.attribute());
  if (!coord.has_value()) {
    return Status::InvalidArgument(
        "selection formula references virtual or missing attribute '",
        operand.attribute(), "'");
  }
  return tuple[*coord];
}

Result<CompiledOperand> CompileOperand(const Operand& operand,
                                       const ExtendedSchema& schema) {
  CompiledOperand compiled;
  if (operand.is_parameter()) {
    // Same status Resolve raises per tuple; surfacing it at compile time
    // sends the caller down the interpreted path, which reproduces it.
    return Status::FailedPrecondition("unbound parameter :",
                                      operand.parameter(),
                                      " (bind it before execution)");
  }
  if (!operand.is_attribute()) {
    compiled.constant = operand.value();
    return compiled;
  }
  const auto coord = schema.CoordinateOf(operand.attribute());
  if (!coord.has_value()) {
    return Status::InvalidArgument(
        "selection formula references virtual or missing attribute '",
        operand.attribute(), "'");
  }
  compiled.coord = *coord;
  compiled.is_coord = true;
  return compiled;
}

Status ValidateOperand(const Operand& operand, const ExtendedSchema& schema) {
  if (operand.is_parameter()) {
    return Status::FailedPrecondition("unbound parameter :",
                                      operand.parameter(),
                                      " (bind it before execution)");
  }
  if (!operand.is_attribute()) return Status::OK();
  const Attribute* attr = schema.FindAttribute(operand.attribute());
  if (attr == nullptr) {
    return Status::InvalidArgument("formula references missing attribute '",
                                   operand.attribute(), "'");
  }
  if (!attr->is_real()) {
    return Status::InvalidArgument(
        "formula references virtual attribute '", operand.attribute(),
        "' (selection formulas may only use real attributes)");
  }
  return Status::OK();
}

Result<bool> CompareValues(const Value& lhs, CompareOp op, const Value& rhs) {
  switch (op) {
    case CompareOp::kEq:
      return lhs == rhs;
    case CompareOp::kNe:
      return lhs != rhs;
    case CompareOp::kContains:
      if (!lhs.is_string() || !rhs.is_string()) {
        return Status::TypeMismatch("'contains' requires string operands");
      }
      return lhs.string_value().find(rhs.string_value()) !=
             std::string::npos;
    default:
      break;
  }
  // Ordering comparisons require compatible types.
  const bool comparable = (lhs.is_numeric() && rhs.is_numeric()) ||
                          (lhs.is_string() && rhs.is_string()) ||
                          (lhs.is_bool() && rhs.is_bool());
  if (!comparable) {
    return Status::TypeMismatch("cannot order ", lhs.ToString(), " and ",
                                rhs.ToString());
  }
  const bool lt = lhs < rhs;
  const bool gt = rhs < lhs;
  switch (op) {
    case CompareOp::kLt:
      return lt;
    case CompareOp::kLe:
      return !gt;
    case CompareOp::kGt:
      return gt;
    case CompareOp::kGe:
      return !lt;
    default:
      return Status::Internal("unreachable comparison");
  }
}

class ComparisonFormula final : public Formula {
 public:
  ComparisonFormula(Operand lhs, CompareOp op, Operand rhs)
      : lhs_(std::move(lhs)), op_(op), rhs_(std::move(rhs)) {}

  Status Validate(const ExtendedSchema& schema) const override {
    SERENA_RETURN_NOT_OK(ValidateOperand(lhs_, schema));
    return ValidateOperand(rhs_, schema);
  }

  Result<bool> Evaluate(const ExtendedSchema& schema,
                        const Tuple& tuple) const override {
    SERENA_ASSIGN_OR_RETURN(Value lhs, Resolve(lhs_, schema, tuple));
    SERENA_ASSIGN_OR_RETURN(Value rhs, Resolve(rhs_, schema, tuple));
    return CompareValues(lhs, op_, rhs);
  }

  Result<TuplePredicate> Compile(
      const ExtendedSchema& schema) const override {
    SERENA_ASSIGN_OR_RETURN(CompiledOperand lhs,
                            CompileOperand(lhs_, schema));
    SERENA_ASSIGN_OR_RETURN(CompiledOperand rhs,
                            CompileOperand(rhs_, schema));
    const CompareOp op = op_;
    return TuplePredicate(
        [lhs = std::move(lhs), rhs = std::move(rhs),
         op](const Tuple& tuple) -> Result<bool> {
          return CompareValues(lhs.Get(tuple), op, rhs.Get(tuple));
        });
  }

  bool FlattenConjunction(
      const ExtendedSchema& schema,
      std::vector<CompiledComparison>* out) const override {
    Result<CompiledOperand> lhs = CompileOperand(lhs_, schema);
    if (!lhs.ok()) return false;
    Result<CompiledOperand> rhs = CompileOperand(rhs_, schema);
    if (!rhs.ok()) return false;
    out->push_back(
        CompiledComparison{std::move(*lhs), op_, std::move(*rhs)});
    return true;
  }

  void CollectAttributes(std::set<std::string>* out) const override {
    if (lhs_.is_attribute()) out->insert(lhs_.attribute());
    if (rhs_.is_attribute()) out->insert(rhs_.attribute());
  }

  std::string ToString() const override {
    return lhs_.ToString() + " " + CompareOpToString(op_) + " " +
           rhs_.ToString();
  }

  bool Equals(const Formula& other) const override {
    const auto* o = dynamic_cast<const ComparisonFormula*>(&other);
    return o != nullptr && lhs_ == o->lhs_ && op_ == o->op_ && rhs_ == o->rhs_;
  }

  FormulaPtr WithRenamedAttribute(std::string_view from,
                                  std::string_view to) const override {
    auto rename = [&](const Operand& operand) {
      if (operand.is_attribute() && operand.attribute() == from) {
        return Operand::Attr(std::string(to));
      }
      return operand;
    };
    return Formula::Compare(rename(lhs_), op_, rename(rhs_));
  }

  void CollectParameters(std::set<std::string>* out) const override {
    if (lhs_.is_parameter()) out->insert(lhs_.parameter());
    if (rhs_.is_parameter()) out->insert(rhs_.parameter());
  }

  FormulaPtr WithBoundParameters(
      const std::map<std::string, Value>& bindings) const override {
    auto bind = [&](const Operand& operand) {
      if (operand.is_parameter()) {
        const auto it = bindings.find(operand.parameter());
        if (it != bindings.end()) return Operand::Const(it->second);
      }
      return operand;
    };
    return Formula::Compare(bind(lhs_), op_, bind(rhs_));
  }

  bool AsComparison(Operand* lhs, CompareOp* op,
                    Operand* rhs) const override {
    *lhs = lhs_;
    *op = op_;
    *rhs = rhs_;
    return true;
  }

 private:
  Operand lhs_;
  CompareOp op_;
  Operand rhs_;
};

enum class Connective { kAnd, kOr };

class BinaryFormula final : public Formula {
 public:
  BinaryFormula(Connective connective, FormulaPtr lhs, FormulaPtr rhs)
      : connective_(connective), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

  Status Validate(const ExtendedSchema& schema) const override {
    SERENA_RETURN_NOT_OK(lhs_->Validate(schema));
    return rhs_->Validate(schema);
  }

  Result<bool> Evaluate(const ExtendedSchema& schema,
                        const Tuple& tuple) const override {
    SERENA_ASSIGN_OR_RETURN(bool lhs, lhs_->Evaluate(schema, tuple));
    if (connective_ == Connective::kAnd && !lhs) return false;
    if (connective_ == Connective::kOr && lhs) return true;
    return rhs_->Evaluate(schema, tuple);
  }

  Result<TuplePredicate> Compile(
      const ExtendedSchema& schema) const override {
    SERENA_ASSIGN_OR_RETURN(TuplePredicate lhs, lhs_->Compile(schema));
    SERENA_ASSIGN_OR_RETURN(TuplePredicate rhs, rhs_->Compile(schema));
    // Short-circuits exactly like Evaluate: the right side is never
    // consulted (and can never error) when the left side decides.
    if (connective_ == Connective::kAnd) {
      return TuplePredicate([lhs = std::move(lhs), rhs = std::move(rhs)](
                                const Tuple& tuple) -> Result<bool> {
        SERENA_ASSIGN_OR_RETURN(bool left, lhs(tuple));
        return left ? rhs(tuple) : false;
      });
    }
    return TuplePredicate([lhs = std::move(lhs), rhs = std::move(rhs)](
                              const Tuple& tuple) -> Result<bool> {
      SERENA_ASSIGN_OR_RETURN(bool left, lhs(tuple));
      return left ? Result<bool>(true) : rhs(tuple);
    });
  }

  bool FlattenConjunction(
      const ExtendedSchema& schema,
      std::vector<CompiledComparison>* out) const override {
    // Left before right preserves the evaluation order, so the flattened
    // loop stops on the same conjunct — false or error — as the nested
    // short-circuit would.
    return connective_ == Connective::kAnd &&
           lhs_->FlattenConjunction(schema, out) &&
           rhs_->FlattenConjunction(schema, out);
  }

  void CollectAttributes(std::set<std::string>* out) const override {
    lhs_->CollectAttributes(out);
    rhs_->CollectAttributes(out);
  }

  std::string ToString() const override {
    const char* word = connective_ == Connective::kAnd ? " and " : " or ";
    return "(" + lhs_->ToString() + word + rhs_->ToString() + ")";
  }

  bool Equals(const Formula& other) const override {
    const auto* o = dynamic_cast<const BinaryFormula*>(&other);
    return o != nullptr && connective_ == o->connective_ &&
           lhs_->Equals(*o->lhs_) && rhs_->Equals(*o->rhs_);
  }

  bool AsConjunction(FormulaPtr* lhs, FormulaPtr* rhs) const override {
    if (connective_ != Connective::kAnd) return false;
    *lhs = lhs_;
    *rhs = rhs_;
    return true;
  }

  bool AsDisjunction(FormulaPtr* lhs, FormulaPtr* rhs) const override {
    if (connective_ != Connective::kOr) return false;
    *lhs = lhs_;
    *rhs = rhs_;
    return true;
  }

  FormulaPtr WithRenamedAttribute(std::string_view from,
                                  std::string_view to) const override {
    FormulaPtr lhs = lhs_->WithRenamedAttribute(from, to);
    FormulaPtr rhs = rhs_->WithRenamedAttribute(from, to);
    return connective_ == Connective::kAnd
               ? Formula::And(std::move(lhs), std::move(rhs))
               : Formula::Or(std::move(lhs), std::move(rhs));
  }

  void CollectParameters(std::set<std::string>* out) const override {
    lhs_->CollectParameters(out);
    rhs_->CollectParameters(out);
  }

  FormulaPtr WithBoundParameters(
      const std::map<std::string, Value>& bindings) const override {
    FormulaPtr lhs = lhs_->WithBoundParameters(bindings);
    FormulaPtr rhs = rhs_->WithBoundParameters(bindings);
    return connective_ == Connective::kAnd
               ? Formula::And(std::move(lhs), std::move(rhs))
               : Formula::Or(std::move(lhs), std::move(rhs));
  }

 private:
  Connective connective_;
  FormulaPtr lhs_;
  FormulaPtr rhs_;
};

class NotFormula final : public Formula {
 public:
  explicit NotFormula(FormulaPtr inner) : inner_(std::move(inner)) {}

  Status Validate(const ExtendedSchema& schema) const override {
    return inner_->Validate(schema);
  }

  Result<bool> Evaluate(const ExtendedSchema& schema,
                        const Tuple& tuple) const override {
    SERENA_ASSIGN_OR_RETURN(bool inner, inner_->Evaluate(schema, tuple));
    return !inner;
  }

  Result<TuplePredicate> Compile(
      const ExtendedSchema& schema) const override {
    SERENA_ASSIGN_OR_RETURN(TuplePredicate inner, inner_->Compile(schema));
    return TuplePredicate(
        [inner = std::move(inner)](const Tuple& tuple) -> Result<bool> {
          SERENA_ASSIGN_OR_RETURN(bool value, inner(tuple));
          return !value;
        });
  }

  void CollectAttributes(std::set<std::string>* out) const override {
    inner_->CollectAttributes(out);
  }

  std::string ToString() const override {
    return "not (" + inner_->ToString() + ")";
  }

  bool Equals(const Formula& other) const override {
    const auto* o = dynamic_cast<const NotFormula*>(&other);
    return o != nullptr && inner_->Equals(*o->inner_);
  }

  FormulaPtr WithRenamedAttribute(std::string_view from,
                                  std::string_view to) const override {
    return Formula::Not(inner_->WithRenamedAttribute(from, to));
  }

  void CollectParameters(std::set<std::string>* out) const override {
    inner_->CollectParameters(out);
  }

  FormulaPtr WithBoundParameters(
      const std::map<std::string, Value>& bindings) const override {
    return Formula::Not(inner_->WithBoundParameters(bindings));
  }

  bool AsNegation(FormulaPtr* inner) const override {
    *inner = inner_;
    return true;
  }

 private:
  FormulaPtr inner_;
};

}  // namespace

Result<bool> CompiledComparison::Eval(const Tuple& tuple) const {
  return CompareValues(lhs.Get(tuple), op, rhs.Get(tuple));
}

FormulaPtr Formula::Compare(Operand lhs, CompareOp op, Operand rhs) {
  return std::make_shared<ComparisonFormula>(std::move(lhs), op,
                                             std::move(rhs));
}

FormulaPtr Formula::And(FormulaPtr lhs, FormulaPtr rhs) {
  return std::make_shared<BinaryFormula>(Connective::kAnd, std::move(lhs),
                                         std::move(rhs));
}

FormulaPtr Formula::Or(FormulaPtr lhs, FormulaPtr rhs) {
  return std::make_shared<BinaryFormula>(Connective::kOr, std::move(lhs),
                                         std::move(rhs));
}

FormulaPtr Formula::Not(FormulaPtr inner) {
  return std::make_shared<NotFormula>(std::move(inner));
}

bool FormulaReferences(const Formula& formula, std::string_view name) {
  std::set<std::string> attrs;
  formula.CollectAttributes(&attrs);
  return attrs.count(std::string(name)) > 0;
}

bool ReadsOnlyRealOf(const Formula& formula, const ExtendedSchema& schema) {
  std::set<std::string> attrs;
  formula.CollectAttributes(&attrs);
  for (const std::string& attr : attrs) {
    if (!schema.IsReal(attr)) return false;
  }
  return true;
}

std::vector<FormulaPtr> SplitConjuncts(const FormulaPtr& formula) {
  std::vector<FormulaPtr> conjuncts;
  if (formula == nullptr) return conjuncts;
  FormulaPtr lhs;
  FormulaPtr rhs;
  if (formula->AsConjunction(&lhs, &rhs)) {
    for (const FormulaPtr& part : SplitConjuncts(lhs)) {
      conjuncts.push_back(part);
    }
    for (const FormulaPtr& part : SplitConjuncts(rhs)) {
      conjuncts.push_back(part);
    }
  } else {
    conjuncts.push_back(formula);
  }
  return conjuncts;
}

FormulaPtr CombineConjuncts(const std::vector<FormulaPtr>& conjuncts) {
  FormulaPtr combined;
  for (const FormulaPtr& conjunct : conjuncts) {
    combined = combined == nullptr ? conjunct
                                   : Formula::And(combined, conjunct);
  }
  return combined;
}

}  // namespace serena
