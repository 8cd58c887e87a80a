#ifndef SERENA_ALGEBRA_FORMULA_H_
#define SERENA_ALGEBRA_FORMULA_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "schema/extended_schema.h"
#include "types/tuple.h"
#include "types/value.h"

namespace serena {

/// Comparison operators usable in selection formulas. `kContains` is a
/// string-containment predicate (used e.g. by the RSS keyword queries of
/// §5.2); the rest are the usual orderings.
enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe, kContains };

const char* CompareOpToString(CompareOp op);

/// One side of a comparison: a (real) attribute reference, a constant
/// from D, or a named parameter (`:name`) bound before execution —
/// prepared-statement style.
class Operand {
 public:
  enum class Kind { kAttribute, kConstant, kParameter };

  static Operand Attr(std::string name) {
    Operand op;
    op.kind_ = Kind::kAttribute;
    op.name_ = std::move(name);
    return op;
  }
  static Operand Const(Value value) {
    Operand op;
    op.kind_ = Kind::kConstant;
    op.value_ = std::move(value);
    return op;
  }
  static Operand Param(std::string name) {
    Operand op;
    op.kind_ = Kind::kParameter;
    op.name_ = std::move(name);
    return op;
  }

  Kind kind() const { return kind_; }
  bool is_attribute() const { return kind_ == Kind::kAttribute; }
  bool is_parameter() const { return kind_ == Kind::kParameter; }
  const std::string& attribute() const { return name_; }
  const std::string& parameter() const { return name_; }
  const Value& value() const { return value_; }

  std::string ToString() const {
    switch (kind_) {
      case Kind::kAttribute:
        return name_;
      case Kind::kParameter:
        return ":" + name_;
      default:
        return value_.ToString();
    }
  }
  bool operator==(const Operand& other) const {
    if (kind_ != other.kind_) return false;
    return kind_ == Kind::kConstant ? value_ == other.value_
                                    : name_ == other.name_;
  }

 private:
  Kind kind_ = Kind::kConstant;
  std::string name_;
  Value value_;
};

class Formula;
using FormulaPtr = std::shared_ptr<const Formula>;

/// A formula compiled against one fixed schema: attribute references are
/// resolved to coordinates and constants captured, so evaluating a tuple
/// does no name lookups and copies no values. The vectorized pipeline
/// (docs/VECTORIZATION.md) compiles each selection formula once per
/// pipeline and amortizes the interpretation cost across every batch.
using TuplePredicate = std::function<Result<bool>(const Tuple&)>;

/// One side of a compiled comparison: either a tuple coordinate resolved
/// against the compile-time schema or a captured constant. `Get` returns
/// a reference — no Value copies on the per-tuple path.
struct CompiledOperand {
  std::size_t coord = 0;
  bool is_coord = false;
  Value constant;

  const Value& Get(const Tuple& tuple) const {
    return is_coord ? tuple[coord] : constant;
  }
};

/// A single compiled comparison — the unit of the flattened-conjunction
/// fast path (`Formula::FlattenConjunction`). A conjunction of these is
/// evaluated as a tight loop with direct calls, with none of the nested
/// `std::function` dispatch a compiled AND-tree would pay per tuple.
struct CompiledComparison {
  CompiledOperand lhs;
  CompareOp op;
  CompiledOperand rhs;

  /// lhs op rhs on `tuple` (which must conform to the compile schema).
  Result<bool> Eval(const Tuple& tuple) const;
};

/// A selection formula F over realSchema(R) (Table 3 (b)).
///
/// Formulas are immutable trees of comparisons combined with AND / OR /
/// NOT. Per the paper, a formula may only reference *real* attributes —
/// virtual attributes have no value; `Validate` enforces this, and the
/// selection operator refuses formulas that fail it.
class Formula {
 public:
  virtual ~Formula() = default;

  /// Checks that every referenced attribute is a real attribute of
  /// `schema` and that comparisons are type-sensible.
  virtual Status Validate(const ExtendedSchema& schema) const = 0;

  /// t ⊨ F (logical implication of [18], §3.1.2).
  virtual Result<bool> Evaluate(const ExtendedSchema& schema,
                                const Tuple& tuple) const = 0;

  /// Compiles the formula against `schema`: attribute names resolve to
  /// tuple coordinates once, here, instead of per evaluated tuple. Fails
  /// on unbound parameters or unresolvable attributes — exactly the
  /// inputs `Evaluate` would reject per tuple, so callers fall back to
  /// the interpreted path and reproduce its diagnostics. The returned
  /// predicate must only be applied to tuples of `schema`.
  virtual Result<TuplePredicate> Compile(
      const ExtendedSchema& schema) const = 0;

  /// If this formula is a pure conjunction of comparisons (a single
  /// comparison counts), appends each compiled conjunct to `out` in
  /// evaluation order and returns true. The appended sequence, evaluated
  /// left to right with a stop at the first false or first error, decides
  /// exactly like `Evaluate`/`Compile` on every tuple. Returns false —
  /// leaving `out` unspecified — for formulas containing OR/NOT or
  /// operands that don't compile (unbound parameters, missing
  /// attributes); callers then fall back to `Compile`.
  virtual bool FlattenConjunction(const ExtendedSchema& schema,
                                  std::vector<CompiledComparison>* out) const {
    (void)schema;
    (void)out;
    return false;
  }

  /// Adds every referenced attribute name to `out`. Rewrite rules use this
  /// for their side conditions (e.g. "A ∉ F", Table 5).
  virtual void CollectAttributes(std::set<std::string>* out) const = 0;

  virtual std::string ToString() const = 0;

  /// Structural equality (used to compare plans).
  virtual bool Equals(const Formula& other) const = 0;

  /// If this formula is a top-level conjunction F1 ∧ F2, exposes both
  /// sides and returns true. Lets the rewriter push individual conjuncts
  /// independently (σ_{F1∧F2} ≡ σ_F1 ∘ σ_F2).
  virtual bool AsConjunction(FormulaPtr* lhs, FormulaPtr* rhs) const {
    (void)lhs;
    (void)rhs;
    return false;
  }

  /// If this formula is a top-level disjunction F1 ∨ F2, exposes both
  /// sides and returns true. The abstract interpreter joins the two
  /// branch environments instead of meeting them.
  virtual bool AsDisjunction(FormulaPtr* lhs, FormulaPtr* rhs) const {
    (void)lhs;
    (void)rhs;
    return false;
  }

  /// If this formula is ¬F, exposes F and returns true.
  virtual bool AsNegation(FormulaPtr* inner) const {
    (void)inner;
    return false;
  }

  /// If this formula is a single comparison `lhs op rhs`, exposes its
  /// parts and returns true. This is the leaf the abstract interpreter
  /// (src/analysis/absint.h) evaluates over value intervals; operands
  /// may be attributes, constants or still-unbound parameters.
  virtual bool AsComparison(Operand* lhs, CompareOp* op, Operand* rhs) const {
    (void)lhs;
    (void)op;
    (void)rhs;
    return false;
  }

  /// A copy of this formula with every reference to attribute `from`
  /// replaced by `to` (used when commuting σ with ρ).
  virtual FormulaPtr WithRenamedAttribute(std::string_view from,
                                          std::string_view to) const = 0;

  /// Adds every `:parameter` name referenced by the formula to `out`.
  virtual void CollectParameters(std::set<std::string>* out) const = 0;

  /// A copy with parameters substituted by their bound values; parameters
  /// absent from `bindings` are left in place (Validate/Evaluate then
  /// reject them as unbound).
  virtual FormulaPtr WithBoundParameters(
      const std::map<std::string, Value>& bindings) const = 0;

  // Factories.
  static FormulaPtr Compare(Operand lhs, CompareOp op, Operand rhs);
  static FormulaPtr And(FormulaPtr lhs, FormulaPtr rhs);
  static FormulaPtr Or(FormulaPtr lhs, FormulaPtr rhs);
  static FormulaPtr Not(FormulaPtr inner);
};

/// True if the formula references attribute `name`.
bool FormulaReferences(const Formula& formula, std::string_view name);

/// True when every attribute the formula reads is real in `schema` — the
/// one test for "may this σ conjunct sit over that relation?". Parameters
/// and constants are ignored (an unbound `:param` does not block
/// placement), which is why this is not `Validate`. The §3.3 active-β
/// barrier is the caller's: SER030's fix-it crosses an active β on
/// purpose.
bool ReadsOnlyRealOf(const Formula& formula, const ExtendedSchema& schema);

/// Recursively splits top-level conjunctions into their conjuncts
/// (a single non-conjunction formula yields itself).
std::vector<FormulaPtr> SplitConjuncts(const FormulaPtr& formula);

/// Conjoins formulas back together; returns nullptr for an empty list.
FormulaPtr CombineConjuncts(const std::vector<FormulaPtr>& conjuncts);

}  // namespace serena

#endif  // SERENA_ALGEBRA_FORMULA_H_
