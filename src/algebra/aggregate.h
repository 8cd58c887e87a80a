#ifndef SERENA_ALGEBRA_AGGREGATE_H_
#define SERENA_ALGEBRA_AGGREGATE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/result.h"
#include "xrel/flat_tuple_index.h"
#include "xrel/xrelation.h"

namespace serena {

/// Aggregate functions for the grouping operator.
///
/// The paper's motivating example (§1.2) needs "the mean temperature for
/// a given location"; γ is the standard grouping extension of the
/// relational algebra lifted to X-Relations. Grouping and aggregate input
/// attributes must be *real* (virtual attributes have no value, Def. 3).
enum class AggregateFn { kCount, kSum, kAvg, kMin, kMax };

const char* AggregateFnToString(AggregateFn fn);
Result<AggregateFn> AggregateFnFromString(std::string_view name);

/// One aggregate column: `fn(input) -> output`. For kCount the input
/// attribute may be empty (count of tuples per group).
struct AggregateSpec {
  AggregateFn fn = AggregateFn::kCount;
  std::string input;   // Real attribute; empty allowed for kCount.
  std::string output;  // Result attribute name.

  /// "avg(temperature) -> mean_temp".
  std::string ToString() const;

  bool operator==(const AggregateSpec& other) const {
    return fn == other.fn && input == other.input && output == other.output;
  }
};

/// Output schema of γ: the group-by attributes (all real) followed by one
/// real attribute per aggregate. All binding patterns are dropped — the
/// aggregated relation no longer carries per-service rows.
Result<ExtendedSchemaPtr> AggregateSchema(
    const ExtendedSchemaPtr& schema, const std::vector<std::string>& group_by,
    const std::vector<AggregateSpec>& aggregates);

/// The one implementation of γ, shared by both execution cores: a
/// streaming fold over γ's input rows. The scalar `Aggregate` feeds it a
/// materialized relation; the vectorized core drains the child pipeline's
/// batches straight into it, so there γ's input is never materialized —
/// and over a keyed join it folds each matched pair without merging it
/// (`GroupOf`/`Accumulate` read the pair's values in place).
///
/// Groups are found through a `FlatTupleIndex` whose matcher compares the
/// group-by values of the row in place: one key tuple is built per
/// group, none per row. Two rows share a group when their keys are equal
/// as tuples (so `Int(2)` and `Real(2.0)` do, and a NaN key never equals
/// another). Each group accumulates in input order, which fixes the
/// rounding of float sums, and `Finish` emits the groups sorted by key.
///
/// γ is defined over an X-Relation, so the rows fed to `Add` must be
/// distinct — a relation's tuples, or a fused pipeline's output sequence.
class Aggregator {
 public:
  /// Input coordinate of an aggregate without one (`count()`).
  static constexpr std::size_t kNoInput = static_cast<std::size_t>(-1);

  /// Resolves γ's output schema (`AggregateSchema`) and its key and input
  /// coordinates against the input schema.
  static Result<Aggregator> Create(
      const ExtendedSchemaPtr& input, const std::vector<std::string>& group_by,
      const std::vector<AggregateSpec>& aggregates);

  /// Folds one input row.
  void Add(const Tuple& row) {
    Accumulate(
        GroupOf([this, &row](std::size_t i) -> const Value& {
          return row[key_coords_[i]];
        }),
        [this, &row](std::size_t j) -> const Value& {
          return row[input_coords_[j]];
        });
  }

  /// The input-row coordinates of the group-by attributes, and of each
  /// aggregate's input (kNoInput for `count()`): a caller folding rows it
  /// never builds maps them once onto where the values live.
  const std::vector<std::size_t>& key_coords() const { return key_coords_; }
  const std::vector<std::size_t>& input_coords() const {
    return input_coords_;
  }

  /// The group of an input row whose i-th group-by value is `key(i)`,
  /// created — keyed by those values — if it is new.
  template <typename KeyAt>
  std::size_t GroupOf(const KeyAt& key);

  /// Folds into `group` an input row whose j-th aggregate input is
  /// `input(j)` (never asked for a `count()`).
  template <typename InputAt>
  void Accumulate(std::size_t group, const InputAt& input);

  /// Forgets every group, keeping the storage for the next fold (a
  /// prepared pipeline folds into the same aggregator at every instant).
  void Reset() {
    keys_.clear();
    cells_.clear();
    groups_.Clear();
  }

  /// The aggregated relation: one row per group, ordered by
  /// `Tuple::operator<` on the keys (NaN, which that order leaves
  /// unordered, sorts after every number, and NaN-keyed groups keep their
  /// input order). With no group-by attributes this is one row over all
  /// input, or none for an empty input (SQL's grouped semantics). Sorts
  /// in a buffer the aggregator keeps, so a prepared pipeline's γ
  /// allocates only its result.
  XRelation Finish();

 private:
  /// One (group, aggregate) accumulator.
  struct Cell {
    std::int64_t count = 0;
    std::int64_t isum = 0;
    double sum = 0.0;
    bool all_int = true;
    Value extreme;  // The min or max so far.

    void Add(AggregateFn fn, const Value* v);
    Value Finish(AggregateFn fn) const;
  };

  Aggregator() = default;

  ExtendedSchemaPtr schema_;
  std::vector<std::size_t> key_coords_;
  std::vector<AggregateFn> fns_;
  std::vector<std::size_t> input_coords_;
  std::vector<Tuple> keys_;  // One per group, in first-seen order.
  std::vector<Cell> cells_;  // Groups × aggregates, row-major.
  FlatTupleIndex groups_;    // Key -> position in keys_.
  std::vector<std::size_t> order_;  // Finish's group order.
};

template <typename KeyAt>
std::size_t Aggregator::GroupOf(const KeyAt& key) {
  const std::size_t width = key_coords_.size();
  std::uint64_t hash = 0;
  for (std::size_t i = 0; i < width; ++i) {
    hash = HashCombine(hash, key(i).Hash());
  }
  const auto [group, inserted] = groups_.FindOrInsert(
      hash, keys_.size(), [this, &key, width](std::size_t position) {
        const Tuple& stored = keys_[position];
        for (std::size_t i = 0; i < width; ++i) {
          if (key(i) != stored[i]) return false;
        }
        return true;
      });
  if (inserted) {
    std::vector<Value> values;
    values.reserve(width);
    for (std::size_t i = 0; i < width; ++i) values.push_back(key(i));
    keys_.emplace_back(std::move(values));
    cells_.resize(cells_.size() + fns_.size());
  }
  return group;
}

template <typename InputAt>
void Aggregator::Accumulate(std::size_t group, const InputAt& input) {
  const std::size_t width = fns_.size();
  Cell* cells = &cells_[group * width];
  for (std::size_t j = 0; j < width; ++j) {
    cells[j].Add(fns_[j], input_coords_[j] == kNoInput ? nullptr : &input(j));
  }
}

/// γ_{group_by; aggregates}(r): `r`'s tuples through an `Aggregator`.
Result<XRelation> Aggregate(const XRelation& r,
                            const std::vector<std::string>& group_by,
                            const std::vector<AggregateSpec>& aggregates);

}  // namespace serena

#endif  // SERENA_ALGEBRA_AGGREGATE_H_
