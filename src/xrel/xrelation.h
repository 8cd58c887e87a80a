#ifndef SERENA_XREL_XRELATION_H_
#define SERENA_XREL_XRELATION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "schema/extended_schema.h"
#include "types/tuple.h"
#include "xrel/flat_tuple_index.h"

namespace serena {

/// An extended relation, or X-Relation (Def. 3): a finite *set* of tuples
/// over an extended relation schema. Tuples are elements of
/// D^|realSchema(R)| — virtual attributes carry no coordinate.
///
/// Set semantics are maintained on insertion (duplicates are ignored),
/// matching the paper's definition, through a flat open-addressing index
/// of positions into the tuple vector (`FlatTupleIndex`). Iteration order
/// is insertion order; `Erase` moves the last tuple into the hole. Use
/// `Sorted()` for canonical output.
class XRelation {
 public:
  /// An empty X-Relation over `schema` (must be non-null).
  explicit XRelation(ExtendedSchemaPtr schema);

  const ExtendedSchema& schema() const { return *schema_; }
  const ExtendedSchemaPtr& schema_ptr() const { return schema_; }

  std::size_t size() const { return tuples_.size(); }
  bool empty() const { return tuples_.empty(); }

  const std::vector<Tuple>& tuples() const { return tuples_; }

  /// Validates the tuple against the schema's real attributes, then
  /// inserts it if not already present. Returns true if inserted.
  Result<bool> Insert(Tuple tuple);

  /// Insertion without validation for operator internals that construct
  /// tuples known to be schema-conformant. Still deduplicates.
  bool InsertUnchecked(Tuple tuple);

  /// Like `InsertUnchecked`, with the tuple's content hash supplied by a
  /// caller that already knows it (stream entries hash once at append
  /// time; the vectorized collect carries the hash through the
  /// pipeline). `hash` must equal `tuple.Hash()` — a wrong hash would
  /// admit duplicates, so builds without NDEBUG check it.
  bool InsertHashed(Tuple tuple, std::uint64_t hash);

  /// Pre-sizes tuple storage and the dedup index for `n` insertions.
  void Reserve(std::size_t n);

  /// Removes a tuple. Returns true if it was present.
  bool Erase(const Tuple& tuple);

  bool Contains(const Tuple& tuple) const;

  void Clear();

  /// Tuple `position`, for a caller that overwrites rows in place (the
  /// meta-relation refresh). The rows must stay distinct and conform to
  /// the schema, and `Reindex` must run before the relation is read.
  Tuple& MutableTupleAt(std::size_t position) { return tuples_[position]; }

  /// Rebuilds the dedup index over the current rows, after in-place
  /// overwrites.
  void Reindex();

  /// t[A] for a real attribute A (Def. 4) on an arbitrary tuple of this
  /// relation's schema.
  Result<Value> ProjectValue(const Tuple& tuple,
                             std::string_view attribute) const;

  /// Tuples in canonical (lexicographic) order.
  std::vector<Tuple> Sorted() const;

  /// Set equality with another relation over an attribute-identical schema.
  bool SetEquals(const XRelation& other) const;

  /// ASCII table rendering: header row of all attributes (virtual ones
  /// shown with '*' values, as in the paper's examples), then tuples in
  /// canonical order.
  std::string ToTableString() const;

 private:
  /// The index's view of a position: the tuple stored there.
  auto TupleAt() const {
    return [this](std::size_t position) -> const Tuple& {
      return tuples_[position];
    };
  }

  ExtendedSchemaPtr schema_;
  std::vector<Tuple> tuples_;
  // Dedup index over positions in tuples_.
  FlatTupleIndex index_;
};

}  // namespace serena

#endif  // SERENA_XREL_XRELATION_H_
