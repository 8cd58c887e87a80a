#ifndef SERENA_TYPES_TUPLE_H_
#define SERENA_TYPES_TUPLE_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "types/value.h"

namespace serena {

/// A tuple over a (real) relation schema: an element of D^n (§2.3.1).
///
/// For an extended relation schema R, tuples are elements of
/// D^|realSchema(R)| — virtual attributes carry no coordinate (Def. 3).
/// The mapping from attribute positions to coordinates (δ_R, Def. 4) is
/// owned by the schema classes; `Tuple` itself is positional.
class Tuple {
 public:
  Tuple() = default;
  explicit Tuple(std::vector<Value> values) : values_(std::move(values)) {}
  Tuple(std::initializer_list<Value> values) : values_(values) {}

  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  const Value& at(std::size_t i) const { return values_[i]; }
  Value& at(std::size_t i) { return values_[i]; }
  const Value& operator[](std::size_t i) const { return values_[i]; }
  Value& operator[](std::size_t i) { return values_[i]; }

  const std::vector<Value>& values() const { return values_; }

  void Append(Value value) { values_.push_back(std::move(value)); }

  /// Positional projection: the coordinates at `indices`, in order.
  Tuple Project(const std::vector<std::size_t>& indices) const;

  /// Concatenation (used by join / invocation to build wider tuples).
  Tuple Concat(const Tuple& other) const;

  /// "(v1, v2, ...)".
  std::string ToString() const;

  bool operator==(const Tuple& other) const;
  bool operator!=(const Tuple& other) const { return !(*this == other); }
  /// Lexicographic order (deterministic relation printing / sorting).
  bool operator<(const Tuple& other) const;

  /// Stable hash consistent with operator==.
  std::uint64_t Hash() const;

  /// `Project(indices).Hash()` and
  /// `Project(indices) == other.Project(other_indices)`, computed on the
  /// coordinates in place: the join build table finds a row's key without
  /// building a key tuple per row.
  std::uint64_t ProjectedHash(const std::vector<std::size_t>& indices) const;
  bool ProjectedEquals(const std::vector<std::size_t>& indices,
                       const Tuple& other,
                       const std::vector<std::size_t>& other_indices) const;

 private:
  std::vector<Value> values_;
};

std::ostream& operator<<(std::ostream& os, const Tuple& tuple);

/// Hash functor for unordered containers keyed by Tuple.
struct TupleHasher {
  std::size_t operator()(const Tuple& t) const {
    return static_cast<std::size_t>(t.Hash());
  }
};

}  // namespace serena

#endif  // SERENA_TYPES_TUPLE_H_
