#ifndef SERENA_ALGEBRA_JOIN_TABLE_H_
#define SERENA_ALGEBRA_JOIN_TABLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "types/tuple.h"
#include "xrel/flat_tuple_index.h"

namespace serena {

/// The build side of a keyed natural join (Table 3 (d)), shared by the
/// scalar `NaturalJoin` and the vectorized `JoinCursor`: a
/// `FlatTupleIndex` over the distinct build keys, compared in place on the
/// rows' key coordinates (no key tuple is projected), plus one contiguous
/// run of build-row positions per key. A probe costs one hash, one key
/// compare per candidate key and a tight loop over the matching run.
///
/// Order: a key's run lists its rows newest first, the order the
/// `std::unordered_multimap::equal_range` this table replaced returned
/// them in (libstdc++ inserts an equal key before its equals), so every
/// join emits its pairs in the order it always has.
///
/// Equality: distinct keys are told apart by value *and* numeric kind —
/// `Int(2)` and `Real(2.0)` get a run each — so every row of a run equals
/// a probe key exactly when the run's first row does (`Value::operator==`
/// is not transitive across kinds beyond 2^53). A probe key that equals
/// several runs gets their rows merged back into one newest-first
/// sequence. A NaN key equals nothing, so its rows never match.
///
/// Memory: none for an empty build side; otherwise the index's slot
/// array (16 slots hold up to 8 keys; it doubles beyond that) and one
/// array of 3n + 2 positions for n rows — against the multimap's bucket
/// array plus a node and a key tuple per row.
class JoinBuildTable {
 public:
  /// Indexes `rows` on their `key` coordinates. Both must outlive the
  /// table, unchanged.
  JoinBuildTable(const std::vector<Tuple>& rows,
                 const std::vector<std::size_t>& key);

  JoinBuildTable(const JoinBuildTable&) = delete;
  JoinBuildTable& operator=(const JoinBuildTable&) = delete;

  bool empty() const { return rows_->empty(); }

  /// Calls `visit(row)` for every build row whose key equals `probe`'s
  /// `probe_key` coordinates, newest first.
  template <typename Visit>
  void ForEachMatch(const Tuple& probe,
                    const std::vector<std::size_t>& probe_key,
                    const Visit& visit) const {
    if (empty()) return;
    constexpr std::size_t kNone = static_cast<std::size_t>(-1);
    std::size_t found = kNone;
    std::vector<std::uint32_t> merged;  // Only when several runs match.
    keys_.ForEachMatch(
        probe.ProjectedHash(probe_key),
        [&](std::size_t k) {
          return probe.ProjectedEquals(probe_key, RowOfKey(k), *key_);
        },
        [&](std::size_t k) {
          if (found == kNone) {
            found = k;
            return;
          }
          AppendRun(k, &merged);
        });
    if (found == kNone) return;
    if (merged.empty()) {
      for (std::size_t p = RunBegin(found); p < RunBegin(found + 1); ++p) {
        visit((*rows_)[positions_[p]]);
      }
      return;
    }
    AppendRun(found, &merged);
    std::sort(merged.begin(), merged.end(), std::greater<>());
    for (const std::uint32_t row : merged) visit((*rows_)[row]);
  }

 private:
  /// Where key `k`'s run starts in `positions_` (`k + 1`: where it ends).
  std::size_t RunBegin(std::size_t k) const {
    return positions_[rows_->size() + 1 + k];
  }
  /// A row of key `k` (all of them carry identical key values).
  const Tuple& RowOfKey(std::size_t k) const {
    return (*rows_)[positions_[RunBegin(k)]];
  }
  void AppendRun(std::size_t k, std::vector<std::uint32_t>* out) const {
    out->insert(out->end(), positions_.begin() + RunBegin(k),
                positions_.begin() + RunBegin(k + 1));
  }

  const std::vector<Tuple>* rows_;
  const std::vector<std::size_t>* key_;
  FlatTupleIndex keys_;  // Distinct key -> its number, in first-seen order.
  /// For n rows and m keys: [0, n) the row positions, run by run;
  /// [n + 1, n + m + 2) the run bounds, key k's run being
  /// [bound k, bound k + 1); the rest held each row's key number while
  /// the table was built.
  std::vector<std::uint32_t> positions_;
};

}  // namespace serena

#endif  // SERENA_ALGEBRA_JOIN_TABLE_H_
