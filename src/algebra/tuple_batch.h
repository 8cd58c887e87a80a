#ifndef SERENA_ALGEBRA_TUPLE_BATCH_H_
#define SERENA_ALGEBRA_TUPLE_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "types/tuple.h"

namespace serena {
namespace vec {

/// One unit of vectorized dataflow (docs/VECTORIZATION.md): a bounded run
/// of tuples flowing through a fused operator pipeline. A batch is either
/// *borrowing* (a compacted vector of pointers into storage owned by a
/// producer further down the pipeline — the selection-vector
/// representation σ uses to drop rows without copying survivors) or
/// *owning* (materialized tuples, produced by operators that build new
/// rows: π, α, ⋈).
///
/// Lifetime contract: a batch's rows — and any pointers borrowed from
/// them — are valid until the producing cursor's next `Next()` call.
/// Each cursor owns its output batch and refills it on every call; a
/// prepared pipeline keeps its cursors across runs, so a standing query's
/// steady-state batch loop performs no allocations.
class TupleBatch {
 public:
  void Clear() {
    refs_.clear();
    hashes_.clear();
    owned_.clear();
  }

  /// Borrow `tuple` into the batch (no copy). The pointer must outlive
  /// the batch's current fill (see the lifetime contract above). `hash`
  /// is the tuple's content hash (`Tuple::Hash`) when the producer knows
  /// it — stream entries hash once at append time — or 0 for unknown;
  /// consumers re-hash on 0. Carrying the hash lets the terminal collect
  /// index its result relation without re-hashing any stream tuple.
  void AppendRef(const Tuple* tuple, std::uint64_t hash = 0) {
    refs_.push_back(tuple);
    hashes_.push_back(hash);
  }

  /// Materialize `tuple` into the batch's own storage.
  void AppendOwned(Tuple tuple) { owned_.push_back(std::move(tuple)); }

  /// Pre-sizes the owning storage (capacity is retained across Clear, so
  /// this is free after the first batch).
  void ReserveOwned(std::size_t n) {
    if (owned_.capacity() < n) owned_.reserve(n);
  }

  /// A batch is all-refs or all-owned; producers pick one representation
  /// per fill.
  std::size_t size() const {
    return owned_.empty() ? refs_.size() : owned_.size();
  }
  bool empty() const { return size() == 0; }

  const Tuple& at(std::size_t i) const {
    return owned_.empty() ? *refs_[i] : owned_[i];
  }

  /// True when the batch holds materialized rows rather than borrowed
  /// pointers.
  bool owning() const { return !owned_.empty(); }

  /// Moves owned row `i` out of an owning batch, leaving an empty tuple
  /// there until the next Clear. Only the batch's consumer may do this.
  Tuple TakeOwned(std::size_t i) { return std::move(owned_[i]); }

  /// The known content hash of row `i`, or 0 when the producer did not
  /// carry one (owned rows, catalog scans, opaque results).
  std::uint64_t hash_at(std::size_t i) const {
    return owned_.empty() && i < hashes_.size() ? hashes_[i] : 0;
  }

 private:
  std::vector<const Tuple*> refs_;
  std::vector<std::uint64_t> hashes_;  // Parallel to refs_; 0 = unknown.
  std::vector<Tuple> owned_;
};

}  // namespace vec
}  // namespace serena

#endif  // SERENA_ALGEBRA_TUPLE_BATCH_H_
