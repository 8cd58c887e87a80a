#ifndef SERENA_STREAM_XD_RELATION_H_
#define SERENA_STREAM_XD_RELATION_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "schema/extended_schema.h"
#include "types/tuple.h"

namespace serena {

/// A borrowed stream tuple plus its content hash (`Tuple::Hash`),
/// computed once at append time. Windows over a stream re-read the same
/// physical entries every tick for every registered query; carrying the
/// stored hash lets the vectorized pipeline deduplicate window slices
/// and index its result relation without ever re-hashing a stream tuple.
struct HashedTupleRef {
  const Tuple* tuple = nullptr;
  std::uint64_t hash = 0;
};

/// An infinite eXtended Dynamic relation (XD-Relation, §4.1): an
/// append-only mapping from time instants to multisets of tuples over an
/// extended relation schema — a data stream in the CQL sense, extended
/// with virtual attributes and binding patterns.
///
/// Finite XD-Relations (dynamic tables) are represented by mutable
/// `XRelation`s inside the `Environment`; this class models only the
/// infinite/append-only case, which must pass through a Window operator
/// (W[period]) to re-enter the finite algebra.
///
/// The stream keeps a bounded history of insertions so windows can be
/// answered; `PruneBefore` discards entries no window can reach anymore.
///
/// Thread safety: the entry history is internally locked, so concurrent
/// appends and window reads (parallel executor ticks) are race-free.
/// *Ordering* between a writer and a reader within one instant is the
/// executor's job (its feed/read dependency levels).
class XDRelation {
 public:
  explicit XDRelation(ExtendedSchemaPtr schema);

  XDRelation(const XDRelation&) = delete;
  XDRelation& operator=(const XDRelation&) = delete;

  const ExtendedSchema& schema() const { return *schema_; }
  const ExtendedSchemaPtr& schema_ptr() const { return schema_; }

  /// A process-wide unique identity: a stream dropped and re-created has
  /// another one, even at the same address.
  std::uint64_t id() const { return id_; }

  /// Appends a tuple at instant `t`. Instants must be non-decreasing
  /// (append-only streams cannot rewrite the past). Validates the tuple
  /// against the schema's real attributes.
  Status Append(Timestamp t, Tuple tuple);

  /// Tuples inserted with instants in the half-open window
  /// (from_exclusive, to_inclusive] — exactly the content W[period]
  /// produces at τ with from = τ - period, to = τ.
  std::vector<Tuple> InsertedDuring(Timestamp from_exclusive,
                                    Timestamp to_inclusive) const;

  /// The last `count` tuples inserted at or before `to_inclusive` — the
  /// content of a row-based window W[rows count] at τ (CQL's ROWS n).
  std::vector<Tuple> LastInserted(std::size_t count,
                                  Timestamp to_inclusive) const;

  /// Pointer-borrowing variants of the window reads, for the vectorized
  /// window cursor: append pointers to the retained entries (with their
  /// stored content hashes) into `out` instead of copying tuples. The
  /// pointers stay valid until the next `Prune*` call — deque references
  /// survive `Append` — which the executor only issues after all query
  /// steps of a tick.
  void CollectInsertedDuring(Timestamp from_exclusive,
                             Timestamp to_inclusive,
                             std::vector<HashedTupleRef>* out) const;
  void CollectLastInserted(std::size_t count, Timestamp to_inclusive,
                           std::vector<HashedTupleRef>* out) const;

  /// Appends (instant, entries inserted at it) for every instant in
  /// (from_exclusive, to_inclusive] that has entries, oldest first —
  /// found by the binary searches `CollectInsertedDuring` uses, one per
  /// instant, so an incremental window checks its cached slices without
  /// reading a row.
  void CountByInstant(Timestamp from_exclusive, Timestamp to_inclusive,
                      std::vector<std::pair<Timestamp, std::size_t>>* out)
      const;

  /// Every retained insertion as (instant, tuple) copies, oldest first —
  /// the flight recorder snapshots this into segment headers so windows
  /// reaching back across a segment boundary replay correctly.
  std::vector<std::pair<Timestamp, Tuple>> Entries() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::pair<Timestamp, Tuple>> out;
    out.reserve(entries_.size());
    for (const Entry& entry : entries_) {
      out.emplace_back(entry.instant, entry.tuple);
    }
    return out;
  }

  /// Drops history strictly older than `t`. Returns the number of
  /// entries dropped.
  std::size_t PruneBefore(Timestamp t);

  /// Like PruneBefore, but always retains at least the newest
  /// `min_entries` insertions (needed while row-based windows are
  /// registered). Returns the number of entries dropped.
  std::size_t PruneBeforeKeeping(Timestamp t, std::size_t min_entries);

  /// Total retained entries.
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
  }

  /// Instant of the latest insertion, or `fallback` when empty.
  Timestamp LastInstant(Timestamp fallback = -1) const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.empty() ? fallback : entries_.back().instant;
  }

 private:
  /// One insertion: the tuple, its instant, and its content hash —
  /// computed once here so the window reads above can hand it out.
  struct Entry {
    Timestamp instant;
    Tuple tuple;
    std::uint64_t hash;
  };

  ExtendedSchemaPtr schema_;
  std::uint64_t id_;
  mutable std::mutex mu_;
  std::deque<Entry> entries_;  // Sorted by instant.
};

}  // namespace serena

#endif  // SERENA_STREAM_XD_RELATION_H_
