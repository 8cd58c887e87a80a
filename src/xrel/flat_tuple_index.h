#ifndef SERENA_XREL_FLAT_TUPLE_INDEX_H_
#define SERENA_XREL_FLAT_TUPLE_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "types/tuple.h"

namespace serena {

/// The set index under every X-Relation (Def. 3) and the vectorized
/// window and projection dedups: a flat open-addressing table of
/// `{hash tag, position}` slots over tuples stored elsewhere. The caller
/// owns the tuples and hands each lookup a
/// `tuple_at(position) -> const Tuple&` accessor.
///
/// Capacity is a power of two kept at most half full; collisions probe
/// linearly and deletion shifts the following run back (no tombstones),
/// so a probe always ends at the first empty slot. A slot holds a 32-bit
/// tag folded from the tuple's 64-bit content hash plus a 32-bit
/// position — 8 bytes, so 16–32 bytes of index per tuple and no per-tuple
/// allocation. Tuple contents are compared only when the tags are equal.
class FlatTupleIndex {
 public:
  static constexpr std::size_t kNotFound = static_cast<std::size_t>(-1);

  FlatTupleIndex() = default;
  FlatTupleIndex(const FlatTupleIndex&) = default;
  FlatTupleIndex& operator=(const FlatTupleIndex&) = default;
  // Moves leave the source empty, so its count matches its (empty) slots.
  FlatTupleIndex(FlatTupleIndex&& other) noexcept;
  FlatTupleIndex& operator=(FlatTupleIndex&& other) noexcept;

  std::size_t size() const { return size_; }
  /// Number of slots (a power of two, 0 before the first insert).
  std::size_t capacity() const { return slots_.size(); }

  /// Sizes the table so `n` entries fit without growing.
  void Reserve(std::size_t n);

  /// Empties the table, keeping its capacity.
  void Clear();

  /// The position of the indexed tuple equal to `tuple` (whose content
  /// hash is `hash`), or kNotFound.
  template <typename TupleAt>
  std::size_t Find(const Tuple& tuple, std::uint64_t hash,
                   const TupleAt& tuple_at) const {
    if (slots_.empty()) return kNotFound;
    const Slot& slot = slots_[Probe(hash, Equals(tuple, tuple_at))];
    return slot.position == kEmpty ? kNotFound : slot.position;
  }

  /// Indexes `position` for `tuple` unless an equal tuple is already
  /// indexed. Returns true if inserted.
  template <typename TupleAt>
  bool Insert(const Tuple& tuple, std::uint64_t hash, std::size_t position,
              const TupleAt& tuple_at) {
    return FindOrInsert(hash, position, Equals(tuple, tuple_at)).second;
  }

  /// Like `Insert`, for a key the caller compares in place instead of
  /// materializing it (γ's group keys): `matches(p)` says whether the
  /// entry at position `p` holds the key whose hash is `hash`. Returns
  /// {the matching entry's position, false}, or {`position`, true} when
  /// none matched and `position` was indexed for the key.
  template <typename Matches>
  std::pair<std::size_t, bool> FindOrInsert(std::uint64_t hash,
                                            std::size_t position,
                                            const Matches& matches) {
    SERENA_CHECK(position < kEmpty);
    // Probe first: a hit never grows the table; only an insert that
    // would pass 50% load does, and then re-probes for its empty slot.
    std::size_t slot = kNotFound;
    if (!slots_.empty()) {
      slot = Probe(hash, matches);
      if (slots_[slot].position != kEmpty) {
        return {slots_[slot].position, false};
      }
    }
    if ((size_ + 1) * 2 > slots_.size()) {
      Grow(size_ + 1);
      slot = Probe(hash, [](std::size_t) { return false; });
    }
    slots_[slot] = Slot{Tag(hash), static_cast<std::uint32_t>(position)};
    ++size_;
    return {position, true};
  }

  /// Calls `visit(p)` for the position `p` of every entry tagged like
  /// `hash` that `matches(p)`, in probe order — for callers whose entries
  /// are distinct by a finer equality than the one they probe with (the
  /// join build table's keys, where `Int(2)` and `Real(2.0)` are two
  /// entries that both equal a probe key `2`).
  template <typename Matches, typename Visit>
  void ForEachMatch(std::uint64_t hash, const Matches& matches,
                    const Visit& visit) const {
    if (slots_.empty()) return;
    const std::uint32_t tag = Tag(hash);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t slot = tag & mask; slots_[slot].position != kEmpty;
         slot = (slot + 1) & mask) {
      if (slots_[slot].tag == tag && matches(slots_[slot].position)) {
        visit(slots_[slot].position);
      }
    }
  }

  /// Removes the entry for the tuple equal to `tuple` and returns its
  /// position, or kNotFound when no such tuple is indexed.
  template <typename TupleAt>
  std::size_t Erase(const Tuple& tuple, std::uint64_t hash,
                    const TupleAt& tuple_at) {
    if (slots_.empty()) return kNotFound;
    const std::size_t slot = Probe(hash, Equals(tuple, tuple_at));
    const std::size_t position = slots_[slot].position;
    if (position == kEmpty) return kNotFound;
    RemoveSlot(slot);
    return position;
  }

  /// Removes the entry at `position`, whose tuple hashes to `hash`, and
  /// returns true; false when no entry tagged like `hash` is there. No
  /// tuple is read.
  bool ErasePosition(std::uint64_t hash, std::size_t position) {
    if (slots_.empty()) return false;
    const std::size_t slot =
        Probe(hash, [position](std::size_t p) { return p == position; });
    if (slots_[slot].position == kEmpty) return false;
    RemoveSlot(slot);
    return true;
  }

  /// Repoints the entry at position `from` (whose tuple hashes to `hash`)
  /// to position `to`, for callers that move a stored tuple.
  void Relocate(std::uint64_t hash, std::size_t from, std::size_t to);

 private:
  static constexpr std::uint32_t kEmpty = static_cast<std::uint32_t>(-1);

  struct Slot {
    std::uint32_t tag = 0;
    std::uint32_t position = kEmpty;
  };

  static std::uint32_t Tag(std::uint64_t hash) {
    return static_cast<std::uint32_t>(hash ^ (hash >> 32));
  }

  /// The matcher for a stored tuple equal to `tuple`.
  template <typename TupleAt>
  static auto Equals(const Tuple& tuple, const TupleAt& tuple_at) {
    return [&tuple, &tuple_at](std::size_t position) {
      return tuple_at(position) == tuple;
    };
  }

  /// The slot of the entry tagged like `hash` that `matches`, or else the
  /// empty slot ending its probe run (where it would be inserted). Needs a
  /// non-empty table.
  template <typename Matches>
  std::size_t Probe(std::uint64_t hash, const Matches& matches) const {
    const std::uint32_t tag = Tag(hash);
    const std::size_t mask = slots_.size() - 1;
    std::size_t slot = tag & mask;
    for (; slots_[slot].position != kEmpty; slot = (slot + 1) & mask) {
      if (slots_[slot].tag == tag && matches(slots_[slot].position)) break;
    }
    return slot;
  }

  /// Rehashes into the smallest power-of-two capacity (at least 16) that
  /// holds `n` entries at ≤50% load.
  void Grow(std::size_t n);

  /// Empties `slot`, shifting back every later entry of its probe run that
  /// may now sit closer to its home slot.
  void RemoveSlot(std::size_t slot);

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace serena

#endif  // SERENA_XREL_FLAT_TUPLE_INDEX_H_
