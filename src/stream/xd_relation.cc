#include "stream/xd_relation.h"

#include <algorithm>
#include <atomic>

#include "common/logging.h"

namespace serena {

namespace {
std::atomic<std::uint64_t> g_next_stream_id{1};
}  // namespace

XDRelation::XDRelation(ExtendedSchemaPtr schema)
    : schema_(std::move(schema)),
      id_(g_next_stream_id.fetch_add(1, std::memory_order_relaxed)) {
  SERENA_CHECK(schema_ != nullptr);
}

Status XDRelation::Append(Timestamp t, Tuple tuple) {
  SERENA_RETURN_NOT_OK(schema_->ValidateTuple(tuple));
  std::lock_guard<std::mutex> lock(mu_);
  if (!entries_.empty() && t < entries_.back().instant) {
    return Status::FailedPrecondition(
        "stream '", schema_->name(), "' is append-only: instant ", t,
        " precedes last instant ", entries_.back().instant);
  }
  // Hash once at append: every window read over this entry — one per
  // registered query per tick — reuses it instead of re-hashing.
  const std::uint64_t hash = tuple.Hash();
  entries_.push_back(Entry{t, std::move(tuple), hash});
  return Status::OK();
}

std::vector<Tuple> XDRelation::InsertedDuring(Timestamp from_exclusive,
                                              Timestamp to_inclusive) const {
  std::vector<Tuple> result;
  std::lock_guard<std::mutex> lock(mu_);
  // Binary search the first entry with instant > from_exclusive.
  const auto begin = std::upper_bound(
      entries_.begin(), entries_.end(), from_exclusive,
      [](Timestamp t, const auto& entry) { return t < entry.instant; });
  for (auto it = begin;
       it != entries_.end() && it->instant <= to_inclusive; ++it) {
    result.push_back(it->tuple);
  }
  return result;
}

std::vector<Tuple> XDRelation::LastInserted(std::size_t count,
                                            Timestamp to_inclusive) const {
  std::lock_guard<std::mutex> lock(mu_);
  // Find the end of the eligible range (instant <= to_inclusive).
  const auto end = std::upper_bound(
      entries_.begin(), entries_.end(), to_inclusive,
      [](Timestamp t, const auto& entry) { return t < entry.instant; });
  const std::size_t eligible =
      static_cast<std::size_t>(std::distance(entries_.begin(), end));
  const std::size_t take = std::min(count, eligible);
  std::vector<Tuple> result;
  result.reserve(take);
  for (auto it = end - static_cast<std::ptrdiff_t>(take); it != end; ++it) {
    result.push_back(it->tuple);
  }
  return result;
}

void XDRelation::CollectInsertedDuring(Timestamp from_exclusive,
                                       Timestamp to_inclusive,
                                       std::vector<HashedTupleRef>* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  // Both ends by binary search, so the slice is reserved exactly once.
  const auto after = [](Timestamp t, const Entry& entry) {
    return t < entry.instant;
  };
  const auto begin =
      std::upper_bound(entries_.begin(), entries_.end(), from_exclusive, after);
  const auto end = std::upper_bound(begin, entries_.end(), to_inclusive, after);
  out->reserve(out->size() + static_cast<std::size_t>(end - begin));
  for (auto it = begin; it != end; ++it) {
    out->push_back(HashedTupleRef{&it->tuple, it->hash});
  }
}

void XDRelation::CollectLastInserted(std::size_t count,
                                     Timestamp to_inclusive,
                                     std::vector<HashedTupleRef>* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto end = std::upper_bound(
      entries_.begin(), entries_.end(), to_inclusive,
      [](Timestamp t, const auto& entry) { return t < entry.instant; });
  const std::size_t eligible =
      static_cast<std::size_t>(std::distance(entries_.begin(), end));
  const std::size_t take = std::min(count, eligible);
  out->reserve(out->size() + take);
  for (auto it = end - static_cast<std::ptrdiff_t>(take); it != end; ++it) {
    out->push_back(HashedTupleRef{&it->tuple, it->hash});
  }
}

void XDRelation::CountByInstant(
    Timestamp from_exclusive, Timestamp to_inclusive,
    std::vector<std::pair<Timestamp, std::size_t>>* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto after = [](Timestamp t, const Entry& entry) {
    return t < entry.instant;
  };
  auto it =
      std::upper_bound(entries_.begin(), entries_.end(), from_exclusive, after);
  const auto end = std::upper_bound(it, entries_.end(), to_inclusive, after);
  while (it != end) {
    const auto next = std::upper_bound(it, end, it->instant, after);
    out->emplace_back(it->instant, static_cast<std::size_t>(next - it));
    it = next;
  }
}

std::size_t XDRelation::PruneBefore(Timestamp t) {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t pruned = 0;
  while (!entries_.empty() && entries_.front().instant < t) {
    entries_.pop_front();
    ++pruned;
  }
  return pruned;
}

std::size_t XDRelation::PruneBeforeKeeping(Timestamp t,
                                           std::size_t min_entries) {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t pruned = 0;
  while (entries_.size() > min_entries && entries_.front().instant < t) {
    entries_.pop_front();
    ++pruned;
  }
  return pruned;
}

}  // namespace serena
