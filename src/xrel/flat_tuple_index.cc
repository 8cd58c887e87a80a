#include "xrel/flat_tuple_index.h"

#include <algorithm>
#include <utility>

namespace serena {

FlatTupleIndex::FlatTupleIndex(FlatTupleIndex&& other) noexcept
    : slots_(std::move(other.slots_)), size_(std::exchange(other.size_, 0)) {
  other.slots_.clear();
}

FlatTupleIndex& FlatTupleIndex::operator=(FlatTupleIndex&& other) noexcept {
  if (this != &other) {
    slots_ = std::move(other.slots_);
    size_ = std::exchange(other.size_, 0);
    other.slots_.clear();
  }
  return *this;
}

void FlatTupleIndex::Reserve(std::size_t n) {
  if (n * 2 > slots_.size()) Grow(n);
}

void FlatTupleIndex::Clear() {
  std::fill(slots_.begin(), slots_.end(), Slot{});
  size_ = 0;
}

void FlatTupleIndex::Relocate(std::uint64_t hash, std::size_t from,
                              std::size_t to) {
  SERENA_CHECK(to < kEmpty);
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t slot = Tag(hash) & mask; slots_[slot].position != kEmpty;
       slot = (slot + 1) & mask) {
    if (slots_[slot].position == from) {
      slots_[slot].position = static_cast<std::uint32_t>(to);
      return;
    }
  }
  SERENA_CHECK(false);  // `from` was not indexed under `hash`.
}

void FlatTupleIndex::Grow(std::size_t n) {
  std::size_t capacity = std::max<std::size_t>(slots_.size(), 16);
  while (capacity < n * 2) capacity <<= 1;
  std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(capacity));
  const std::size_t mask = capacity - 1;
  for (const Slot& entry : old) {
    if (entry.position == kEmpty) continue;
    std::size_t slot = entry.tag & mask;
    while (slots_[slot].position != kEmpty) slot = (slot + 1) & mask;
    slots_[slot] = entry;
  }
}

void FlatTupleIndex::RemoveSlot(std::size_t slot) {
  const std::size_t mask = slots_.size() - 1;
  std::size_t hole = slot;
  for (std::size_t next = (hole + 1) & mask; slots_[next].position != kEmpty;
       next = (next + 1) & mask) {
    // The entry at `next` may fill the hole unless its home slot lies
    // cyclically in (hole, next] — moving it would put it before its home.
    const std::size_t home = slots_[next].tag & mask;
    if (((next - home) & mask) >= ((next - hole) & mask)) {
      slots_[hole] = slots_[next];
      hole = next;
    }
  }
  slots_[hole] = Slot{};
  --size_;
}

}  // namespace serena
