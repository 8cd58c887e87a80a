#include "algebra/join_table.h"

#include <limits>

#include "common/logging.h"

namespace serena {

namespace {

/// `a` and `b` agree on `key` by value and numeric kind: the equality
/// that splits build keys into runs (see the class comment).
bool SameKey(const Tuple& a, const Tuple& b,
             const std::vector<std::size_t>& key) {
  for (const std::size_t c : key) {
    if (a[c] != b[c] || a[c].is_int() != b[c].is_int()) return false;
  }
  return true;
}

}  // namespace

JoinBuildTable::JoinBuildTable(const std::vector<Tuple>& rows,
                               const std::vector<std::size_t>& key)
    : rows_(&rows), key_(&key) {
  const std::size_t n = rows.size();
  if (n == 0) return;
  SERENA_CHECK(n < std::numeric_limits<std::uint32_t>::max());
  positions_.assign(3 * n + 2, 0);
  std::uint32_t* order = positions_.data();
  std::uint32_t* bound = order + n;       // Up to n + 2 entries.
  std::uint32_t* key_of = bound + n + 2;  // Each row's key number.

  // Number the distinct keys in first-seen order and count each key's
  // rows into bound[k + 1]. A new key's first row is parked in order[k]
  // for the matcher; `order` is filled only below.
  std::size_t keys = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Tuple& row = rows[i];
    const std::size_t k =
        keys_
            .FindOrInsert(row.ProjectedHash(key), keys,
                          [&](std::size_t existing) {
                            return SameKey(row, rows[order[existing]], key);
                          })
            .first;
    if (k == keys) order[keys++] = static_cast<std::uint32_t>(i);
    key_of[i] = static_cast<std::uint32_t>(k);
    ++bound[k + 1];
  }
  // bound[k + 1] := the end of key k's run.
  for (std::size_t k = 0; k < keys; ++k) bound[k + 1] += bound[k];
  // Each row takes the last free slot of its run, so the oldest row ends
  // up last and the run reads newest first; bound[k + 1] walks down to
  // the run's start.
  for (std::size_t i = 0; i < n; ++i) {
    order[--bound[key_of[i] + 1]] = static_cast<std::uint32_t>(i);
  }
  bound[keys + 1] = static_cast<std::uint32_t>(n);
}

}  // namespace serena
