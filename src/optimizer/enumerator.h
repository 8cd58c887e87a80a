#ifndef SERENA_OPTIMIZER_ENUMERATOR_H_
#define SERENA_OPTIMIZER_ENUMERATOR_H_

#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "optimizer/cost_model.h"

namespace serena::optimizer {

/// Limits of the enumeration space.
struct EnumerationOptions {
  /// Join regions wider than this are left in their written order (the
  /// subset-DP is 3^n; 10 leaves ≈ 59k candidate splits, well under 1 ms).
  std::size_t max_join_leaves = 10;
  /// Dominated full-region alternatives kept for EXPLAIN's
  /// chosen-vs-rejected rendering.
  std::size_t max_rejected = 3;
};

/// One enumerated plan fragment covering a subset of a join region's
/// leaves — the RDF-3X `Plan` idiom: pooled nodes carrying cardinality,
/// cost and an ordering tag, chained via `next` to dominated alternatives.
struct PlanFragment {
  PlanPtr plan;
  double card = 0;
  double cost = 0;
  /// Original index of the leftmost leaf — the determinism tie-break
  /// (equal-cost candidates prefer the written order).
  unsigned ordering = 0;
  /// Bitmask of the original leaves this fragment covers.
  std::uint64_t leaves = 0;
  /// Dominated alternatives for the same leaf set (kept only for the
  /// full region, capped at `max_rejected`).
  PlanFragment* next = nullptr;
};

/// Arena for fragments (the RDF-3X `PlanContainer`/pool idiom): one
/// region's fragments live exactly as long as its enumeration.
class FragmentPool {
 public:
  PlanFragment* Create() { return &pool_.emplace_back(); }
  std::size_t size() const { return pool_.size(); }

 private:
  std::deque<PlanFragment> pool_;
};

/// A plan the enumerator considered and rejected, rendered for EXPLAIN.
struct RejectedPlan {
  std::string plan;
  double cost = 0;
};

struct EnumerationResult {
  /// The input plan itself unless a join region was restructured.
  PlanPtr plan;
  /// Full-plan estimated totals under the enumeration's cost model.
  double chosen_cost = 0;
  double naive_cost = 0;
  /// Fragments materialized across all regions (the enumeration effort).
  std::size_t fragments = 0;
  /// Join regions wide enough to enumerate (≥ 2 leaves).
  std::size_t join_regions = 0;
  /// Dominated full-region alternatives, best-first.
  std::vector<RejectedPlan> rejected;
  /// (new fingerprint, old fingerprint) pairs for operators whose
  /// rendered shape changed but whose output is provably identical —
  /// callers register these as StatsStore aliases so EXPLAIN ANALYZE
  /// last-run deltas survive the restructuring.
  std::vector<std::pair<std::string, std::string>> refingerprints;
};

/// Cost-based plan enumeration: finds maximal σ*-over-⋈-tree regions,
/// flattens each into leaves + conjuncts, and runs a subset-DP over join
/// order and σ/β placement (σ conjuncts sink to the smallest leaf subset
/// whose joined schema validates them; passive β leaves may hoist above
/// the region when that is cheaper; a compensating π restores the
/// original schema order). The result is not verified here:
/// `optimizer::Pipeline` checks it with `VerifyStage` and reverts it on
/// failure. Given identical statistics snapshots the enumeration is fully
/// deterministic.
Result<EnumerationResult> EnumeratePlan(const PlanPtr& plan,
                                        const Environment& env,
                                        const StreamStore* streams,
                                        const CostModelPtr& model,
                                        const EnumerationOptions& options = {});

}  // namespace serena::optimizer

#endif  // SERENA_OPTIMIZER_ENUMERATOR_H_
