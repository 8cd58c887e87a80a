#ifndef SERENA_OBS_STATS_H_
#define SERENA_OBS_STATS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace serena {

class PlanNode;
class PlanStats;

namespace obs {

/// Aggregated runtime statistics of one plan operator, keyed by its
/// stable fingerprint (see `OperatorFingerprint`). Unlike a `PlanStats`
/// (indexed by node ordinal, scoped to one plan instance), these
/// records accumulate across ticks, queries and plan
/// instances: every occurrence of a structurally identical operator —
/// `select[temperature > 30](window[5](temperatures))`, wherever it
/// appears — feeds the same record. This is the observed-cardinality
/// feedstock of the cost-based optimizer (ROADMAP).
struct OperatorStats {
  std::string fingerprint;  ///< 16 hex chars, stable across runs.
  std::string kind;         ///< PlanKindToString, e.g. "select".
  std::string label;        ///< Rendered operator (truncated).
  std::string prototype;    ///< β prototype for invoke nodes, else empty.

  std::uint64_t evals = 0;
  /// Tuples that entered the operator (sum of its children's outputs;
  /// 0 for leaves, which have no relational input).
  std::uint64_t rows_in = 0;
  std::uint64_t rows_out = 0;
  std::uint64_t wall_ns = 0;  ///< Inclusive of children, like EXPLAIN ANALYZE.
  /// Logical service invocations issued while evaluating this subtree.
  std::uint64_t invocations = 0;
  /// Invocations served from the per-instant memo (§3.2 determinism).
  std::uint64_t memo_hits = 0;
  std::uint64_t errors = 0;
  /// Tuple batches emitted while running inside a fused vectorized
  /// pipeline (docs/VECTORIZATION.md); 0 for scalar evaluations.
  std::uint64_t batches = 0;

  /// Observed selectivity: output/input cardinality. 1.0 when the
  /// operator saw no input (leaves, never-evaluated nodes) — the neutral
  /// prior a cost model would start from.
  double selectivity() const {
    return rows_in == 0 ? 1.0
                        : static_cast<double>(rows_out) /
                              static_cast<double>(rows_in);
  }
  double mean_rows_out() const {
    return evals == 0 ? 0.0
                      : static_cast<double>(rows_out) /
                            static_cast<double>(evals);
  }
  double mean_wall_ns() const {
    return evals == 0 ? 0.0
                      : static_cast<double>(wall_ns) /
                            static_cast<double>(evals);
  }
  /// Fraction of this operator's invocations answered from the memo.
  double memo_hit_rate() const {
    return invocations == 0 ? 0.0
                            : static_cast<double>(memo_hits) /
                                  static_cast<double>(invocations);
  }
};

/// The observed latency profile of one β prototype, read back from the
/// per-prototype instruments the ServiceRegistry maintains
/// (`serena.service.<proto>.invoke_ns` / `.memo_hits` / `.memo_misses` /
/// `.errors` — see docs/OBSERVABILITY.md).
struct BetaLatencyProfile {
  std::string prototype;
  std::uint64_t count = 0;  ///< Physical invocations timed.
  double mean_ns = 0;
  std::uint64_t p50_ns = 0;
  std::uint64_t p99_ns = 0;
  std::uint64_t max_ns = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_misses = 0;
  std::uint64_t errors = 0;

  double memo_hit_rate() const {
    const std::uint64_t total = memo_hits + memo_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(memo_hits) /
                            static_cast<double>(total);
  }
};

/// The stable fingerprint of a plan operator: a hash of the operator
/// kind plus its full rendered subtree (`PlanNode::ToString`, which the
/// algebra parser round-trips). Identical algebra ⇒ identical
/// fingerprint, across plan instances, processes and runs — the property
/// that lets a persisted statistics file describe the *next* run's plans.
/// It is `PlanNode::StableFingerprint` — computed once per node — as 16
/// lowercase hex digits.
std::string OperatorFingerprint(const PlanNode& node);

/// The process-wide runtime statistics store ("gen 3" observability):
/// per-operator cardinality/selectivity/latency aggregates keyed by
/// fingerprint, fed by every instrumented evaluation path (one-shot
/// `Execute`, `ContinuousQuery::Step`, `ExplainAnalyzePlan`).
///
/// Each operator's record lives in a *slot* with a stable address and
/// atomic counters. A standing query resolves its nodes' slots once
/// (`Acquire`, when the query is built) and publishes each step's deltas
/// into them with relaxed atomic adds (`Publish`): no lock, no lookup,
/// no allocation. One-shot paths resolve and publish in one
/// `RecordPlan`.
/// A record is *live* — visible to `Find`, `Snapshot`, `size` and the
/// JSON document — once its operator has been evaluated (evals > 0).
/// Fields are read one atomic at a time, so a read racing a step may
/// see that step's deltas in some fields and not yet in others.
///
/// Persistence: `SaveToFile` writes the store as one JSON document;
/// when the `SERENA_STATS_FILE` environment variable names a path, the
/// store loads it as the *baseline* (the previous run's observations) on
/// first use and `MaybeSaveEnvFile` (called on clean PEMS shutdown)
/// rewrites it — so consecutive runs see each other's statistics, and
/// EXPLAIN ANALYZE can annotate observed-vs-last-run deltas.
///
/// Thread-safe. The store's mutex guards its maps: slot resolution,
/// reads, aliases, baselines and `Clear`; publishing never takes it.
class StatsStore {
 public:
  /// One operator's record (defined in stats.cc).
  struct Slot;

  StatsStore();
  ~StatsStore();

  StatsStore(const StatsStore&) = delete;
  StatsStore& operator=(const StatsStore&) = delete;

  /// The process-wide store used by all built-in instrumentation.
  static StatsStore& Global();

  /// The slots of `shape`'s nodes' operators, entry i for ordinal i,
  /// created on first sight. Each stays valid — `Clear` zeroes it instead
  /// of dropping it — until `Release`d.
  std::vector<Slot*> Acquire(const PlanStats& shape);
  void Release(const std::vector<Slot*>& slots);

  /// Adds `stats` — deltas of the evaluations being recorded, for the plan
  /// whose `Acquire`d slots are `slots` (entry i for ordinal i) — to the
  /// store; `rows_in` is derived as the sum of each node's children's
  /// outputs. While the metrics registry is enabled, the same actuals
  /// also feed the per-kind `serena.op.<kind>.{evals,rows_out,wall_ns}`
  /// counters — the only place those are written. Lock-free.
  static void Publish(const std::vector<Slot*>& slots, const PlanStats& stats);

  /// Resolves and publishes in one pass under the mutex: how a one-shot
  /// evaluation records its scratch `PlanStats`.
  void RecordPlan(const PlanStats& stats);

  /// All live records, most expensive (total wall time) first.
  std::vector<OperatorStats> Snapshot() const;
  std::optional<OperatorStats> Find(const std::string& fingerprint) const;
  std::size_t size() const;

  /// Baseline records (the previous run, when one was loaded).
  bool has_baseline() const;
  std::optional<OperatorStats> FindBaseline(
      const std::string& fingerprint) const;

  /// Declares `alias` an alternative fingerprint for `target`: `Find` and
  /// `FindBaseline` fall back through aliases (transitively, bounded)
  /// when the direct key has no record. The optimizer registers the
  /// (new shape → old shape) pairs of provably output-identical
  /// restructurings here, so EXPLAIN ANALYZE's observed/last-run deltas
  /// survive plan enumeration instead of silently dropping.
  void AddFingerprintAlias(const std::string& alias,
                           const std::string& target);
  std::size_t alias_count() const;

  /// Per-prototype β latency profiles, read live from the global metrics
  /// registry. Sorted by prototype name.
  std::vector<BetaLatencyProfile> BetaProfiles() const;

  /// Drops live records (baseline and cached env-file path stay): a slot
  /// no plan holds is deleted, an `Acquire`d one is zeroed in place, so a
  /// standing query keeps recording into it.
  void Clear();

  /// The store as one JSON document:
  /// `{"schema_version":1, "operators":[{...}], "services":[{...}]}`.
  std::string ToJson() const;

  Status SaveToFile(const std::string& path) const;
  /// Parses `json` (a `ToJson` document) into the baseline map,
  /// replacing any previous baseline.
  Status LoadBaselineFromJson(std::string_view json);
  Status LoadBaselineFromFile(const std::string& path);

  /// Writes the store to `SERENA_STATS_FILE` if the variable is set and
  /// any record exists. Returns true when a write happened. Called on
  /// clean shutdown (QueryProcessor destructor) and by the shell's
  /// `\stats save`.
  bool MaybeSaveEnvFile() const;

 private:
  /// The slot of `node`'s operator, created on first sight; call with
  /// `mu_` held.
  Slot* SlotFor(const PlanNode& node);

  /// The live record of `fingerprint`, resolved through the alias chain:
  /// in `operators_` (`baseline` false) or `baseline_`. Call with `mu_`
  /// held.
  std::optional<OperatorStats> FindAliased(const std::string& fingerprint,
                                           bool baseline) const;

  mutable std::mutex mu_;
  // Keyed by `PlanNode::StableFingerprint`, which orders like its hex
  // form; unique_ptr: slots are published into through stable addresses.
  std::map<std::uint64_t, std::unique_ptr<Slot>> operators_;
  std::map<std::string, OperatorStats> baseline_;
  std::map<std::string, std::string> aliases_;
  bool has_baseline_ = false;
};

}  // namespace obs
}  // namespace serena

#endif  // SERENA_OBS_STATS_H_
