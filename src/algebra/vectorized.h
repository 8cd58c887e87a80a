#ifndef SERENA_ALGEBRA_VECTORIZED_H_
#define SERENA_ALGEBRA_VECTORIZED_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/result.h"
#include "xrel/xrelation.h"

namespace serena {

struct EvalContext;
class PlanNode;
enum class PlanKind;

/// The vectorized batch execution core (docs/VECTORIZATION.md).
///
/// `PlanNode::Evaluate` dispatches fusable operator chains here: instead
/// of materializing one `XRelation` per operator, a pipeline of cursors
/// pushes `TupleBatch`es (SERENA_BATCH_SIZE rows, default 1024) through
/// fused σ/π/ρ/α/⋈ stages and materializes only the pipeline's final
/// output — or, under a γ root, folds it into γ's groups unmaterialized.
/// Results are byte-identical to the scalar path, which stays available
/// behind `SERENA_VECTORIZE=off` as the differential-testing oracle.
namespace vec {

/// Whether batch execution is enabled. Controlled by `SERENA_VECTORIZE`
/// ("off"/"0"/"false"/"no" disable it); defaults to on. The environment
/// variable is read once per process; tests toggle via
/// `SetEnabledForTesting`.
bool Enabled();

/// Rows per batch. Controlled by `SERENA_BATCH_SIZE` (clamped to >= 1);
/// defaults to 1024.
std::size_t BatchSize();

/// Test hooks: override (or, with nullopt, restore) the env-derived
/// configuration. Process-global; tests must reset what they set.
void SetEnabledForTesting(std::optional<bool> enabled);
void SetBatchSizeForTesting(std::optional<std::size_t> batch_size);

/// True for operator kinds that start a fused pipeline (σ, π, ρ, α, ⋈,
/// and γ, which folds its child's pipeline). Leaves (scan, window) are
/// batch *sources* inside a pipeline but gain nothing as pipeline roots;
/// everything else — and γ below a root — stays scalar and is consumed
/// through an opaque cursor.
bool IsFusedRoot(PlanKind kind);

/// Attempts batch execution of the pipeline rooted at `node`. Returns
/// nullopt when the pipeline cannot be built (parameter assignment,
/// missing relation/stream, schema error, ...) — the caller then falls
/// back to the scalar `EvaluateImpl`, which reproduces the exact scalar
/// diagnostics. A non-nullopt result (success or runtime error) is
/// final and byte-identical to what the scalar path would produce.
///
/// The pipeline is prepared once and then run: with `ctx.pipelines` set
/// (a standing query's step) the prepared pipeline is kept there and
/// later evaluations only rebind its leaves and run it; otherwise it is
/// a temporary, prepared and run once.
std::optional<Result<XRelation>> TryExecute(const PlanNode& node,
                                            EvalContext& ctx);

/// A pipeline built once and run at many instants (defined in
/// vectorized.cc).
struct PreparedPipeline;

/// A standing query's prepared pipelines (docs/VECTORIZATION.md,
/// "Prepared pipelines"): one slot per plan node, indexed by the node's
/// ordinal in the `PlanStats` an evaluation records into (`ctx.stats`).
/// A slot is filled at the node's first evaluation and rebuilt only when
/// a leaf's relation or stream schema, or `BatchSize()`, changed since.
/// Pipelines holding an opaque (scalar) stage are never kept. A kept
/// pipeline's σ/ρ chains over time windows are incremental: they keep
/// each instant's evaluation and run only on arriving instants
/// (docs/VECTORIZATION.md, "Incremental windows").
///
/// Not thread-safe: only the thread stepping the query uses it.
class PipelineCache {
 public:
  /// A cache for a plan of `nodes` distinct nodes.
  explicit PipelineCache(std::size_t nodes);
  ~PipelineCache();

  PipelineCache(const PipelineCache&) = delete;
  PipelineCache& operator=(const PipelineCache&) = delete;

  /// Pipelines prepared into this cache so far: one at each node's first
  /// evaluation, plus one per rebuild.
  std::uint64_t builds() const { return builds_; }

  /// Pipelines currently kept.
  std::size_t size() const;

 private:
  friend std::optional<Result<XRelation>> TryExecute(const PlanNode& node,
                                                     EvalContext& ctx);

  std::vector<std::unique_ptr<PreparedPipeline>> slots_;
  std::uint64_t builds_ = 0;
};

}  // namespace vec
}  // namespace serena

#endif  // SERENA_ALGEBRA_VECTORIZED_H_
