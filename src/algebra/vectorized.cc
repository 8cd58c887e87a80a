#include "algebra/vectorized.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdlib>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "algebra/aggregate.h"
#include "algebra/join_table.h"
#include "algebra/plan.h"
#include "algebra/tuple_batch.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "xrel/flat_tuple_index.h"

namespace serena {
namespace vec {

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

namespace {

// -1 = no override; 0 = forced off; 1 = forced on.
std::atomic<int> g_enabled_override{-1};
// 0 = no override.
std::atomic<std::size_t> g_batch_size_override{0};

bool EnabledFromEnv() {
  const char* env = std::getenv("SERENA_VECTORIZE");
  if (env == nullptr) return true;
  const std::string value = ToLower(env);
  return !(value == "off" || value == "0" || value == "false" ||
           value == "no");
}

std::size_t BatchSizeFromEnv() {
  constexpr std::size_t kDefault = 1024;
  const char* env = std::getenv("SERENA_BATCH_SIZE");
  if (env == nullptr) return kDefault;
  char* end = nullptr;
  const long long parsed = std::strtoll(env, &end, 10);
  if (end == env || (end != nullptr && *end != '\0')) return kDefault;
  return parsed < 1 ? 1 : static_cast<std::size_t>(parsed);
}

}  // namespace

bool Enabled() {
  const int override = g_enabled_override.load(std::memory_order_relaxed);
  if (override >= 0) return override == 1;
  static const bool from_env = EnabledFromEnv();
  return from_env;
}

std::size_t BatchSize() {
  const std::size_t override =
      g_batch_size_override.load(std::memory_order_relaxed);
  if (override > 0) return override;
  static const std::size_t from_env = BatchSizeFromEnv();
  return from_env;
}

void SetEnabledForTesting(std::optional<bool> enabled) {
  g_enabled_override.store(enabled.has_value() ? (*enabled ? 1 : 0) : -1,
                           std::memory_order_relaxed);
}

void SetBatchSizeForTesting(std::optional<std::size_t> batch_size) {
  g_batch_size_override.store(
      batch_size.has_value() && *batch_size > 0 ? *batch_size : 0,
      std::memory_order_relaxed);
}

bool IsFusedRoot(PlanKind kind) {
  switch (kind) {
    case PlanKind::kSelect:
    case PlanKind::kProject:
    case PlanKind::kRename:
    case PlanKind::kAssign:
    case PlanKind::kJoin:
    case PlanKind::kAggregate:
      return true;
    default:
      return false;
  }
}

// ---------------------------------------------------------------------------
// Pipeline metrics
// ---------------------------------------------------------------------------

namespace {

struct VecInstruments {
  obs::Counter* pipelines;
  obs::Counter* fused_ops;
  obs::Counter* batches;
  obs::Counter* rows;
};

const VecInstruments& VectorizeInstruments() {
  static const VecInstruments* instruments = [] {
    obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
    return new VecInstruments{
        &metrics.GetCounter("serena.vectorize.pipelines"),
        &metrics.GetCounter("serena.vectorize.fused_ops"),
        &metrics.GetCounter("serena.vectorize.batches"),
        &metrics.GetCounter("serena.vectorize.rows")};
  }();
  return *instruments;
}

// ---------------------------------------------------------------------------
// Cursors
// ---------------------------------------------------------------------------

/// One stage of a fused pipeline. `Next` yields the stage's output one
/// TupleBatch at a time (nullptr = exhausted; a non-null batch is never
/// empty — stages loop internally over empty fills). A batch stays valid
/// until the producing cursor's next `Next` call; until then its single
/// consumer may also move owned rows out of it (the terminal collect).
///
/// Every cursor emits exactly the tuple sequence the scalar operator
/// would materialize (docs/VECTORIZATION.md: the per-cursor dedup
/// invariant — Window and Project deduplicate eagerly; σ/ρ/α/⋈ preserve
/// distinctness), so interior row counts match the scalar path, the
/// terminal collect's dedup is belt-and-braces, and γ's terminal fold may
/// aggregate the rows as the set they are.
///
/// A cursor is built once (`Prepare`) and run many times (`Run`): a run
/// first `Rebind`s the leaves to this instant's inputs and ends with
/// `Reset`, which returns the cursor to its prepared state and frees
/// whatever the run held in proportion to its rows.
class Cursor;

/// Sees every batch a σ stage of an incremental prefix emits
/// (`IncrementalCursor`), tagged with the stage's σ ordinal.
class StageTap {
 public:
  virtual void Observe(std::size_t stage, const TupleBatch& batch) = 0;

 protected:
  ~StageTap() = default;
};

class Cursor {
 public:
  Cursor(const PlanNode* node, ExtendedSchemaPtr schema, bool native)
      : node(node), schema(std::move(schema)), native(native) {}
  virtual ~Cursor() = default;

  Cursor(const Cursor&) = delete;
  Cursor& operator=(const Cursor&) = delete;

  Result<TupleBatch*> Next(EvalContext& ctx) {
    started = true;
    Result<TupleBatch*> batch = NextImpl(ctx);
    if (!batch.ok()) {
      failed = true;
    } else if (*batch != nullptr) {
      rows_out += (*batch)->size();
      ++batches_out;
      if (tap != nullptr) tap->Observe(tap_stage, **batch);
    }
    return batch;
  }

  /// Full-output shortcut for consumers that need the whole relation at
  /// once (the join build/probe sides). A nullptr *value* means the stage
  /// has no materialized form — the consumer then collects it instead.
  Result<const XRelation*> Materialize(EvalContext& ctx) {
    Result<const XRelation*> relation = MaterializeImpl(ctx);
    if (!relation.ok()) {
      started = true;
      failed = true;
    } else if (*relation != nullptr) {
      started = true;
      rows_out += (*relation)->size();
    }
    return relation;
  }

  /// Drains the stage into `out`: the pipeline's terminal collect, and
  /// the join sides without a materialized form.
  Status CollectInto(XRelation* out, EvalContext& ctx) {
    started = true;
    Status status = CollectImpl(out, ctx);
    if (!status.ok()) failed = true;
    return status;
  }

  /// Points a leaf at this run's input. False when the input is gone or
  /// no longer has the schema the pipeline was prepared against: the
  /// pipeline must then be rebuilt.
  virtual bool Rebind(EvalContext& /*ctx*/) { return true; }

  /// The input of a unary chain stage (σ, π, ρ, α); nullptr for every
  /// other cursor.
  virtual Cursor* input() const { return nullptr; }

  /// Rows and batches this run actually produced, for the
  /// `serena.vectorize.*` counters: `rows_out`/`batches_out`, except for
  /// an incremental prefix, which serves cached rows it did not compute.
  virtual std::uint64_t work_rows() const { return rows_out; }
  virtual std::uint64_t work_batches() const { return batches_out; }

  /// Returns the cursor to its prepared state after a run.
  void Reset() {
    started = false;
    failed = false;
    rows_out = 0;
    batches_out = 0;
    ResetImpl();
  }

  const PlanNode* node;
  ExtendedSchemaPtr schema;
  /// True when this cursor *is* a fused plan node (the pipeline flushes
  /// its stats); false for opaque stages, whose own `Evaluate` wrapper
  /// already accounted for them.
  bool native;
  /// `node`'s ordinal in the `PlanStats` the pipeline records into.
  std::size_t ordinal = PlanStats::kNotInPlan;
  bool started = false;
  bool failed = false;
  std::uint64_t rows_out = 0;
  std::uint64_t batches_out = 0;
  /// Set on the σ stages of an incremental prefix: sees their batches.
  StageTap* tap = nullptr;
  std::size_t tap_stage = 0;

 protected:
  virtual Result<TupleBatch*> NextImpl(EvalContext& ctx) = 0;
  virtual Result<const XRelation*> MaterializeImpl(EvalContext& /*ctx*/) {
    return {nullptr};
  }
  /// Drains `Next` into `out`. Owned rows (α/⋈ output) are moved in;
  /// borrowed rows are copied, inserted with their carried hash when the
  /// producer knew it.
  virtual Status CollectImpl(XRelation* out, EvalContext& ctx);
  virtual void ResetImpl() {}
};

Status Cursor::CollectImpl(XRelation* out, EvalContext& ctx) {
  for (;;) {
    SERENA_ASSIGN_OR_RETURN(TupleBatch* batch, Next(ctx));
    if (batch == nullptr) return Status::OK();
    if (batch->owning()) {
      for (std::size_t i = 0; i < batch->size(); ++i) {
        out->InsertUnchecked(batch->TakeOwned(i));
      }
      continue;
    }
    for (std::size_t i = 0; i < batch->size(); ++i) {
      if (const std::uint64_t hash = batch->hash_at(i); hash != 0) {
        out->InsertHashed(batch->at(i), hash);
      } else {
        out->InsertUnchecked(batch->at(i));
      }
    }
  }
}

/// Drains `cursor` into γ's aggregator: the pipeline's terminal when γ is
/// its root (unless `cursor` is a keyed join, which folds its matched
/// pairs itself — `JoinCursor::Fold`). Rows are folded straight out of
/// the batches, so γ's input is never copied, hashed into a relation or
/// re-projected. That is sound only because the cursor emits a distinct
/// sequence (a relation's tuples, in its order) — debug builds check it.
Result<XRelation> Fold(Cursor* cursor, Aggregator* aggregator,
                       EvalContext& ctx) {
#ifndef NDEBUG
  XRelation folded(cursor->schema);
#endif
  for (;;) {
    SERENA_ASSIGN_OR_RETURN(const TupleBatch* batch, cursor->Next(ctx));
    if (batch == nullptr) break;
    for (std::size_t i = 0; i < batch->size(); ++i) {
#ifndef NDEBUG
      const bool distinct = folded.InsertUnchecked(batch->at(i));
      assert(distinct && "a cursor emitted a duplicate row");
#endif
      aggregator->Add(batch->at(i));
    }
  }
  return aggregator->Finish();
}

/// Source: serves an environment relation in borrowed batches. The
/// environment is stable for the duration of a query step, so no copy is
/// made until the pipeline's terminal collect.
class ScanCursor final : public Cursor {
 public:
  ScanCursor(const ScanNode* node, ExtendedSchemaPtr schema,
             std::size_t batch_size)
      : Cursor(node, std::move(schema), /*native=*/true),
        batch_size_(batch_size) {}

  bool Rebind(EvalContext& ctx) override {
    if (ctx.env == nullptr) return false;
    Result<const XRelation*> relation = ctx.env->GetRelation(
        static_cast<const ScanNode*>(node)->relation());
    if (!relation.ok() || (*relation)->schema_ptr() != schema) return false;
    relation_ = *relation;
    return true;
  }

 protected:
  Result<TupleBatch*> NextImpl(EvalContext& /*ctx*/) override {
    const std::vector<Tuple>& tuples = relation_->tuples();
    if (pos_ >= tuples.size()) return {nullptr};
    out_.Clear();
    const std::size_t n = std::min(batch_size_, tuples.size() - pos_);
    for (std::size_t i = 0; i < n; ++i) {
      out_.AppendRef(&tuples[pos_ + i]);
    }
    pos_ += n;
    return {&out_};
  }

  Result<const XRelation*> MaterializeImpl(EvalContext& /*ctx*/) override {
    return {relation_};
  }

  void ResetImpl() override { pos_ = 0; }

 private:
  const XRelation* relation_ = nullptr;
  TupleBatch out_;
  std::size_t batch_size_;
  std::size_t pos_ = 0;
};

/// Source: the deduplicated window slice of a stream, as borrowed
/// pointers into the stream's entry deque (stable until the executor's
/// post-step pruning). Deduplicating here is what makes every downstream
/// cursor see exactly the scalar window's X-Relation sequence. Each ref
/// carries the entry's append-time content hash, so neither this dedup
/// nor the terminal collect re-hashes a stream tuple.
///
/// The slice is read on the first pull of a run, into one exactly sized
/// allocation that is deduplicated in place, and freed when the run ends.
/// Under an incremental prefix the window instead serves the one
/// instant's rows the prefix hands it (`Serve`), and the prefix keeps the
/// window's state between instants (`IncrementalCursor`).
class WindowCursor final : public Cursor {
 public:
  WindowCursor(const WindowNode* node, ExtendedSchemaPtr schema,
               std::size_t batch_size)
      : Cursor(node, std::move(schema), /*native=*/true),
        batch_size_(batch_size) {}

  bool Rebind(EvalContext& ctx) override {
    if (ctx.streams == nullptr) return false;
    Result<XDRelation*> stream = ctx.streams->GetStream(window().stream());
    if (!stream.ok() || (*stream)->schema_ptr() != schema) return false;
    stream_ = *stream;
    return true;
  }

  const WindowNode& window() const {
    return *static_cast<const WindowNode*>(node);
  }
  /// The stream the last `Rebind` bound.
  const XDRelation& stream() const { return *stream_; }

  /// Makes this run serve `rows` (distinct, in stream order) instead of
  /// reading the window.
  void Serve(const std::vector<HashedTupleRef>* rows) { rows_ = rows; }

 protected:
  Result<TupleBatch*> NextImpl(EvalContext& ctx) override {
    if (rows_ == nullptr) Load(ctx.instant);
    const std::vector<HashedTupleRef>& rows = *rows_;
    if (pos_ >= rows.size()) return {nullptr};
    out_.Clear();
    const std::size_t n = std::min(batch_size_, rows.size() - pos_);
    for (std::size_t i = 0; i < n; ++i) {
      const HashedTupleRef& ref = rows[pos_ + i];
      out_.AppendRef(ref.tuple, ref.hash);
    }
    pos_ += n;
    return {&out_};
  }

  void ResetImpl() override {
    std::vector<HashedTupleRef>().swap(kept_);
    rows_ = nullptr;
    pos_ = 0;
  }

 private:
  /// Reads the slice at `instant` and keeps the first occurrence of each
  /// tuple, exactly like the scalar window's insertions into its
  /// X-Relation, on the same flat index. The entries carry their
  /// append-time hashes, so no tuple is hashed here.
  void Load(Timestamp instant) {
    rows_ = &kept_;
    if (window().mode() == WindowMode::kTime) {
      stream_->CollectInsertedDuring(instant - window().period(), instant,
                                     &kept_);
    } else {
      stream_->CollectLastInserted(
          static_cast<std::size_t>(window().period()), instant, &kept_);
    }
    FlatTupleIndex seen;
    seen.Reserve(kept_.size());
    const auto kept_at = [this](std::size_t position) -> const Tuple& {
      return *kept_[position].tuple;
    };
    std::size_t distinct = 0;
    for (std::size_t i = 0; i < kept_.size(); ++i) {
      const HashedTupleRef ref = kept_[i];
      if (seen.Insert(*ref.tuple, ref.hash, distinct, kept_at)) {
        kept_[distinct++] = ref;
      }
    }
    kept_.resize(distinct);
  }

  const XDRelation* stream_ = nullptr;
  TupleBatch out_;
  std::size_t batch_size_;
  std::vector<HashedTupleRef> kept_;
  /// What this run serves: `kept_` once loaded, or a prefix's slice.
  const std::vector<HashedTupleRef>* rows_ = nullptr;
  std::size_t pos_ = 0;
};

/// Any non-fusable stage (set ops, β, S, a γ below the root, …):
/// evaluated once through the normal `Evaluate` wrapper — which records
/// its stats and may itself vectorize subtrees below it — then served in
/// borrowed batches. A pipeline holding one is never kept: the schema it
/// was built with came from `InferSchema`, which reads the environment.
class OpaqueCursor final : public Cursor {
 public:
  OpaqueCursor(const PlanNode* node, ExtendedSchemaPtr schema,
               std::size_t batch_size)
      : Cursor(node, std::move(schema), /*native=*/false),
        batch_size_(batch_size) {}

 protected:
  Result<TupleBatch*> NextImpl(EvalContext& ctx) override {
    SERENA_RETURN_NOT_OK(EvaluateOnce(ctx));
    const std::vector<Tuple>& tuples = evaluated_->tuples();
    if (pos_ >= tuples.size()) return {nullptr};
    out_.Clear();
    const std::size_t n = std::min(batch_size_, tuples.size() - pos_);
    for (std::size_t i = 0; i < n; ++i) {
      out_.AppendRef(&tuples[pos_ + i]);
    }
    pos_ += n;
    return {&out_};
  }

  Result<const XRelation*> MaterializeImpl(EvalContext& ctx) override {
    SERENA_RETURN_NOT_OK(EvaluateOnce(ctx));
    return {&*evaluated_};
  }

  void ResetImpl() override {
    evaluated_.reset();
    pos_ = 0;
  }

 private:
  Status EvaluateOnce(EvalContext& ctx) {
    if (evaluated_.has_value()) return Status::OK();
    SERENA_ASSIGN_OR_RETURN(XRelation relation, node->Evaluate(ctx));
    evaluated_ = std::move(relation);
    return Status::OK();
  }

  TupleBatch out_;
  std::size_t batch_size_;
  std::optional<XRelation> evaluated_;
  std::size_t pos_ = 0;
};

/// σ_F: evaluates the formula per row and forwards survivors as a
/// selection vector (borrowed pointers) — no copies, no materialization.
/// The formula is compiled once, when the pipeline is prepared
/// (coordinates resolved, constants captured), so the per-row cost is one
/// comparison on value references — the amortization that makes
/// batching pay.
///
/// Formulas that are pure conjunctions of comparisons — the common shape
/// after the merge-selections rewrite folds a σ-chain into one σ — take
/// a further fast path: the conjuncts are flattened into a vector and
/// evaluated in a tight loop of direct calls, with none of the nested
/// `std::function` dispatch the general compiled tree pays per tuple.
class FilterCursor final : public Cursor {
 public:
  FilterCursor(const PlanNode* node, ExtendedSchemaPtr schema, Cursor* child,
               std::vector<CompiledComparison> conjuncts,
               TuplePredicate predicate)
      : Cursor(node, std::move(schema), /*native=*/true),
        child_(child),
        conjuncts_(std::move(conjuncts)),
        predicate_(std::move(predicate)) {}

  Cursor* input() const override { return child_; }

 protected:
  Result<TupleBatch*> NextImpl(EvalContext& ctx) override {
    // One child batch per fill: survivor pointers borrow the child
    // batch's storage, which the child reuses on its next Next().
    for (;;) {
      SERENA_ASSIGN_OR_RETURN(const TupleBatch* in, child_->Next(ctx));
      if (in == nullptr) return {nullptr};
      out_.Clear();
      for (std::size_t i = 0; i < in->size(); ++i) {
        const Tuple& t = in->at(i);
        bool keep = true;
        if (!conjuncts_.empty()) {
          for (const CompiledComparison& conjunct : conjuncts_) {
            SERENA_ASSIGN_OR_RETURN(bool value, conjunct.Eval(t));
            if (!value) {
              keep = false;
              break;
            }
          }
        } else {
          SERENA_ASSIGN_OR_RETURN(keep, predicate_(t));
        }
        if (keep) out_.AppendRef(&t, in->hash_at(i));
      }
      if (!out_.empty()) return {&out_};
    }
  }

 private:
  Cursor* child_;
  // Flattened-conjunction fast path; when empty, predicate_ decides.
  std::vector<CompiledComparison> conjuncts_;
  TuplePredicate predicate_;
  TupleBatch out_;
};

/// π_Y: projects each row and deduplicates the output stream (projection
/// can collapse distinct inputs), emitting first occurrences in input
/// order — exactly the scalar operator's insertion sequence. The batch
/// borrows the stored first occurrences (a deque, so references survive
/// later insertions) with their hashes, so each output row is
/// materialized and hashed once.
///
/// When π's output is collected (at a pipeline's root, or as a join
/// side) it projects straight into the destination relation instead,
/// whose own index does the dedup: no first occurrence is stored twice.
class ProjectCursor final : public Cursor {
 public:
  ProjectCursor(const PlanNode* node, ExtendedSchemaPtr schema, Cursor* child,
                std::vector<std::size_t> coords)
      : Cursor(node, std::move(schema), /*native=*/true),
        child_(child),
        coords_(std::move(coords)) {}

  Cursor* input() const override { return child_; }

 protected:
  Result<TupleBatch*> NextImpl(EvalContext& ctx) override {
    if (!seen_.has_value()) seen_.emplace();
    std::deque<Tuple>& seen = *seen_;
    const auto seen_at = [&seen](std::size_t position) -> const Tuple& {
      return seen[position];
    };
    for (;;) {
      SERENA_ASSIGN_OR_RETURN(const TupleBatch* in, child_->Next(ctx));
      if (in == nullptr) return {nullptr};
      out_.Clear();
      for (std::size_t i = 0; i < in->size(); ++i) {
        Tuple projected = in->at(i).Project(coords_);
        const std::uint64_t hash = projected.Hash();
        if (!seen_index_.Insert(projected, hash, seen.size(), seen_at)) {
          continue;
        }
        seen.push_back(std::move(projected));
        out_.AppendRef(&seen.back(), hash);
      }
      if (!out_.empty()) return {&out_};
    }
  }

  /// Counts rows and batches as `Next` would have emitted them: one
  /// batch per child batch that contributed a new row.
  Status CollectImpl(XRelation* out, EvalContext& ctx) override {
    for (;;) {
      SERENA_ASSIGN_OR_RETURN(const TupleBatch* in, child_->Next(ctx));
      if (in == nullptr) return Status::OK();
      std::uint64_t inserted = 0;
      for (std::size_t i = 0; i < in->size(); ++i) {
        Tuple projected = in->at(i).Project(coords_);
        const std::uint64_t hash = projected.Hash();
        if (out->InsertHashed(std::move(projected), hash)) ++inserted;
      }
      if (inserted > 0) {
        rows_out += inserted;
        ++batches_out;
      }
    }
  }

  void ResetImpl() override {
    seen_.reset();
    seen_index_ = FlatTupleIndex();
  }

 private:
  Cursor* child_;
  std::vector<std::size_t> coords_;
  TupleBatch out_;
  // The first occurrences, only while a run emits batches.
  std::optional<std::deque<Tuple>> seen_;
  FlatTupleIndex seen_index_;
};

/// ρ_{A→B}: tuples are untouched — forwards the child's batches under the
/// renamed schema.
class RenameCursor final : public Cursor {
 public:
  RenameCursor(const PlanNode* node, ExtendedSchemaPtr schema, Cursor* child)
      : Cursor(node, std::move(schema), /*native=*/true), child_(child) {}

  Cursor* input() const override { return child_; }

 protected:
  Result<TupleBatch*> NextImpl(EvalContext& ctx) override {
    return child_->Next(ctx);
  }

 private:
  Cursor* child_;
};

/// α_{A:=B} / α_{A:=a}: realizes the target attribute per row into owned
/// batches. Mirrors the scalar AssignImpl row construction (and its
/// TypeMismatch diagnostic) exactly.
class AssignCursor final : public Cursor {
 public:
  static constexpr std::size_t kNew = static_cast<std::size_t>(-1);

  AssignCursor(const PlanNode* node, ExtendedSchemaPtr schema, Cursor* child,
               std::string target, DataType declared,
               std::vector<std::size_t> plan,
               std::optional<std::size_t> source_coord,
               std::optional<Value> constant)
      : Cursor(node, std::move(schema), /*native=*/true),
        child_(child),
        target_(std::move(target)),
        declared_(declared),
        plan_(std::move(plan)),
        source_coord_(source_coord),
        constant_(std::move(constant)) {}

  Cursor* input() const override { return child_; }

 protected:
  Result<TupleBatch*> NextImpl(EvalContext& ctx) override {
    SERENA_ASSIGN_OR_RETURN(const TupleBatch* in, child_->Next(ctx));
    if (in == nullptr) return {nullptr};
    out_.Clear();
    out_.ReserveOwned(in->size());
    for (std::size_t i = 0; i < in->size(); ++i) {
      const Tuple& u = in->at(i);
      const Value realized =
          source_coord_.has_value() ? u[*source_coord_] : *constant_;
      if (!realized.ConformsTo(declared_)) {
        return Status::TypeMismatch("assign: value ", realized.ToString(),
                                    " does not conform to '", target_,
                                    "' of type ",
                                    DataTypeToString(declared_));
      }
      std::vector<Value> values;
      values.reserve(plan_.size());
      for (std::size_t coord : plan_) {
        values.push_back(coord == kNew ? realized.CoerceTo(declared_)
                                       : u[coord]);
      }
      out_.AppendOwned(Tuple(std::move(values)));
    }
    // α emits one row per input row, so a non-null fill is never empty.
    return {&out_};
  }

 private:
  Cursor* child_;
  std::string target_;
  DataType declared_;
  std::vector<std::size_t> plan_;
  std::optional<std::size_t> source_coord_;
  std::optional<Value> constant_;
  TupleBatch out_;
};

/// ⋈: materializes both sides on first pull (operand order, like the
/// scalar node), builds the shared `JoinBuildTable` once on the smaller
/// side, then probes batch-by-batch. Build/probe roles and probe order
/// replicate the scalar NaturalJoin, so emission order — and therefore
/// the output relation — is identical.
///
/// Under a folding γ a keyed join is the pipeline's terminal itself
/// (`Fold`): each matched pair goes straight into the aggregator, and no
/// merged row or batch is built.
class JoinCursor final : public Cursor {
 public:
  JoinCursor(const PlanNode* node, JoinSpec spec, Cursor* left, Cursor* right,
             std::size_t batch_size)
      : Cursor(node, spec.schema, /*native=*/true),
        spec_(std::move(spec)),
        left_(left),
        right_(right),
        batch_size_(batch_size) {}

  /// True unless the join degrades to a Cartesian product.
  bool keyed() const { return !spec_.key1.empty(); }

  /// Maps `aggregator`'s group-by and aggregate-input coordinates of the
  /// merged row once through `JoinSpec::sources`, for `Fold`.
  void PrepareFold(const Aggregator& aggregator) {
    const auto map = [this](const std::vector<std::size_t>& coords) {
      std::vector<JoinSpec::Source> sources;
      sources.reserve(coords.size());
      for (const std::size_t c : coords) {
        sources.push_back(c == Aggregator::kNoInput ? JoinSpec::Source{}
                                                    : spec_.sources[c]);
      }
      return sources;
    };
    fold_keys_ = map(aggregator.key_coords());
    fold_inputs_ = map(aggregator.input_coords());
  }

  /// γ's terminal over this keyed join (after `PrepareFold`): folds every
  /// matched pair into `aggregator`, in the order `Next` would emit the
  /// merged rows. When every group-by value can be read off the probe
  /// row (a probe attribute or a join key), the group is looked up once
  /// per probe row, on its first match. A new group's key takes each
  /// value from the side `Merge` would, so the output bytes match the
  /// merged fold. Records the pair count as the join's rows, as the
  /// scalar path does.
  Result<XRelation> Fold(Aggregator* aggregator, EvalContext& ctx) {
    started = true;
    if (Status opened = Open(ctx); !opened.ok()) {
      failed = true;
      return opened;
    }
    bool group_per_probe_row = true;
    for (const JoinSpec::Source& key : fold_keys_) {
      const bool from_probe = key.from_r1 != build_r1_;
      const bool join_key =
          key.from_r1 && std::find(spec_.key1.begin(), spec_.key1.end(),
                                   key.coord) != spec_.key1.end();
      group_per_probe_row = group_per_probe_row && (from_probe || join_key);
    }
#ifndef NDEBUG
    XRelation folded(schema);
#endif
    constexpr std::size_t kNoGroup = static_cast<std::size_t>(-1);
    std::uint64_t pairs = 0;
    for (const Tuple& probe : probe_->tuples()) {
      std::size_t group = kNoGroup;
      table_->ForEachMatch(probe, *probe_key_, [&](const Tuple& match) {
        const Tuple& t1 = build_r1_ ? match : probe;
        const Tuple& t2 = build_r1_ ? probe : match;
        const auto at = [&t1, &t2](const JoinSpec::Source& source)
            -> const Value& {
          return source.from_r1 ? t1[source.coord] : t2[source.coord];
        };
        if (group == kNoGroup || !group_per_probe_row) {
          group = aggregator->GroupOf(
              [&](std::size_t i) -> const Value& { return at(fold_keys_[i]); });
        }
        aggregator->Accumulate(group, [&](std::size_t j) -> const Value& {
          return at(fold_inputs_[j]);
        });
#ifndef NDEBUG
        const bool distinct = folded.InsertUnchecked(spec_.Merge(t1, t2));
        assert(distinct && "a join emitted a duplicate pair");
#endif
        ++pairs;
      });
    }
    rows_out += pairs;
    return aggregator->Finish();
  }

 protected:
  Result<TupleBatch*> NextImpl(EvalContext& ctx) override {
    if (!opened_) {
      SERENA_RETURN_NOT_OK(Open(ctx));
      // Sized for about one match per probe row, never past the batch
      // size: a kept pipeline holds on to its batch, and a small join's
      // should stay small.
      out_.ReserveOwned(std::min(
          batch_size_, keyed() ? probe_->size()
                               : left_rel_->size() * right_rel_->size()));
    }
    out_.Clear();
    if (!keyed()) return Cartesian();
    return Probe();
  }

  void ResetImpl() override {
    opened_ = false;
    table_.reset();
    left_store_.reset();
    right_store_.reset();
    left_rel_ = nullptr;
    right_rel_ = nullptr;
    probe_ = nullptr;
    probe_idx_ = 0;
    i1_ = 0;
    i2_ = 0;
  }

 private:
  /// Materializes both sides and, for a keyed join, builds the table.
  Status Open(EvalContext& ctx) {
    opened_ = true;
    SERENA_ASSIGN_OR_RETURN(left_rel_,
                            MaterializeSide(left_, &left_store_, ctx));
    SERENA_ASSIGN_OR_RETURN(right_rel_,
                            MaterializeSide(right_, &right_store_, ctx));
    if (!keyed()) return Status::OK();
    build_r1_ = left_rel_->size() < right_rel_->size();
    probe_ = build_r1_ ? right_rel_ : left_rel_;
    probe_key_ = build_r1_ ? &spec_.key2 : &spec_.key1;
    table_.emplace(build_r1_ ? left_rel_->tuples() : right_rel_->tuples(),
                   build_r1_ ? spec_.key1 : spec_.key2);
    return Status::OK();
  }

  static Result<const XRelation*> MaterializeSide(
      Cursor* side, std::optional<XRelation>* store, EvalContext& ctx) {
    SERENA_ASSIGN_OR_RETURN(const XRelation* relation,
                            side->Materialize(ctx));
    if (relation != nullptr) return {relation};
    store->emplace(side->schema);
    SERENA_RETURN_NOT_OK(side->CollectInto(&**store, ctx));
    return {&**store};
  }

  Result<TupleBatch*> Cartesian() {
    const std::vector<Tuple>& r1 = left_rel_->tuples();
    const std::vector<Tuple>& r2 = right_rel_->tuples();
    while (i1_ < r1.size()) {
      if (i2_ == r2.size()) {
        i2_ = 0;
        ++i1_;
        continue;
      }
      if (out_.size() >= batch_size_) return {&out_};
      out_.AppendOwned(spec_.Merge(r1[i1_], r2[i2_]));
      ++i2_;
    }
    if (out_.empty()) return {nullptr};
    return {&out_};
  }

  Result<TupleBatch*> Probe() {
    const std::vector<Tuple>& tuples = probe_->tuples();
    if (table_->empty()) probe_idx_ = tuples.size();
    while (probe_idx_ < tuples.size() && out_.size() < batch_size_) {
      // Finish every match of one probe row before checking the size cap,
      // so resuming only needs the probe index (batches may overshoot).
      const Tuple& t = tuples[probe_idx_++];
      table_->ForEachMatch(t, *probe_key_, [this, &t](const Tuple& match) {
        out_.AppendOwned(build_r1_ ? spec_.Merge(match, t)
                                   : spec_.Merge(t, match));
      });
    }
    if (out_.empty()) return {nullptr};
    return {&out_};
  }

  JoinSpec spec_;
  Cursor* left_;
  Cursor* right_;
  TupleBatch out_;
  std::size_t batch_size_;
  std::vector<JoinSpec::Source> fold_keys_;
  std::vector<JoinSpec::Source> fold_inputs_;

  bool opened_ = false;
  std::optional<XRelation> left_store_;
  std::optional<XRelation> right_store_;
  const XRelation* left_rel_ = nullptr;
  const XRelation* right_rel_ = nullptr;

  bool build_r1_ = false;
  std::optional<JoinBuildTable> table_;
  const XRelation* probe_ = nullptr;
  const std::vector<std::size_t>* probe_key_ = nullptr;
  std::size_t probe_idx_ = 0;

  std::size_t i1_ = 0;
  std::size_t i2_ = 0;
};

/// The incremental prefix (docs/VECTORIZATION.md, "Incremental windows"):
/// a σ/ρ chain over a time window of period > 1 in a kept pipeline,
/// evaluated by §4.2's delta rule. σ and ρ distribute over union and act
/// row by row, and the window keeps first occurrences, so the chain's
/// output at τ is its outputs over the window's instants, concatenated
/// oldest first and deduplicated. The cursor caches each instant's
/// evaluation (a *slice*: the instant's distinct rows, borrowed from the
/// stream, each with how many of the chain's σ stages it passes — seen
/// through the σ stages' taps). A run
///   - checks each cached slice against the stream's entry count at its
///     instant (a late append, a prune or a re-created stream drops the
///     whole cache, and the chain re-reads the retained history),
///   - drops the slices that left the window,
///   - runs the chain on each instant not cached yet — in steady state
///     only the arriving one — and caches it once it succeeded,
///   - serves the rows of the cached slices that pass every σ, oldest
///     first, deduplicated through one `FlatTupleIndex` (or the
///     collecting relation's own index).
/// An instant whose chain fails drops the cache, and the run falls back
/// to the full re-scan, which fails exactly as the scalar path does.
///
/// Per-stage statistics stay those of the full re-scan: a stage's rows
/// are its distinct rows over the whole window (its *logical* count).
/// One index over the window's distinct rows, each pointing at its newest
/// occurrence, counts them as slices enter and leave; per σ stage a
/// counter holds how many of them pass it; ρ keeps its input's count.
/// Batches, wall time and `serena.vectorize.rows` report the instants
/// actually evaluated.
///
/// A π or α above the chain reads its served rows every run: caching
/// their output would copy every row of the window into the result
/// anyway, on top of building the arriving rows.
class IncrementalCursor final : public Cursor, public StageTap {
 public:
  /// Most σ stages a prefix counts (a slice row's depth is a byte).
  static constexpr std::size_t kMaxSelects = 255;
  /// Longest period a prefix caches: at most that many slices are live,
  /// and a slice's slot must fit the high byte of an index position.
  static constexpr Timestamp kMaxPeriod = 254;

  IncrementalCursor(WindowCursor* window, std::vector<Cursor*> stages,
                    std::size_t batch_size)
      : Cursor(stages.back()->node, stages.back()->schema, /*native=*/false),
        window_(window),
        stages_(std::move(stages)),
        top_(stages_.back()),
        batch_size_(batch_size) {
    for (Cursor* stage : stages_) {
      if (stage->node->kind() != PlanKind::kSelect) continue;
      stage->tap = this;
      stage->tap_stage = ++selects_;
    }
    selected_.assign(selects_ + 1, 0);
    tap_pos_.assign(selects_ + 1, 0);
    stage_batches_.assign(stages_.size() + 1, 0);
  }

  /// False when the pipeline is not kept: every run re-scans.
  void set_active(bool active) { active_ = active; }

  void Observe(std::size_t stage, const TupleBatch& batch) override {
    if (evaluating_ == nullptr) return;
    // A σ emits a subsequence of the slice's rows, as the same pointers.
    const std::vector<HashedTupleRef>& rows = evaluating_->rows;
    std::size_t& pos = tap_pos_[stage];
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const Tuple* row = &batch.at(i);
      while (rows[pos].tuple != row) ++pos;
      assert(pos < rows.size());
      evaluating_->depth[pos++] = static_cast<std::uint8_t>(stage);
    }
  }

  std::uint64_t work_rows() const override {
    return mode_ == Mode::kFull ? top_->rows_out : top_rows_;
  }
  std::uint64_t work_batches() const override {
    return mode_ == Mode::kFull ? top_->batches_out : top_batches_;
  }

 protected:
  Result<TupleBatch*> NextImpl(EvalContext& ctx) override {
    if (mode_ == Mode::kIdle) Open(ctx);
    if (mode_ == Mode::kFull) return top_->Next(ctx);
    const auto served_at = [this](std::size_t position) -> const Tuple& {
      return *served_[position];
    };
    out_.Clear();
    while (serve_slice_ < live_.size() && out_.size() < batch_size_) {
      const Slice& slice = slots_[live_[serve_slice_]];
      if (serve_row_ == slice.rows.size()) {
        ++serve_slice_;
        serve_row_ = 0;
        continue;
      }
      const std::size_t row = serve_row_++;
      if (slice.depth[row] != selects_) continue;
      const HashedTupleRef ref = slice.rows[row];
      if (served_index_.Insert(*ref.tuple, ref.hash, served_.size(),
                               served_at)) {
        served_.push_back(ref.tuple);
        out_.AppendRef(ref.tuple, ref.hash);
      }
    }
    if (out_.empty()) {
      assert(top_->rows_out == served_.size() && "a prefix lost count");
      return {nullptr};
    }
    return {&out_};
  }

  Status CollectImpl(XRelation* out, EvalContext& ctx) override {
    if (mode_ == Mode::kIdle) Open(ctx);
    if (mode_ == Mode::kFull) return top_->CollectInto(out, ctx);
    std::uint64_t inserted = 0;
    for (const std::uint32_t live : live_) {
      const Slice& slice = slots_[live];
      for (std::size_t row = 0; row < slice.rows.size(); ++row) {
        if (slice.depth[row] != selects_) continue;
        const HashedTupleRef& ref = slice.rows[row];
        if (out->InsertHashed(*ref.tuple, ref.hash)) ++inserted;
      }
    }
    rows_out += inserted;
    assert(top_->rows_out == inserted && "a prefix lost count");
    return Status::OK();
  }

  void ResetImpl() override {
    mode_ = Mode::kIdle;
    serve_slice_ = 0;
    serve_row_ = 0;
    top_rows_ = 0;
    top_batches_ = 0;
  }

 private:
  enum class Mode { kIdle, kServe, kFull };

  /// One cached instant.
  struct Slice {
    Timestamp instant = 0;
    /// The stream's entries at `instant` when the slice was evaluated.
    std::size_t entries = 0;
    /// The instant's distinct rows, in stream order.
    std::vector<HashedTupleRef> rows;
    /// Per row, the σ stages it passes: it reaches σ `depth` and no
    /// further (`selects_` = every one: the row is the chain's output).
    std::vector<std::uint8_t> depth;
  };

  /// Index positions: a slice's slot in the high bits, a row below.
  static constexpr unsigned kRowBits = 24;
  static constexpr std::size_t kMaxRows = std::size_t{1} << kRowBits;
  static std::size_t Position(std::size_t slot, std::size_t row) {
    return slot << kRowBits | row;
  }

  /// The row an index position names.
  const Tuple& RowAt(std::size_t position) const {
    return *slots_[position >> kRowBits].rows[position & (kMaxRows - 1)].tuple;
  }

  /// Brings the cache up to `ctx.instant`. False when an instant's chain
  /// failed: the cache is then empty and the run re-scans.
  bool Advance(EvalContext& ctx) {
    const XDRelation& stream = window_->stream();
    if (stream.id() != stream_id_) {
      Drop();
      stream_id_ = stream.id();
    }
    const Timestamp to = ctx.instant;
    const Timestamp from = to - window_->window().period();
    counts_.clear();
    stream.CountByInstant(
        live_.empty() ? from
                      : std::min(from, slots_[live_.front()].instant - 1),
        to, &counts_);
    // The cached slices must still be the stream's first instants here,
    // entry for entry: a late append or a prune drops them all.
    std::size_t next = live_.size();
    for (std::size_t i = 0; i < live_.size(); ++i) {
      const Slice& slice = slots_[live_[i]];
      if (i == counts_.size() || counts_[i].first != slice.instant ||
          counts_[i].second != slice.entries) {
        Drop();
        next = 0;
        break;
      }
    }
    while (!live_.empty() && slots_[live_.front()].instant <= from) Retire();
    for (; next < counts_.size(); ++next) {
      const auto [instant, entries] = counts_[next];
      if (instant <= from) continue;
      if (!Evaluate(instant, entries, ctx)) {
        Drop();
        return false;
      }
    }
    return true;
  }

  /// Runs the chain on the rows inserted at `instant` and caches the
  /// result. False (with the cache to be dropped) when the chain failed,
  /// or the instant has too many rows for an index position.
  bool Evaluate(Timestamp instant, std::size_t entries, EvalContext& ctx) {
    if (entries >= kMaxRows) return false;
    // At most `kMaxPeriod` slices are live at once (`Seal`).
    std::size_t slot = slots_.size();
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
    } else {
      slots_.emplace_back();
    }
    live_.push_back(static_cast<std::uint32_t>(slot));
    Slice& slice = slots_[slot];
    slice.instant = instant;
    slice.entries = entries;
    slice.rows.clear();
    window_->stream().CollectInsertedDuring(instant - 1, instant, &slice.rows);
    // First occurrences within the instant; the index points at each
    // row's newest occurrence in the window.
    fresh_.clear();
    const auto row_at = [this](std::size_t position) -> const Tuple& {
      return RowAt(position);
    };
    std::size_t kept = 0;
    for (std::size_t i = 0; i < slice.rows.size(); ++i) {
      const HashedTupleRef ref = slice.rows[i];
      const std::size_t position = Position(slot, kept);
      const auto [found, inserted] =
          index_.FindOrInsert(ref.hash, position, [&](std::size_t p) {
            return row_at(p) == *ref.tuple;
          });
      if (inserted) {
        fresh_.push_back(kept);
      } else if (found >> kRowBits == slot) {
        continue;  // Seen earlier in this instant.
      } else {
        index_.Relocate(ref.hash, found, position);
      }
      slice.rows[kept++] = ref;
    }
    slice.rows.resize(kept);
    slice.depth.assign(kept, 0);
    std::fill(tap_pos_.begin(), tap_pos_.end(), 0);

    window_->Serve(&slice.rows);
    evaluating_ = &slice;
    const Status status = Drain(ctx);
    evaluating_ = nullptr;
    stage_batches_[0] += window_->batches_out;
    window_->Reset();
    for (std::size_t i = 0; i < stages_.size(); ++i) {
      stage_batches_[i + 1] += stages_[i]->batches_out;
    }
    top_rows_ += top_->rows_out;
    top_batches_ += top_->batches_out;
    for (Cursor* stage : stages_) stage->Reset();
    if (!status.ok()) return false;
    for (const std::size_t row : fresh_) {
      for (std::uint8_t s = 1; s <= slice.depth[row]; ++s) ++selected_[s];
    }
    return true;
  }

  /// Pulls the chain's output for the instant being evaluated: the σ
  /// taps record which rows pass.
  Status Drain(EvalContext& ctx) {
    for (;;) {
      SERENA_ASSIGN_OR_RETURN(const TupleBatch* batch, top_->Next(ctx));
      if (batch == nullptr) return Status::OK();
    }
  }

  /// Drops the oldest slice, and with it the rows whose newest occurrence
  /// it held.
  void Retire() {
    const std::uint32_t slot = live_.front();
    const Slice& slice = slots_[slot];
    for (std::size_t row = 0; row < slice.rows.size(); ++row) {
      if (!index_.ErasePosition(slice.rows[row].hash, Position(slot, row))) {
        continue;  // A newer slice holds the row too.
      }
      for (std::uint8_t s = 1; s <= slice.depth[row]; ++s) --selected_[s];
    }
    free_slots_.push_back(slot);
    live_.erase(live_.begin());
  }

  /// Empties the cache without reading a row (its rows may be gone).
  void Drop() {
    for (const std::uint32_t live : live_) free_slots_.push_back(live);
    live_.clear();
    index_.Clear();
    std::fill(selected_.begin(), selected_.end(), 0);
  }

  void Open(EvalContext& ctx) {
    mode_ = Mode::kServe;
    served_.clear();
    served_index_.Clear();
    std::fill(stage_batches_.begin(), stage_batches_.end(), 0);
    if (!active_ || !Advance(ctx)) {
      top_rows_ = 0;
      top_batches_ = 0;
      mode_ = Mode::kFull;
      return;
    }
    SetStats();
  }

  /// Leaves each stage's statistics as the full re-scan would: its
  /// logical rows, and the batches the evaluated instants emitted. Set
  /// before serving, so a consumer failing midway sees the chain fully
  /// evaluated, as the scalar path does.
  void SetStats() {
    std::uint64_t rows = index_.size();
    window_->started = true;
    window_->rows_out = rows;
    window_->batches_out = stage_batches_[0];
    for (std::size_t i = 0; i < stages_.size(); ++i) {
      Cursor* stage = stages_[i];
      // ρ keeps its input's rows.
      if (stage->tap != nullptr) rows = selected_[stage->tap_stage];
      stage->started = true;
      stage->rows_out = rows;
      stage->batches_out = stage_batches_[i + 1];
    }
  }

  WindowCursor* window_;
  /// The chain's stages, leaves first; `top_` is the last.
  std::vector<Cursor*> stages_;
  Cursor* top_;
  std::size_t batch_size_;
  /// The chain's σ stages (their taps are numbered 1..selects_).
  std::size_t selects_ = 0;
  bool active_ = true;

  // The cache.
  std::uint64_t stream_id_ = 0;
  std::vector<Slice> slots_;
  std::vector<std::uint32_t> live_;  // Slots of the cached slices, oldest first.
  std::vector<std::uint32_t> free_slots_;
  FlatTupleIndex index_;  // The window's distinct rows.
  /// Per σ ordinal (from 1): the window's distinct rows passing it.
  std::vector<std::uint64_t> selected_;

  // Per instant evaluated.
  std::vector<std::pair<Timestamp, std::size_t>> counts_;
  std::vector<std::size_t> fresh_;  // Rows new to the window.
  std::vector<std::size_t> tap_pos_;  // Per σ ordinal.
  Slice* evaluating_ = nullptr;

  // Per run.
  Mode mode_ = Mode::kIdle;
  std::vector<std::uint64_t> stage_batches_;
  std::uint64_t top_rows_ = 0;
  std::uint64_t top_batches_ = 0;
  TupleBatch out_;
  std::vector<const Tuple*> served_;
  FlatTupleIndex served_index_;
  std::size_t serve_slice_ = 0;
  std::size_t serve_row_ = 0;
};

}  // namespace

// ---------------------------------------------------------------------------
// Prepared pipelines
// ---------------------------------------------------------------------------

/// A fused pipeline, built once by `Prepare` and run by `Run`. It holds
/// only plan-shaped state: cursors with their schemas, compiled
/// predicates, coordinate maps, join specs and batches, γ's aggregator,
/// each stage's statistics ordinal and the span detail. Everything a run
/// reads in proportion to its rows is rebound, or rebuilt and freed, per
/// run.
struct PreparedPipeline {
  /// The pipeline's root node: the fused root, or γ when γ folds.
  const PlanNode* node = nullptr;
  /// Children before parents, leaves first.
  std::vector<std::unique_ptr<Cursor>> cursors;
  /// The cursor the terminal drains: the root node's own cursor, or γ's
  /// child when γ folds the pipeline.
  Cursor* root = nullptr;
  /// γ's aggregator when γ folds the pipeline (the terminal), else empty
  /// (the terminal collects).
  std::optional<Aggregator> aggregator;
  /// The record the cursors' ordinals index (nullptr: none).
  const PlanStats* stats = nullptr;
  std::size_t batch_size = 0;
  /// True when a stage is an `OpaqueCursor`: such a pipeline is never
  /// kept.
  bool opaque = false;
  /// True when the pipeline is prepared to be kept (a standing query's):
  /// only then do window chains become incremental prefixes.
  bool incremental = false;
  /// The incremental prefixes among `cursors`.
  std::vector<IncrementalCursor*> prefixes;
  /// The fused stages, leaves first (e.g. "window,select", or
  /// "window,select,aggregate" under a folding γ) — the detail of the
  /// pipeline's `vec.pipeline` span.
  std::string stages;
  /// Plan nodes fused into the pipeline (`serena.vectorize.fused_ops`).
  std::uint64_t fused_ops = 0;
  /// Rows of the last successful run's result: the collect reserves them.
  std::size_t last_rows = 0;
};

namespace {

template <typename CursorT, typename... Args>
CursorT* AddCursor(PreparedPipeline* pipeline, Args&&... args) {
  auto cursor = std::make_unique<CursorT>(std::forward<Args>(args)...);
  if (pipeline->stats != nullptr) {
    cursor->ordinal = pipeline->stats->OrdinalOf(cursor->node);
  }
  pipeline->cursors.push_back(std::move(cursor));
  return static_cast<CursorT*>(pipeline->cursors.back().get());
}

/// Wraps `top` in an incremental prefix when `pipeline` is to be kept
/// and `top` heads a σ/ρ chain over a time window of period > 1;
/// otherwise returns `top`. Called where such a chain ends: at the
/// pipeline's root, a join side, and below a π or α.
Cursor* Seal(Cursor* top, PreparedPipeline* pipeline) {
  if (top == nullptr || !pipeline->incremental || top->input() == nullptr) {
    return top;
  }
  std::vector<Cursor*> stages;
  Cursor* leaf = top;
  for (; leaf->input() != nullptr; leaf = leaf->input()) {
    const PlanKind kind = leaf->node->kind();
    if (kind != PlanKind::kSelect && kind != PlanKind::kRename) return top;
    stages.push_back(leaf);
  }
  if (leaf->node->kind() != PlanKind::kWindow) return top;
  auto* window = static_cast<WindowCursor*>(leaf);
  const auto selects =
      std::count_if(stages.begin(), stages.end(), [](const Cursor* stage) {
        return stage->node->kind() == PlanKind::kSelect;
      });
  if (window->window().mode() != WindowMode::kTime ||
      window->window().period() <= 1 ||
      window->window().period() > IncrementalCursor::kMaxPeriod ||
      static_cast<std::size_t>(selects) > IncrementalCursor::kMaxSelects) {
    return top;
  }
  std::reverse(stages.begin(), stages.end());
  auto* prefix = AddCursor<IncrementalCursor>(pipeline, window,
                                              std::move(stages),
                                              pipeline->batch_size);
  pipeline->prefixes.push_back(prefix);
  return prefix;
}

/// Builds the cursor for `node` (recursively for fusable subtrees).
/// Returns nullptr when the pipeline cannot be built — any schema or
/// lookup failure — in which case the whole TryExecute falls back to the
/// scalar path, which reproduces the exact scalar diagnostics. Building
/// performs no evaluation, so a fallback re-runs from a clean slate.
Cursor* BuildCursor(const PlanNode& node, EvalContext& ctx,
                    PreparedPipeline* pipeline) {
  switch (node.kind()) {
    case PlanKind::kScan: {
      if (ctx.env == nullptr) return nullptr;
      const auto& scan = static_cast<const ScanNode&>(node);
      Result<const XRelation*> relation =
          ctx.env->GetRelation(scan.relation());
      if (!relation.ok()) return nullptr;
      return AddCursor<ScanCursor>(pipeline, &scan,
                                   (*relation)->schema_ptr(),
                                   pipeline->batch_size);
    }
    case PlanKind::kWindow: {
      if (ctx.streams == nullptr) return nullptr;
      const auto& window = static_cast<const WindowNode&>(node);
      Result<XDRelation*> stream = ctx.streams->GetStream(window.stream());
      if (!stream.ok()) return nullptr;
      return AddCursor<WindowCursor>(pipeline, &window,
                                     (*stream)->schema_ptr(),
                                     pipeline->batch_size);
    }
    case PlanKind::kSelect: {
      const auto& select = static_cast<const SelectNode&>(node);
      Cursor* child = BuildCursor(*select.child(), ctx, pipeline);
      if (child == nullptr) return nullptr;
      Result<ExtendedSchemaPtr> schema =
          SelectSchema(child->schema, select.formula());
      if (!schema.ok()) return nullptr;
      // Pure conjunctions of comparisons flatten into a direct-call loop;
      // anything else compiles to the general predicate tree. Compile
      // failures (unbound parameter, unresolvable attribute) are exactly
      // the per-tuple errors of the interpreted path — falling back to
      // scalar evaluation reproduces its diagnostics.
      std::vector<CompiledComparison> conjuncts;
      TuplePredicate predicate;
      if (!select.formula()->FlattenConjunction(*child->schema, &conjuncts)) {
        conjuncts.clear();
        Result<TuplePredicate> compiled =
            select.formula()->Compile(*child->schema);
        if (!compiled.ok()) return nullptr;
        predicate = std::move(*compiled);
      }
      return AddCursor<FilterCursor>(pipeline, &node, std::move(*schema),
                                     child, std::move(conjuncts),
                                     std::move(predicate));
    }
    case PlanKind::kProject: {
      const auto& project = static_cast<const ProjectNode&>(node);
      Cursor* child = Seal(BuildCursor(*project.child(), ctx, pipeline),
                           pipeline);
      if (child == nullptr) return nullptr;
      Result<ExtendedSchemaPtr> schema =
          ProjectSchema(child->schema, project.attributes());
      if (!schema.ok()) return nullptr;
      std::vector<std::size_t> coords;
      for (const Attribute& attr : (*schema)->attributes()) {
        if (attr.is_real()) {
          coords.push_back(*child->schema->CoordinateOf(attr.name));
        }
      }
      return AddCursor<ProjectCursor>(pipeline, &node, std::move(*schema),
                                      child, std::move(coords));
    }
    case PlanKind::kRename: {
      const auto& rename = static_cast<const RenameNode&>(node);
      Cursor* child = BuildCursor(*rename.child(), ctx, pipeline);
      if (child == nullptr) return nullptr;
      Result<ExtendedSchemaPtr> schema =
          RenameSchema(child->schema, rename.from(), rename.to());
      if (!schema.ok()) return nullptr;
      return AddCursor<RenameCursor>(pipeline, &node, std::move(*schema),
                                     child);
    }
    case PlanKind::kAssign: {
      const auto& assign = static_cast<const AssignNode&>(node);
      // Unbound parameters fail at runtime on the scalar path; let it.
      if (assign.from_parameter()) return nullptr;
      Cursor* child = Seal(BuildCursor(*assign.child(), ctx, pipeline),
                           pipeline);
      if (child == nullptr) return nullptr;
      std::optional<std::size_t> source_coord;
      std::optional<Value> constant;
      if (assign.from_attribute()) {
        source_coord = child->schema->CoordinateOf(assign.source_attribute());
        if (!source_coord.has_value()) return nullptr;
      } else {
        constant = assign.constant();
      }
      Result<ExtendedSchemaPtr> schema =
          AssignSchema(child->schema, assign.target());
      if (!schema.ok()) return nullptr;
      const DataType declared =
          (*schema)->FindAttribute(assign.target())->type;
      std::vector<std::size_t> plan;
      for (const Attribute& attr : (*schema)->attributes()) {
        if (!attr.is_real()) continue;
        if (attr.name == assign.target()) {
          plan.push_back(AssignCursor::kNew);
        } else {
          plan.push_back(*child->schema->CoordinateOf(attr.name));
        }
      }
      return AddCursor<AssignCursor>(pipeline, &node, std::move(*schema),
                                     child, assign.target(), declared,
                                     std::move(plan), source_coord,
                                     std::move(constant));
    }
    case PlanKind::kJoin: {
      const auto& join = static_cast<const JoinNode&>(node);
      Cursor* left = Seal(BuildCursor(*join.left(), ctx, pipeline), pipeline);
      if (left == nullptr) return nullptr;
      Cursor* right =
          Seal(BuildCursor(*join.right(), ctx, pipeline), pipeline);
      if (right == nullptr) return nullptr;
      Result<JoinSpec> spec = JoinSpec::Resolve(left->schema, right->schema);
      if (!spec.ok()) return nullptr;
      return AddCursor<JoinCursor>(pipeline, &node, std::move(*spec), left,
                                   right, pipeline->batch_size);
    }
    default: {
      // Opaque stage: needs its schema up front (parents resolve theirs
      // at build time); InferSchema derives exactly the schema the
      // runtime evaluation will produce.
      if (ctx.env == nullptr) return nullptr;
      Result<ExtendedSchemaPtr> schema =
          node.InferSchema(*ctx.env, ctx.streams);
      if (!schema.ok()) return nullptr;
      pipeline->opaque = true;
      return AddCursor<OpaqueCursor>(pipeline, &node, std::move(*schema),
                                     pipeline->batch_size);
    }
  }
}

/// The one pipeline builder: the cursors of the pipeline rooted at
/// `node` against `ctx`'s environment, statistics record and batch size,
/// or nullptr when it cannot be built (see `BuildCursor`). A pipeline
/// prepared to be kept gets incremental window prefixes.
std::unique_ptr<PreparedPipeline> Prepare(const PlanNode& node,
                                          EvalContext& ctx, bool keep) {
  auto pipeline = std::make_unique<PreparedPipeline>();
  pipeline->node = &node;
  pipeline->stats = ctx.stats;
  pipeline->batch_size = BatchSize();
  pipeline->incremental = keep;
  // γ is no cursor: it folds its child's pipeline into an Aggregator.
  const auto* fold = node.kind() == PlanKind::kAggregate
                         ? &static_cast<const AggregateNode&>(node)
                         : nullptr;
  pipeline->root =
      Seal(BuildCursor(fold != nullptr ? *fold->child() : node, ctx,
                       pipeline.get()),
           pipeline.get());
  if (pipeline->root == nullptr) return nullptr;
  // An opaque stage keeps the pipeline from being kept: no cache to reuse.
  if (pipeline->opaque) {
    for (IncrementalCursor* prefix : pipeline->prefixes) {
      prefix->set_active(false);
    }
  }
  if (fold != nullptr) {
    Result<Aggregator> created = Aggregator::Create(
        pipeline->root->schema, fold->group_by(), fold->aggregates());
    if (!created.ok()) return nullptr;
    pipeline->aggregator = std::move(*created);
    if (pipeline->root->node->kind() == PlanKind::kJoin) {
      auto* join = static_cast<JoinCursor*>(pipeline->root);
      if (join->keyed()) join->PrepareFold(*pipeline->aggregator);
    }
  }
  const auto append = [&pipeline](const PlanNode& stage) {
    if (!pipeline->stages.empty()) pipeline->stages.push_back(',');
    pipeline->stages += PlanKindToString(stage.kind());
    ++pipeline->fused_ops;
  };
  for (const auto& cursor : pipeline->cursors) {
    if (cursor->native) append(*cursor->node);
  }
  if (fold != nullptr) append(*fold);
  return pipeline;
}

/// Flushes the fused interior's statistics so EXPLAIN ANALYZE and the
/// statistics store (and through it the `serena.op.*` counters) match the
/// scalar path: each started native stage counts one eval, its emitted
/// rows, and the pipeline's (inclusive) wall time. The root's
/// eval/rows/wall/error are recorded by its `Evaluate` wrapper — only its
/// batch count comes from here (a folding γ has no cursor and emits no
/// batches). Stages never started (the right join side after a left
/// failure) stay unrecorded, exactly like unevaluated scalar operands.
void FlushStats(const PreparedPipeline& pipeline, PlanStats& record,
                std::uint64_t elapsed_ns) {
  for (const auto& cursor : pipeline.cursors) {
    if (!cursor->native || !cursor->started ||
        cursor->ordinal == PlanStats::kNotInPlan) {
      continue;
    }
    NodeRuntimeStats& stats = record.at(cursor->ordinal);
    stats.batches += cursor->batches_out;
    if (cursor->node == pipeline.node) continue;
    ++stats.evals;
    stats.rows_out += cursor->rows_out;
    stats.wall_ns += elapsed_ns;
    if (cursor->failed) ++stats.errors;
  }
}

/// Adds one run of `pipeline` to the `serena.vectorize.*` counters.
void CountPipeline(const PreparedPipeline& pipeline) {
  const VecInstruments& instruments = VectorizeInstruments();
  instruments.pipelines->Increment();
  instruments.fused_ops->Increment(pipeline.fused_ops);
  instruments.batches->Increment(pipeline.root->work_batches());
  instruments.rows->Increment(pipeline.root->work_rows());
}

/// Runs `pipeline`'s terminal: the collect, or γ's fold — in place, pair
/// by pair, when γ's child is a keyed join.
Result<XRelation> RunTerminal(PreparedPipeline& pipeline, EvalContext& ctx) {
  if (!pipeline.aggregator.has_value()) {
    XRelation out(pipeline.root->schema);
    out.Reserve(pipeline.last_rows);
    SERENA_RETURN_NOT_OK(pipeline.root->CollectInto(&out, ctx));
    return out;
  }
  Aggregator* aggregator = &*pipeline.aggregator;
  if (pipeline.root->node->kind() == PlanKind::kJoin) {
    auto* join = static_cast<JoinCursor*>(pipeline.root);
    if (join->keyed()) return join->Fold(aggregator, ctx);
  }
  return Fold(pipeline.root, aggregator, ctx);
}

/// The one pipeline runner: rebinds `pipeline`'s leaves to `ctx`, runs
/// its terminal, records its statistics and returns every cursor to its
/// prepared state. nullopt, having run nothing, when the pipeline no
/// longer fits `ctx` — another statistics record or batch size, or a leaf
/// whose input is gone or changed schema — and must be rebuilt.
std::optional<Result<XRelation>> Run(PreparedPipeline& pipeline,
                                     EvalContext& ctx) {
  if (pipeline.stats != ctx.stats || pipeline.batch_size != BatchSize()) {
    return std::nullopt;
  }
  for (const auto& cursor : pipeline.cursors) {
    if (!cursor->Rebind(ctx)) return std::nullopt;
  }

  // The fused stages run interleaved batch by batch, so the pipeline is
  // one span, nested under the root's `op.<kind>` span; scalar operands
  // consumed through opaque cursors nest their own spans under it.
  std::optional<obs::Span> span;
  if (obs::TraceBuffer::Global().enabled()) {
    span.emplace("vec.pipeline", ctx.instant, pipeline.stages);
  }
  const bool timed = ctx.stats != nullptr && ctx.stats->timed();
  const std::uint64_t start_ns = timed ? obs::MonotonicNowNs() : 0;

  Result<XRelation> result = RunTerminal(pipeline, ctx);

  if (ctx.stats != nullptr) {
    FlushStats(pipeline, *ctx.stats,
               timed ? obs::MonotonicNowNs() - start_ns : 0);
  }
  if (obs::MetricsRegistry::Global().enabled()) CountPipeline(pipeline);
  if (result.ok()) pipeline.last_rows = result->size();
  for (const auto& cursor : pipeline.cursors) cursor->Reset();
  if (pipeline.aggregator.has_value()) pipeline.aggregator->Reset();
  return result;
}

}  // namespace

PipelineCache::PipelineCache(std::size_t nodes) : slots_(nodes) {}

PipelineCache::~PipelineCache() = default;

std::size_t PipelineCache::size() const {
  return static_cast<std::size_t>(
      std::count_if(slots_.begin(), slots_.end(),
                    [](const auto& slot) { return slot != nullptr; }));
}

std::optional<Result<XRelation>> TryExecute(const PlanNode& node,
                                            EvalContext& ctx) {
  if (!IsFusedRoot(node.kind())) return std::nullopt;

  // A standing query's slot for this node, indexed like its statistics.
  std::unique_ptr<PreparedPipeline>* slot = nullptr;
  if (ctx.pipelines != nullptr && ctx.stats != nullptr) {
    const std::size_t ordinal = ctx.stats->OrdinalOf(&node);
    if (ordinal < ctx.pipelines->slots_.size()) {
      slot = &ctx.pipelines->slots_[ordinal];
    }
  }
  if (slot != nullptr && *slot != nullptr) {
    if (std::optional<Result<XRelation>> result = Run(**slot, ctx)) {
      return result;
    }
    slot->reset();  // Its inputs changed under it: prepare it afresh.
  }

  std::unique_ptr<PreparedPipeline> pipeline =
      Prepare(node, ctx, /*keep=*/slot != nullptr);
  if (pipeline == nullptr) return std::nullopt;
  std::optional<Result<XRelation>> result = Run(*pipeline, ctx);
  if (result.has_value() && slot != nullptr && !pipeline->opaque) {
    *slot = std::move(pipeline);
    ++ctx.pipelines->builds_;
  }
  return result;
}

}  // namespace vec
}  // namespace serena
