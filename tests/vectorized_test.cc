// Unit tests for the vectorized batch execution core itself: the
// configuration knobs, the fusion surface, the pipeline metrics and
// per-operator batch counts, tracing staying on the fused path, the
// flattened-conjunction predicate fast path, and the scalar-fallback
// gates.

#include "algebra/vectorized.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <sstream>

#include "algebra/aggregate.h"
#include "algebra/explain.h"
#include "algebra/formula.h"
#include "algebra/plan.h"
#include "algebra/tuple_batch.h"
#include "env/scenario.h"
#include "obs/metrics.h"
#include "obs/stats.h"
#include "obs/trace.h"
#include "stream/continuous_query.h"

namespace serena {
namespace {

class VecModeGuard {
 public:
  explicit VecModeGuard(bool enabled) { vec::SetEnabledForTesting(enabled); }
  ~VecModeGuard() { vec::SetEnabledForTesting(std::nullopt); }
};

TEST(VectorizedConfigTest, BatchSizeKnobIsClampedAndRestorable) {
  vec::SetBatchSizeForTesting(7);
  EXPECT_EQ(vec::BatchSize(), 7u);
  vec::SetBatchSizeForTesting(0);  // Clamped to at least one row.
  EXPECT_GE(vec::BatchSize(), 1u);
  vec::SetBatchSizeForTesting(std::nullopt);
  EXPECT_GE(vec::BatchSize(), 1u);
}

TEST(VectorizedConfigTest, FusedRootsAreTheFusableOperators) {
  EXPECT_TRUE(vec::IsFusedRoot(PlanKind::kSelect));
  EXPECT_TRUE(vec::IsFusedRoot(PlanKind::kProject));
  EXPECT_TRUE(vec::IsFusedRoot(PlanKind::kRename));
  EXPECT_TRUE(vec::IsFusedRoot(PlanKind::kAssign));
  EXPECT_TRUE(vec::IsFusedRoot(PlanKind::kJoin));
  // γ folds its child's pipeline instead of collecting it.
  EXPECT_TRUE(vec::IsFusedRoot(PlanKind::kAggregate));
  // Leaves are batch sources, not roots; everything else stays scalar.
  EXPECT_FALSE(vec::IsFusedRoot(PlanKind::kScan));
  EXPECT_FALSE(vec::IsFusedRoot(PlanKind::kWindow));
  EXPECT_FALSE(vec::IsFusedRoot(PlanKind::kInvoke));
  EXPECT_FALSE(vec::IsFusedRoot(PlanKind::kUnion));
}

TEST(TupleBatchTest, HashesTravelWithBorrowedRowsOnly) {
  vec::TupleBatch batch;
  Tuple t(std::vector<Value>{Value::Int(1)});
  batch.AppendRef(&t, 42u);
  EXPECT_EQ(batch.hash_at(0), 42u);
  batch.Clear();
  batch.AppendOwned(Tuple(std::vector<Value>{Value::Int(2)}));
  // Owned rows never carry a producer hash.
  EXPECT_EQ(batch.hash_at(0), 0u);
}

TEST(CompiledPredicateTest, FlattenedConjunctionDecidesLikeEvaluate) {
  auto schema =
      ExtendedSchema::Create("r", {{"a", DataType::kInt},
                                   {"b", DataType::kReal}})
          .ValueOrDie();
  FormulaPtr formula = Formula::And(
      Formula::Compare(Operand::Attr("a"), CompareOp::kGt,
                       Operand::Const(Value::Int(10))),
      Formula::Compare(Operand::Attr("b"), CompareOp::kLt,
                       Operand::Const(Value::Real(5.0))));
  std::vector<CompiledComparison> conjuncts;
  ASSERT_TRUE(formula->FlattenConjunction(*schema, &conjuncts));
  ASSERT_EQ(conjuncts.size(), 2u);

  const Tuple pass(std::vector<Value>{Value::Int(11), Value::Real(1.0)});
  const Tuple fail(std::vector<Value>{Value::Int(11), Value::Real(9.0)});
  for (const Tuple* tuple : {&pass, &fail}) {
    bool flattened = true;
    for (const CompiledComparison& conjunct : conjuncts) {
      auto value = conjunct.Eval(*tuple);
      ASSERT_TRUE(value.ok());
      if (!*value) {
        flattened = false;
        break;
      }
    }
    EXPECT_EQ(flattened, formula->Evaluate(*schema, *tuple).ValueOrDie());
  }
}

TEST(CompiledPredicateTest, NonConjunctionsAndBadOperandsRefuseToFlatten) {
  auto schema =
      ExtendedSchema::Create("r", {{"a", DataType::kInt}}).ValueOrDie();
  std::vector<CompiledComparison> conjuncts;
  EXPECT_FALSE(Formula::Or(Formula::Compare(Operand::Attr("a"),
                                            CompareOp::kEq,
                                            Operand::Const(Value::Int(1))),
                           Formula::Compare(Operand::Attr("a"),
                                            CompareOp::kEq,
                                            Operand::Const(Value::Int(2))))
                   ->FlattenConjunction(*schema, &conjuncts));
  EXPECT_FALSE(Formula::Not(Formula::Compare(Operand::Attr("a"),
                                             CompareOp::kEq,
                                             Operand::Const(Value::Int(1))))
                   ->FlattenConjunction(*schema, &conjuncts));
  conjuncts.clear();
  EXPECT_FALSE(Formula::Compare(Operand::Attr("missing"), CompareOp::kEq,
                                Operand::Const(Value::Int(1)))
                   ->FlattenConjunction(*schema, &conjuncts));
  conjuncts.clear();
  EXPECT_FALSE(Formula::Compare(Operand::Attr("a"), CompareOp::kEq,
                                Operand::Param("p"))
                   ->FlattenConjunction(*schema, &conjuncts));
  // The error-preserving path stays on Compile, which refuses too.
  EXPECT_FALSE(Formula::Compare(Operand::Attr("a"), CompareOp::kEq,
                                Operand::Param("p"))
                   ->Compile(*schema)
                   .ok());
}

class VectorizedPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    scenario_ = TemperatureScenario::Build().MoveValueOrDie();
    for (Timestamp t = 1; t <= 3; ++t) {
      ASSERT_TRUE(scenario_->PumpTemperatureStream(t).ok());
    }
  }

  std::unique_ptr<TemperatureScenario> scenario_;
};

TEST_F(VectorizedPipelineTest, TryExecuteMatchesScalarEvaluate) {
  PlanPtr plan = Select(Window("temperatures", 3),
                        Formula::Compare(Operand::Attr("temperature"),
                                         CompareOp::kGt,
                                         Operand::Const(Value::Real(-1e9))));
  EvalContext ctx;
  ctx.env = &scenario_->env();
  ctx.streams = &scenario_->streams();
  ctx.instant = 3;
  auto vectorized = vec::TryExecute(*plan, ctx);
  ASSERT_TRUE(vectorized.has_value());
  ASSERT_TRUE(vectorized->ok());

  VecModeGuard guard(false);
  auto scalar = Execute(plan, &scenario_->env(), &scenario_->streams(), 3);
  ASSERT_TRUE(scalar.ok());
  EXPECT_EQ((*vectorized)->ToTableString(),
            scalar->relation.ToTableString());
}

TEST_F(VectorizedPipelineTest, PipelineCounterAndBatchStatsAdvance) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  const bool was_enabled = metrics.enabled();
  metrics.set_enabled(true);
  VecModeGuard guard(true);

  const std::uint64_t pipelines_before =
      metrics.GetCounter("serena.vectorize.pipelines").value();
  const std::uint64_t rows_before =
      metrics.GetCounter("serena.vectorize.rows").value();

  PlanPtr plan = Select(Window("temperatures", 3),
                        Formula::Compare(Operand::Attr("temperature"),
                                         CompareOp::kGt,
                                         Operand::Const(Value::Real(-1e9))));
  const std::string root_fingerprint = obs::OperatorFingerprint(*plan);
  const auto root_batches = [&]() -> std::uint64_t {
    const std::optional<obs::OperatorStats> stats =
        obs::StatsStore::Global().Find(root_fingerprint);
    return stats ? stats->batches : 0;
  };
  const std::uint64_t batches_before = root_batches();
  ContinuousQuery query("q", plan);
  auto result =
      query.Step(&scenario_->env(), &scenario_->streams(), 3);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->empty());

  EXPECT_GT(metrics.GetCounter("serena.vectorize.pipelines").value(),
            pipelines_before);
  EXPECT_GT(metrics.GetCounter("serena.vectorize.rows").value(), rows_before);
  // Per-operator batch counts reach the statistics store, and EXPLAIN
  // ANALYZE renders them — the visible signal that fusion ran.
  EXPECT_GT(root_batches(), batches_before);
  ExplainAnalyzeOptions options;
  options.instant = 3;
  const std::string rendered = ExplainAnalyzePlan(
      plan, &scenario_->env(), &scenario_->streams(), options);
  EXPECT_NE(rendered.find("batches="), std::string::npos);

  metrics.set_enabled(was_enabled);
}

TEST_F(VectorizedPipelineTest, TracingKeepsTheVectorizedPath) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  const bool was_enabled = metrics.enabled();
  metrics.set_enabled(true);
  VecModeGuard guard(true);

  PlanPtr plan = Select(Window("temperatures", 3),
                        Formula::Compare(Operand::Attr("temperature"),
                                         CompareOp::kGt,
                                         Operand::Const(Value::Real(-1e9))));
  auto untraced = Execute(plan, &scenario_->env(), &scenario_->streams(), 3);
  ASSERT_TRUE(untraced.ok());

  obs::TraceBuffer& trace = obs::TraceBuffer::Global();
  trace.Clear();
  trace.set_enabled(true);
  const std::uint64_t pipelines_before =
      metrics.GetCounter("serena.vectorize.pipelines").value();
  auto traced = Execute(plan, &scenario_->env(), &scenario_->streams(), 3);
  trace.set_enabled(false);
  ASSERT_TRUE(traced.ok());

  // A trace describes the engine production runs: the pipeline fused, and
  // the result is the untraced one.
  EXPECT_GT(metrics.GetCounter("serena.vectorize.pipelines").value(),
            pipelines_before);
  EXPECT_EQ(traced->relation.ToTableString(),
            untraced->relation.ToTableString());
  // The fused pipeline is one `vec.pipeline` span under the root's
  // operator span, its detail naming the fused stages.
  const std::vector<obs::SpanRecord> spans = trace.Snapshot();
  const auto select = std::find_if(
      spans.begin(), spans.end(),
      [](const obs::SpanRecord& span) { return span.name == "op.select"; });
  ASSERT_NE(select, spans.end());
  const auto pipeline = std::find_if(
      spans.begin(), spans.end(), [&](const obs::SpanRecord& span) {
        return span.name == "vec.pipeline" &&
               span.parent_id == select->span_id;
      });
  ASSERT_NE(pipeline, spans.end());
  EXPECT_EQ(pipeline->detail, "window,select");

  trace.Clear();
  metrics.set_enabled(was_enabled);
}

TEST_F(VectorizedPipelineTest, AggregateFoldsItsChildPipeline) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  const bool was_enabled = metrics.enabled();
  metrics.set_enabled(true);
  VecModeGuard guard(true);

  PlanPtr plan = Aggregate(
      Select(Window("temperatures", 3),
             Formula::Compare(Operand::Attr("temperature"), CompareOp::kGt,
                              Operand::Const(Value::Real(-1e9)))),
      {"location"}, {{AggregateFn::kAvg, "temperature", "mean"}});
  obs::TraceBuffer& trace = obs::TraceBuffer::Global();
  trace.Clear();
  trace.set_enabled(true);
  const std::uint64_t fused_before =
      metrics.GetCounter("serena.vectorize.fused_ops").value();
  auto result = Execute(plan, &scenario_->env(), &scenario_->streams(), 3);
  trace.set_enabled(false);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->relation.empty());
  // window, σ and γ ran as one pipeline.
  EXPECT_EQ(metrics.GetCounter("serena.vectorize.fused_ops").value(),
            fused_before + 3);

  // γ keeps its operator span; σ has none (it ran fused), and the
  // pipeline's detail ends in the fold.
  const std::vector<obs::SpanRecord> spans = trace.Snapshot();
  const auto named = [&spans](const std::string& name) {
    return std::find_if(
        spans.begin(), spans.end(),
        [&name](const obs::SpanRecord& span) { return span.name == name; });
  };
  const auto aggregate = named("op.aggregate");
  ASSERT_NE(aggregate, spans.end());
  EXPECT_EQ(named("op.select"), spans.end());
  const auto pipeline = named("vec.pipeline");
  ASSERT_NE(pipeline, spans.end());
  EXPECT_EQ(pipeline->parent_id, aggregate->span_id);
  EXPECT_EQ(pipeline->detail, "window,select,aggregate");

  trace.Clear();
  metrics.set_enabled(was_enabled);
}

/// The " rows=N" counts of an EXPLAIN ANALYZE rendering, one per node.
std::vector<std::string> AnalyzedRowCounts(const std::string& rendered) {
  std::vector<std::string> counts;
  for (std::size_t at = rendered.find(" rows="); at != std::string::npos;
       at = rendered.find(" rows=", at + 1)) {
    counts.push_back(rendered.substr(at, rendered.find(' ', at + 1) - at));
  }
  return counts;
}

TEST_F(VectorizedPipelineTest, AggregateFoldsAKeyedJoinInPlace) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  const bool was_enabled = metrics.enabled();
  metrics.set_enabled(true);

  PlanPtr join = Join(Window("temperatures", 3), Scan("surveillance"));
  PlanPtr plan = Aggregate(join, {"location"},
                           {{AggregateFn::kCount, "", "n"},
                            {AggregateFn::kMax, "name", "last"}});
  ExplainAnalyzeOptions options;
  options.instant = 3;
  std::size_t pairs = 0;
  std::string scalar_analyzed;
  {
    VecModeGuard scalar(false);
    auto joined = Execute(join, &scenario_->env(), &scenario_->streams(), 3);
    ASSERT_TRUE(joined.ok());
    pairs = joined->relation.size();
    scalar_analyzed = ExplainAnalyzePlan(plan, &scenario_->env(),
                                         &scenario_->streams(), options);
  }
  ASSERT_GT(pairs, 0u);

  VecModeGuard guard(true);
  obs::TraceBuffer& trace = obs::TraceBuffer::Global();
  trace.Clear();
  trace.set_enabled(true);
  const std::uint64_t rows_before =
      metrics.GetCounter("serena.vectorize.rows").value();
  const std::uint64_t batches_before =
      metrics.GetCounter("serena.vectorize.batches").value();
  auto result = Execute(plan, &scenario_->env(), &scenario_->streams(), 3);
  trace.set_enabled(false);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->relation.empty());

  // The join folded its pairs without filling a batch, and still counts
  // each pair as a row, as if it had merged it.
  EXPECT_EQ(metrics.GetCounter("serena.vectorize.rows").value(),
            rows_before + pairs);
  EXPECT_EQ(metrics.GetCounter("serena.vectorize.batches").value(),
            batches_before);
  const std::vector<obs::SpanRecord> spans = trace.Snapshot();
  const auto pipeline = std::find_if(
      spans.begin(), spans.end(), [](const obs::SpanRecord& span) {
        return span.name == "vec.pipeline";
      });
  ASSERT_NE(pipeline, spans.end());
  EXPECT_EQ(pipeline->detail, "window,scan,join,aggregate");
  // EXPLAIN ANALYZE shows the scalar path's rows on every node.
  EXPECT_EQ(AnalyzedRowCounts(ExplainAnalyzePlan(
                plan, &scenario_->env(), &scenario_->streams(), options)),
            AnalyzedRowCounts(scalar_analyzed));
  EXPECT_EQ(AnalyzedRowCounts(scalar_analyzed).size(), 4u);

  trace.Clear();
  metrics.set_enabled(was_enabled);
}

TEST_F(VectorizedPipelineTest, SmallBatchSizesStreamTheSameResult) {
  VecModeGuard guard(true);
  PlanPtr plan = Project(
      Select(Window("temperatures", 3),
             Formula::Compare(Operand::Attr("temperature"), CompareOp::kGt,
                              Operand::Const(Value::Real(-1e9)))),
      {"location"});
  auto reference = Execute(plan, &scenario_->env(), &scenario_->streams(), 3);
  ASSERT_TRUE(reference.ok());
  for (const std::size_t batch_size : {1u, 2u, 3u, 1024u}) {
    vec::SetBatchSizeForTesting(batch_size);
    auto result = Execute(plan, &scenario_->env(), &scenario_->streams(), 3);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->relation.ToTableString(),
              reference->relation.ToTableString())
        << "batch_size=" << batch_size;
  }
  vec::SetBatchSizeForTesting(std::nullopt);
}

TEST_F(VectorizedPipelineTest, UnbuildablePipelinesReturnNullopt) {
  // Unknown stream: the cursor build fails, TryExecute declines, and the
  // caller falls back to scalar evaluation for the diagnostic.
  PlanPtr plan = Select(Window("no_such_stream", 3),
                        Formula::Compare(Operand::Attr("x"), CompareOp::kEq,
                                         Operand::Const(Value::Int(1))));
  EvalContext ctx;
  ctx.env = &scenario_->env();
  ctx.streams = &scenario_->streams();
  ctx.instant = 3;
  EXPECT_FALSE(vec::TryExecute(*plan, ctx).has_value());

  // Unbound parameter in a selection formula: same decline.
  PlanPtr param_plan =
      Select(Window("temperatures", 3),
             Formula::Compare(Operand::Attr("temperature"), CompareOp::kGt,
                              Operand::Param("threshold")));
  EXPECT_FALSE(vec::TryExecute(*param_plan, ctx).has_value());
}

}  // namespace
}  // namespace serena
