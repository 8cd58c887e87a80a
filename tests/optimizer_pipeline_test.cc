// Tests for the unified optimizer::Pipeline facade: typed stage options
// (--stages= parsing), stage gating, the one Def. 9 guard every stage
// passes (VerifyStage),
// the cost-based join enumerator's reordering and schema preservation,
// plan determinism under identical statistics snapshots, and the
// fingerprint aliases that keep runtime statistics attached to
// restructured plans.

#include "optimizer/pipeline.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "env/scenario.h"
#include "obs/stats.h"
#include "rewrite/rewriter.h"

namespace serena {
namespace {

using optimizer::MakeStaticCostModel;
using optimizer::OptimizerOptions;
using optimizer::Pipeline;
using optimizer::PipelineReport;
using optimizer::VerifyStage;

class OptimizerPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TemperatureScenarioOptions options;
    options.extra_sensors = 96;  // 100 sensors total.
    scenario_ = TemperatureScenario::Build(options).MoveValueOrDie();
    obs::StatsStore::Global().Clear();
  }

  void TearDown() override { obs::StatsStore::Global().Clear(); }

  Environment& env() { return scenario_->env(); }
  StreamStore& streams() { return scenario_->streams(); }

  /// A pathological join order: the two large inputs (100 sensors, the
  /// temperature window) joined first, the heavily filtered 3-row
  /// surveillance catalog last. The enumerator should join through the
  /// filtered side instead.
  PlanPtr StressPlan() {
    PlanPtr big_a = Scan(TemperatureScenario::kSensors);
    PlanPtr big_b = Window(TemperatureScenario::kTemperatures, 4);
    PlanPtr small = Select(
        Scan(TemperatureScenario::kSurveillance),
        Formula::Compare(Operand::Attr("name"), CompareOp::kEq,
                         Operand::Const(Value::String("Ana"))));
    return Join(Join(big_a, big_b), small);
  }

  std::unique_ptr<TemperatureScenario> scenario_;
};

// --- OptimizerOptions: --stages= parsing -----------------------------------

TEST_F(OptimizerPipelineTest, FromStagesParsesSubsets) {
  const OptimizerOptions both =
      OptimizerOptions::FromStages("semantic,cost").ValueOrDie();
  EXPECT_TRUE(both.semantic);
  EXPECT_TRUE(both.cost);
  EXPECT_FALSE(both.rules);
  EXPECT_EQ(both.StagesString(), "semantic,cost");

  const OptimizerOptions rules_only =
      OptimizerOptions::FromStages("rules").ValueOrDie();
  EXPECT_FALSE(rules_only.semantic);
  EXPECT_FALSE(rules_only.cost);
  EXPECT_TRUE(rules_only.rules);
}

TEST_F(OptimizerPipelineTest, FromStagesShorthands) {
  for (const char* all : {"", "all", "on", "1", "true", "ALL"}) {
    const OptimizerOptions options =
        OptimizerOptions::FromStages(all).ValueOrDie();
    EXPECT_TRUE(options.semantic && options.cost && options.rules) << all;
    EXPECT_EQ(options.StagesString(), "semantic,cost,rules") << all;
  }
  for (const char* none : {"none", "off", "0", "false", "NONE"}) {
    const OptimizerOptions options =
        OptimizerOptions::FromStages(none).ValueOrDie();
    EXPECT_FALSE(options.any()) << none;
    EXPECT_EQ(options.StagesString(), "none") << none;
  }
}

TEST_F(OptimizerPipelineTest, FromStagesRejectsUnknownStage) {
  const auto parsed = OptimizerOptions::FromStages("semantic,typo");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("typo"), std::string::npos);
}

// --- Pipeline: stage gating ------------------------------------------------

TEST_F(OptimizerPipelineTest, NoStagesIsIdentity) {
  Pipeline pipeline(&env(), &streams(),
                    OptimizerOptions::FromStages("none").ValueOrDie());
  PlanPtr plan = StressPlan();
  PipelineReport report;
  const PlanPtr optimized =
      pipeline.Optimize(plan, AnalysisContext::kNeutral, &report)
          .ValueOrDie();
  EXPECT_EQ(optimized->ToString(), plan->ToString());
  EXPECT_EQ(report.stages, "none");
  EXPECT_FALSE(report.changed());
  EXPECT_NE(report.Render().find("no change"), std::string::npos);
}

TEST_F(OptimizerPipelineTest, RulesOnlyRunsClassicRewriter) {
  // Q2' → Q2 is the classic Table 5 example: the rule stage pushes the
  // area filter back under checkPhoto. The enumerator has no join region
  // to restructure, so with every stage on the rules still decide it.
  for (const char* stages : {"rules", "all"}) {
    Pipeline pipeline(&env(), &streams(),
                      OptimizerOptions::FromStages(stages).ValueOrDie());
    PipelineReport report;
    const PlanPtr optimized =
        pipeline
            .Optimize(scenario_->Q2Prime(), AnalysisContext::kNeutral,
                      &report)
            .ValueOrDie();
    EXPECT_TRUE(report.rules_changed) << stages;
    EXPECT_FALSE(report.rules_reverted) << stages;
    EXPECT_FALSE(report.cost_changed) << stages;
    EXPECT_TRUE(report.semantic_steps.empty()) << stages;
    EXPECT_NE(optimized->ToString(), scenario_->Q2Prime()->ToString())
        << stages;
  }
}

TEST_F(OptimizerPipelineTest, RenderShowsARulesStageRevert) {
  PipelineReport report;
  report.stages = "rules";
  report.rules_reverted = true;
  EXPECT_FALSE(report.changed());
  EXPECT_NE(report.Render().find("rule rewriter: reverted"),
            std::string::npos);
}

// --- VerifyStage: the one Def. 9 guard -------------------------------------

TEST_F(OptimizerPipelineTest, VerifyStageRejectsAReorderedRootSchema) {
  const PlanPtr sensors = Scan(TemperatureScenario::kSensors);
  const PlanPtr temperatures = Window(TemperatureScenario::kTemperatures, 4);
  const PlanPtr plan = Join(sensors, temperatures);
  const auto root = plan->InferSchema(env(), &streams()).ValueOrDie();
  // ⋈ commutes, but its attribute order follows its operands: rendering
  // depends on the order, so this is not the input's root schema.
  const PlanPtr reordered = Join(temperatures, sensors);
  const auto schema = reordered->InferSchema(env(), &streams()).ValueOrDie();
  ASSERT_EQ(schema->size(), root->size());
  EXPECT_FALSE(VerifyStage(reordered, *root, env(), &streams()));
  EXPECT_TRUE(VerifyStage(plan, *root, env(), &streams()));
}

TEST_F(OptimizerPipelineTest, VerifyStageRejectsAnalyzerErrors) {
  const PlanPtr plan = Scan(TemperatureScenario::kSensors);
  const auto root = plan->InferSchema(env(), &streams()).ValueOrDie();
  // σ reads `temperature`, which no β has realized yet.
  const PlanPtr virtual_read =
      Select(plan, Formula::Compare(Operand::Attr("temperature"),
                                    CompareOp::kGt,
                                    Operand::Const(Value::Real(20))));
  const auto diagnostics =
      AnalyzePlan(virtual_read, env(), &streams()).ValueOrDie();
  ASSERT_FALSE(IsValid(diagnostics));
  EXPECT_FALSE(VerifyStage(virtual_read, *root, env(), &streams()));
}

TEST_F(OptimizerPipelineTest, VerifyStageKeepsASoundRewrite) {
  const PlanPtr plan = scenario_->Q2Prime();
  const auto root = plan->InferSchema(env(), &streams()).ValueOrDie();
  const PlanPtr rewritten =
      Rewriter(&env(), &streams()).Optimize(plan).ValueOrDie();
  ASSERT_NE(rewritten, plan);
  EXPECT_TRUE(VerifyStage(rewritten, *root, env(), &streams()));
  EXPECT_TRUE(VerifyStage(plan, *root, env(), &streams()));
}

TEST_F(OptimizerPipelineTest, NullPlanIsRejected) {
  Pipeline pipeline(&env(), &streams());
  EXPECT_FALSE(pipeline.Optimize(nullptr, AnalysisContext::kNeutral).ok());
}

// --- The cost-based enumerator through the pipeline ------------------------

TEST_F(OptimizerPipelineTest, CostStageReordersPathologicalJoin) {
  OptimizerOptions options = OptimizerOptions::FromStages("cost").ValueOrDie();
  options.cost_model = MakeStaticCostModel(&env(), &streams());
  Pipeline pipeline(&env(), &streams(), options);
  PlanPtr plan = StressPlan();
  PipelineReport report;
  const PlanPtr optimized =
      pipeline.Optimize(plan, AnalysisContext::kNeutral, &report)
          .ValueOrDie();

  EXPECT_TRUE(report.cost_changed);
  EXPECT_LT(report.chosen_cost, report.naive_cost);
  EXPECT_EQ(report.join_regions, 1u);
  EXPECT_GT(report.fragments, 0u);
  EXPECT_NE(optimized->ToString(), plan->ToString());

  // Never a different root schema: attribute order is preserved (via a
  // compensating projection when the enumerated order differs).
  const auto original_schema =
      plan->InferSchema(env(), &streams()).ValueOrDie();
  const auto optimized_schema =
      optimized->InferSchema(env(), &streams()).ValueOrDie();
  EXPECT_TRUE(optimized_schema->SameAttributes(*original_schema));

  // The report's rendering carries the chosen-vs-rejected story.
  const std::string rendered = report.Render();
  EXPECT_NE(rendered.find("cost-based enumeration"), std::string::npos);
  EXPECT_NE(rendered.find("cost model: static"), std::string::npos);
}

TEST_F(OptimizerPipelineTest, ChosenPlanJoinsThroughTheFilteredRelation) {
  OptimizerOptions options = OptimizerOptions::FromStages("cost").ValueOrDie();
  options.cost_model = MakeStaticCostModel(&env(), &streams());
  Pipeline pipeline(&env(), &streams(), options);
  const PlanPtr optimized =
      pipeline.Optimize(StressPlan(), AnalysisContext::kNeutral)
          .ValueOrDie();
  // The filtered surveillance scan must move off the plan's outermost
  // join: joining it early is what shrinks the intermediates.
  const std::string text = optimized->ToString();
  const std::string naive = StressPlan()->ToString();
  ASSERT_NE(text, naive);
  const std::size_t select_at = text.find("select[name = 'Ana']");
  ASSERT_NE(select_at, std::string::npos);
  // In the naive rendering the filtered relation is the final (rightmost
  // top-level) join input; reordering moves it leftward/inward.
  EXPECT_LT(select_at, naive.find("select[name = 'Ana']"));
}

TEST_F(OptimizerPipelineTest, EnumeratedPlansAreDeterministicGivenStats) {
  // Property (ISSUE 10): identical OperatorStats snapshots ⇒ identical
  // enumerated plans, across repeated runs and fresh pipelines.
  auto& store = obs::StatsStore::Global();
  store.Clear();
  PlanPtr plan = StressPlan();

  // Populate the store with one observed evaluation so the learned
  // backend actually reads a non-empty snapshot.
  PlanStats collector(*plan);
  EvalContext ctx;
  ctx.env = &env();
  ctx.streams = &streams();
  ctx.stats = &collector;
  ASSERT_TRUE(plan->Evaluate(ctx).ok());
  store.RecordPlan(collector);

  std::set<std::string> outputs;
  for (int run = 0; run < 5; ++run) {
    Pipeline pipeline(&env(), &streams());  // Fresh pipeline, same stats.
    const PlanPtr optimized =
        pipeline.Optimize(plan, AnalysisContext::kNeutral).ValueOrDie();
    outputs.insert(optimized->ToString());
  }
  EXPECT_EQ(outputs.size(), 1u)
      << "enumeration diverged across identical statistics snapshots";
}

TEST_F(OptimizerPipelineTest, RestructuredPlansKeepTheirStatistics) {
  // EXPLAIN ANALYZE's observed-vs-last-run deltas must survive plan
  // enumeration: the pipeline re-fingerprints restructured operators by
  // registering (new shape → old shape) aliases in the stats store.
  auto& store = obs::StatsStore::Global();
  store.Clear();
  PlanPtr plan = StressPlan();

  PlanStats collector(*plan);
  EvalContext ctx;
  ctx.env = &env();
  ctx.streams = &streams();
  ctx.stats = &collector;
  ASSERT_TRUE(plan->Evaluate(ctx).ok());
  store.RecordPlan(collector);
  ASSERT_FALSE(store.Find(obs::OperatorFingerprint(*plan))->evals == 0);

  OptimizerOptions options = OptimizerOptions::FromStages("cost").ValueOrDie();
  options.cost_model = MakeStaticCostModel(&env(), &streams());
  Pipeline pipeline(&env(), &streams(), options);
  PipelineReport report;
  const PlanPtr optimized =
      pipeline.Optimize(plan, AnalysisContext::kNeutral, &report)
          .ValueOrDie();
  ASSERT_TRUE(report.cost_changed);
  ASSERT_GT(report.refingerprinted, 0u);
  EXPECT_GT(store.alias_count(), 0u);

  // The restructured root resolves — through the alias chain — to the
  // record the original shape accumulated.
  const auto resolved = store.Find(obs::OperatorFingerprint(*optimized));
  ASSERT_TRUE(resolved.has_value());
  EXPECT_EQ(resolved->fingerprint, obs::OperatorFingerprint(*plan));
  EXPECT_GT(resolved->evals, 0u);
}

TEST_F(OptimizerPipelineTest, SetOptionsRebuildsTheCostModel) {
  Pipeline pipeline(&env(), &streams());
  EXPECT_STREQ(pipeline.cost_model()->name(), "learned");
  OptimizerOptions options;
  options.cost_model = MakeStaticCostModel(&env(), &streams());
  pipeline.set_options(options);
  EXPECT_STREQ(pipeline.cost_model()->name(), "static");
  EXPECT_EQ(pipeline.options().StagesString(), "semantic,cost,rules");
}

}  // namespace
}  // namespace serena
