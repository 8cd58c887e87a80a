// Tests for the analyzer-driven semantic rewrite pass (src/rewrite):
// golden EXPLAIN before/after snapshots per rule, the Def. 9 equivalence
// of rewritten plans (byte-identical results *and* action sets), and the
// strictly-fewer-service-calls payoff of dropping dead invocations.

#include "rewrite/semantic.h"

#include <gtest/gtest.h>

#include <string>

#include "algebra/explain.h"
#include "ddl/algebra_parser.h"
#include "env/scenario.h"
#include "obs/metrics.h"
#include "optimizer/pipeline.h"

namespace serena {
namespace {

class SemanticRewriteTest : public ::testing::Test {
 protected:
  void SetUp() override {
    scenario_ = TemperatureScenario::Build().MoveValueOrDie();
  }

  PlanPtr Parse(const std::string& algebra) {
    return ParseAlgebra(algebra).ValueOrDie();
  }

  SemanticRewriteResult Optimize(const std::string& algebra) {
    return SemanticOptimize(Parse(algebra), scenario_->env(),
                            &scenario_->streams())
        .MoveValueOrDie();
  }

  /// The semantic stage as the optimizer runs it: `Pipeline` verifies the
  /// rewrite and only then counts its steps.
  void OptimizeInPipeline(const std::string& algebra) {
    optimizer::Pipeline pipeline(
        &scenario_->env(), &scenario_->streams(),
        optimizer::OptimizerOptions::FromStages("semantic").ValueOrDie());
    ASSERT_TRUE(pipeline.Optimize(Parse(algebra), AnalysisContext::kNeutral)
                    .ok());
  }

  std::string Explain(const PlanPtr& plan) {
    return ExplainPlan(plan, scenario_->env(), &scenario_->streams());
  }

  std::string Explain(const std::string& algebra) {
    return Explain(Parse(algebra));
  }

  QueryResult Run(const PlanPtr& plan) {
    return Execute(plan, &scenario_->env(), &scenario_->streams())
        .MoveValueOrDie();
  }

  std::uint64_t PhysicalInvocations() {
    return scenario_->env().registry().stats().physical_invocations;
  }

  std::unique_ptr<TemperatureScenario> scenario_;
};

// --- Rule 1: drop-dead-invoke (the SER021 fact) ----------------------------

TEST_F(SemanticRewriteTest, DeadPassiveInvokeDroppedWithProof) {
  const auto result = Optimize("project[area](invoke[checkPhoto](cameras))");
  ASSERT_TRUE(result.changed());
  ASSERT_EQ(result.steps.size(), 1u);
  EXPECT_EQ(result.steps[0].rule, "drop-dead-invoke");
  EXPECT_EQ(result.steps[0].node, "invoke[checkPhoto]");
  // The EXPLAIN-level equivalence argument names the Def. 8/Def. 9 facts.
  EXPECT_NE(result.steps[0].proof.find("passive"), std::string::npos);
  EXPECT_NE(result.steps[0].proof.find("Def. 9"), std::string::npos);
  // Golden snapshot: the rewritten tree is exactly the plan without β.
  EXPECT_EQ(Explain(result.plan), Explain("project[area](cameras)"));
  EXPECT_NE(RenderSemanticSteps(result.steps).find("drop-dead-invoke @"),
            std::string::npos);
}

TEST_F(SemanticRewriteTest, DeadInvokeEquivalentResultsStrictlyFewerCalls) {
  const PlanPtr original =
      Parse("project[area](invoke[checkPhoto](cameras))");
  const auto rewritten =
      SemanticOptimize(original, scenario_->env(), &scenario_->streams())
          .MoveValueOrDie();
  ASSERT_TRUE(rewritten.changed());

  scenario_->env().registry().ResetStats();
  const QueryResult before = Run(original);
  const std::uint64_t calls_original = PhysicalInvocations();
  scenario_->env().registry().ResetStats();
  const QueryResult after = Run(rewritten.plan);
  const std::uint64_t calls_rewritten = PhysicalInvocations();

  // Def. 9 equivalence, byte for byte: same tuples, same action set.
  EXPECT_EQ(before.relation.ToTableString(), after.relation.ToTableString());
  EXPECT_EQ(before.actions.ToString(), after.actions.ToString());
  // One checkPhoto per camera gone entirely.
  EXPECT_EQ(calls_original, 3u);
  EXPECT_EQ(calls_rewritten, 0u);
}

TEST_F(SemanticRewriteTest, ActiveInvokeIsNeverDropped) {
  // takePhoto's photo output is dropped by the projection. While the
  // prototype is passive (the default), the dead β goes — and once it
  // does, checkPhoto's quality output has no consumer left either.
  const std::string algebra =
      "project[area](invoke[takePhoto](invoke[checkPhoto](cameras)))";
  EXPECT_TRUE(Optimize(algebra).changed());

  // As a side-effecting prototype (§3.3's design choice) its action set
  // is observable and the node must stay — which also keeps checkPhoto
  // alive, since takePhoto reads the quality it realizes.
  TemperatureScenarioOptions options;
  options.take_photo_active = true;
  auto active = TemperatureScenario::Build(options).MoveValueOrDie();
  const PlanPtr plan = ParseAlgebra(algebra).ValueOrDie();
  const auto result =
      SemanticOptimize(plan, active->env(), &active->streams())
          .MoveValueOrDie();
  EXPECT_FALSE(result.changed());
  EXPECT_EQ(result.plan, plan);
}

TEST_F(SemanticRewriteTest, UsedInvokeOutputKeepsTheInvoke) {
  // quality is read by the selection above: checkPhoto is live.
  const auto result = Optimize(
      "project[area](select[quality >= 5](invoke[checkPhoto](cameras)))");
  for (const SemanticRewriteStep& step : result.steps) {
    EXPECT_NE(step.rule, "drop-dead-invoke");
  }
}

// --- Rule 2: narrow-projection (the SER052 analysis) -----------------------

TEST_F(SemanticRewriteTest, ProjectionNarrowedToConsumedAttributes) {
  const auto result = Optimize(
      "project[location](project[location, temperature]"
      "(window[1](temperatures)))");
  ASSERT_TRUE(result.changed());
  ASSERT_EQ(result.steps.size(), 2u);
  // The inner π narrows to what the outer one consumes; the outer π then
  // collapses to the identity and disappears.
  EXPECT_EQ(result.steps[0].rule, "narrow-projection");
  EXPECT_NE(result.steps[0].proof.find("temperature"), std::string::npos);
  EXPECT_EQ(result.steps[1].rule, "drop-identity-projection");
  EXPECT_EQ(Explain(result.plan),
            Explain("project[location](window[1](temperatures))"));
}

TEST_F(SemanticRewriteTest, NarrowingBlockedBelowAggregate) {
  // count observes cardinality: merging tuples that differ only on a
  // dropped attribute would change the answer, so π must stay as-is.
  const PlanPtr plan = Aggregate(
      Project(Scan("contacts"), {"name", "address"}),
      /*group_by=*/{"name"},
      {AggregateSpec{AggregateFn::kCount, "", "n"}});
  const auto result =
      SemanticOptimize(plan, scenario_->env(), &scenario_->streams())
          .MoveValueOrDie();
  EXPECT_FALSE(result.changed());
  EXPECT_EQ(result.plan, plan);
}

// --- Rule 3: drop-identity-projection --------------------------------------

TEST_F(SemanticRewriteTest, IdentityProjectionRemoved) {
  const auto result = Optimize(
      "project[name, address, text, messenger, sent](contacts)");
  ASSERT_TRUE(result.changed());
  ASSERT_EQ(result.steps.size(), 1u);
  EXPECT_EQ(result.steps[0].rule, "drop-identity-projection");
  EXPECT_EQ(Explain(result.plan), Explain("contacts"));
}

// --- Guards ----------------------------------------------------------------

TEST_F(SemanticRewriteTest, IllFormedPlansAreReturnedUntouched) {
  const PlanPtr plan = Parse("project[area](invoke[checkPhoto](ghost))");
  const auto result =
      SemanticOptimize(plan, scenario_->env(), &scenario_->streams())
          .MoveValueOrDie();
  EXPECT_FALSE(result.changed());
  EXPECT_TRUE(result.steps.empty());
  EXPECT_EQ(result.plan, plan);
}

TEST_F(SemanticRewriteTest, UnchangedPlansReportNoSteps) {
  const auto result = Optimize("select[area = 'office'](cameras)");
  EXPECT_FALSE(result.changed());
  EXPECT_FALSE(result.reverted);
  EXPECT_TRUE(RenderSemanticSteps(result.steps).empty());
}

TEST_F(SemanticRewriteTest, RewriteCountersIncrement) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  metrics.set_enabled(true);
  const std::uint64_t dead_before =
      metrics.GetCounter("serena.rewrite.semantic.dead_invokes").value();
  const std::uint64_t narrowed_before =
      metrics.GetCounter("serena.rewrite.semantic.narrowed_projections")
          .value();
  OptimizeInPipeline("project[area](invoke[checkPhoto](cameras))");
  OptimizeInPipeline(
      "project[location](project[location, temperature]"
      "(window[1](temperatures)))");
  EXPECT_EQ(
      metrics.GetCounter("serena.rewrite.semantic.dead_invokes").value(),
      dead_before + 1);
  EXPECT_EQ(metrics.GetCounter("serena.rewrite.semantic.narrowed_projections")
                .value(),
            narrowed_before + 1);
}

// --- Rule 4: prune-empty-subtree (the SER070/SER072 facts) -----------------

TEST_F(SemanticRewriteTest, UnsatisfiableSelectPrunedToEmptyLeaf) {
  const auto result = Optimize(
      "select[temperature < 3 and temperature > 5]"
      "(window[1](temperatures))");
  ASSERT_TRUE(result.changed());
  ASSERT_EQ(result.steps.size(), 1u);
  EXPECT_EQ(result.steps[0].rule, "prune-empty-subtree");
  // The EXPLAIN-level proof names the ∅-at-every-instant fact, its
  // origin, and the Def. 8 action-set argument.
  EXPECT_NE(result.steps[0].proof.find("∅ at every instant"),
            std::string::npos);
  EXPECT_NE(result.steps[0].proof.find("origin: select["),
            std::string::npos);
  EXPECT_NE(result.steps[0].proof.find("Def. 8"), std::string::npos);
  // Golden snapshot: the whole tree collapses to the ∅ leaf with the
  // subtree's schema.
  EXPECT_EQ(Explain(result.plan),
            Explain("empty[location STRING, temperature REAL]"));
}

TEST_F(SemanticRewriteTest, PrunedPlanExecutesIdenticallyToOriginal) {
  const PlanPtr original = Parse(
      "project[location](select[temperature < 3 and temperature > 5]"
      "(window[1](temperatures)))");
  const auto rewritten =
      SemanticOptimize(original, scenario_->env(), &scenario_->streams())
          .MoveValueOrDie();
  ASSERT_TRUE(rewritten.changed());
  const QueryResult before = Run(original);
  const QueryResult after = Run(rewritten.plan);
  EXPECT_EQ(before.relation.ToTableString(), after.relation.ToTableString());
  EXPECT_EQ(before.actions.ToString(), after.actions.ToString());
}

TEST_F(SemanticRewriteTest, ActiveInvokeSubtreeIsNeverPruned) {
  // The σ is provably empty, so nothing ever reaches the ACTIVE
  // sendMessage — but the whole tree must survive: the β node is
  // guarded directly (its action set is observable, Def. 8), and the
  // subtree below it still offers the binding pattern the β resolves
  // against, which the ∅ leaf could not carry.
  const PlanPtr plan = Parse(
      "invoke[sendMessage](assign[text := 'Hello']"
      "(select[name = 'a' and name = 'b'](contacts)))");
  const auto result =
      SemanticOptimize(plan, scenario_->env(), &scenario_->streams())
          .MoveValueOrDie();
  EXPECT_FALSE(result.changed());
  EXPECT_EQ(result.plan, plan);
}

TEST_F(SemanticRewriteTest, NowOnlyEmptinessIsNeverFolded) {
  // `nothing` is empty *right now*, which a one-shot analysis proves —
  // but emptiness of a stored relation is not invariant over time, so
  // the rewriter must leave the plan alone even in a one-shot context.
  ExtendedSchemaPtr schema =
      ExtendedSchema::Create("nothing", {{"x", DataType::kInt}})
          .MoveValueOrDie();
  ASSERT_TRUE(scenario_->env().AddRelation(std::move(schema)).ok());
  const PlanPtr plan = Parse("select[x > 0](nothing)");
  const auto result =
      SemanticOptimize(plan, scenario_->env(), &scenario_->streams(),
                       AnalysisContext::kOneShot)
          .MoveValueOrDie();
  EXPECT_FALSE(result.changed());
  EXPECT_EQ(result.plan, plan);
}

// --- Rule 5: fold-constant-predicate ---------------------------------------

TEST_F(SemanticRewriteTest, TautologicalSelectFoldedAway) {
  const auto result = Optimize("select[1 < 2](contacts)");
  ASSERT_TRUE(result.changed());
  ASSERT_EQ(result.steps.size(), 1u);
  EXPECT_EQ(result.steps[0].rule, "fold-constant-predicate");
  EXPECT_NE(result.steps[0].proof.find("provably true"), std::string::npos);
  EXPECT_EQ(Explain(result.plan), Explain("contacts"));

  const QueryResult before = Run(Parse("select[1 < 2](contacts)"));
  const QueryResult after = Run(result.plan);
  EXPECT_EQ(before.relation.ToTableString(), after.relation.ToTableString());
}

TEST_F(SemanticRewriteTest, DataDependentSelectIsKeptIntact) {
  const auto result =
      Optimize("select[temperature > 30](window[1](temperatures))");
  EXPECT_FALSE(result.changed());
}

// --- Rule 6: drop-empty-setop-side -----------------------------------------

TEST_F(SemanticRewriteTest, EmptyUnionSideDropped) {
  const auto result = Optimize(
      "union(window[1](temperatures), "
      "select[temperature < 3 and temperature > 5]"
      "(window[1](temperatures)))");
  ASSERT_TRUE(result.changed());
  ASSERT_EQ(result.steps.size(), 1u);
  EXPECT_EQ(result.steps[0].rule, "drop-empty-setop-side");
  EXPECT_NE(result.steps[0].proof.find("X ∪ ∅ = X"), std::string::npos);
  EXPECT_EQ(Explain(result.plan), Explain("window[1](temperatures)"));
}

TEST_F(SemanticRewriteTest, EmptyDifferenceRightSideDropped) {
  const auto result = Optimize(
      "difference(contacts, select[name = 'a' and name = 'b'](contacts))");
  ASSERT_TRUE(result.changed());
  ASSERT_EQ(result.steps.size(), 1u);
  EXPECT_EQ(result.steps[0].rule, "drop-empty-setop-side");
  EXPECT_NE(result.steps[0].proof.find("X ∖ ∅ = X"), std::string::npos);
  EXPECT_EQ(Explain(result.plan), Explain("contacts"));

  const QueryResult before = Run(Parse(
      "difference(contacts, select[name = 'a' and name = 'b'](contacts))"));
  const QueryResult after = Run(result.plan);
  EXPECT_EQ(before.relation.ToTableString(), after.relation.ToTableString());
}

TEST_F(SemanticRewriteTest, FoldedCounterCountsAbsintRewrites) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  metrics.set_enabled(true);
  const std::uint64_t before =
      metrics.GetCounter("serena.rewrite.semantic.folded").value();
  OptimizeInPipeline(
      "select[temperature < 3 and temperature > 5]"
      "(window[1](temperatures))");
  OptimizeInPipeline("select[1 < 2](contacts)");
  EXPECT_EQ(metrics.GetCounter("serena.rewrite.semantic.folded").value(),
            before + 2);
}

// --- Def. 9 equivalence over the paper's walkthrough queries ---------------

TEST_F(SemanticRewriteTest, WalkthroughQueriesStayEquivalent) {
  // Table 4's canonical queries (plus a dead-invoke variant) rewritten
  // and unrewritten must produce byte-identical relations and action
  // sets. Q1 messages contacts — equivalence covers side effects too.
  const std::vector<PlanPtr> plans = {
      scenario_->Q1(),
      scenario_->Q2(),
      scenario_->Q2Prime(),
      Parse("project[area](invoke[checkPhoto](cameras))"),
      Parse("project[name, address](project[name, address, text]"
            "(contacts))"),
  };
  for (const PlanPtr& plan : plans) {
    const auto rewritten =
        SemanticOptimize(plan, scenario_->env(), &scenario_->streams())
            .MoveValueOrDie();
    EXPECT_FALSE(rewritten.reverted);
    scenario_->ClearOutboxes();
    const QueryResult before = Run(plan);
    scenario_->ClearOutboxes();
    const QueryResult after = Run(rewritten.plan);
    EXPECT_EQ(before.relation.ToTableString(),
              after.relation.ToTableString())
        << plan->ToString();
    EXPECT_EQ(before.actions.ToString(), after.actions.ToString())
        << plan->ToString();
  }
}

}  // namespace
}  // namespace serena
