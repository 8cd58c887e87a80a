#include "optimizer/cost_model.h"

#include <gtest/gtest.h>

#include "env/scenario.h"
#include "obs/stats.h"

namespace serena {
namespace {

using optimizer::CostModelPtr;
using optimizer::MakeDefaultCostModel;
using optimizer::MakeLearnedCostModel;
using optimizer::MakeStaticCostModel;

class CostTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TemperatureScenarioOptions options;
    options.extra_sensors = 96;  // 100 sensors total.
    scenario_ = TemperatureScenario::Build(options).MoveValueOrDie();
    model_ = MakeStaticCostModel(&scenario_->env(), &scenario_->streams());
  }

  PlanCost Cost(const PlanPtr& plan) {
    return model_->Estimate(plan).ValueOrDie();
  }

  std::unique_ptr<TemperatureScenario> scenario_;
  CostModelPtr model_;
};

TEST_F(CostTest, ScanUsesActualCardinality) {
  EXPECT_DOUBLE_EQ(Cost(Scan("sensors")).cardinality, 100.0);
  EXPECT_DOUBLE_EQ(Cost(Scan("contacts")).cardinality, 3.0);
  EXPECT_DOUBLE_EQ(Cost(Scan("sensors")).invocations, 0.0);
}

TEST_F(CostTest, SelectionShrinksCardinality) {
  PlanPtr scan = Scan("sensors");
  PlanPtr eq = Select(scan, Formula::Compare(
                                Operand::Attr("location"), CompareOp::kEq,
                                Operand::Const(Value::String("office"))));
  PlanPtr range =
      Select(scan, Formula::Compare(Operand::Attr("location"),
                                    CompareOp::kLt,
                                    Operand::Const(Value::String("z"))));
  EXPECT_LT(Cost(eq).cardinality, Cost(scan).cardinality);
  // Equality assumed more selective than a range predicate.
  EXPECT_LT(Cost(eq).cardinality, Cost(range).cardinality);
}

TEST_F(CostTest, InvokeChargesPerInputTuple) {
  PlanPtr invoke_all = Invoke(Scan("sensors"), "getTemperature");
  const PlanCost all = Cost(invoke_all);
  EXPECT_DOUBLE_EQ(all.invocations, 100.0);
  EXPECT_DOUBLE_EQ(all.active_invocations, 0.0);  // Passive.

  // Filtering first cuts the estimated invocations.
  PlanPtr invoke_few = Invoke(
      Select(Scan("sensors"),
             Formula::Compare(Operand::Attr("location"), CompareOp::kEq,
                              Operand::Const(Value::String("office")))),
      "getTemperature");
  EXPECT_LT(Cost(invoke_few).invocations, all.invocations);
}

TEST_F(CostTest, ActiveInvocationsTracked) {
  PlanPtr q1 = scenario_->Q1();
  const PlanCost cost = Cost(q1);
  EXPECT_GT(cost.active_invocations, 0.0);
  EXPECT_LE(cost.active_invocations, cost.invocations);
}

TEST_F(CostTest, TotalWeighsInvocationsOverTuples) {
  // 100 invocations must dominate thousands of local tuples.
  PlanPtr heavy_local = Join(Scan("sensors"), Scan("surveillance"));
  PlanPtr few_remote = Invoke(Scan("contacts"), "sendMessage");
  // Q1-ish shape (3 invocations) vs a local join: both estimable;
  // invocations are priced 100x.
  EXPECT_GT(Cost(few_remote).Total() / 3.0, 90.0);
  (void)heavy_local;
}

TEST_F(CostTest, WindowAndStreamingEstimable) {
  PlanPtr plan = Streaming(
      Select(Window("temperatures", 1),
             Formula::Compare(Operand::Attr("temperature"), CompareOp::kGt,
                              Operand::Const(Value::Real(35.5)))),
      StreamingType::kInsertion);
  const PlanCost cost = Cost(plan);
  EXPECT_GT(cost.cardinality, 0.0);
  EXPECT_DOUBLE_EQ(cost.invocations, 0.0);
}

TEST_F(CostTest, AggregateCompressesCardinality) {
  PlanPtr base = Scan("sensors");
  PlanPtr agg = Aggregate(base, {"location"},
                          {{AggregateFn::kCount, "", "n"}});
  EXPECT_LT(Cost(agg).cardinality, Cost(base).cardinality);
  EXPECT_GE(Cost(agg).cardinality, 1.0);
}

TEST_F(CostTest, ErrorsOnUnknownRelationOrNull) {
  auto model = MakeStaticCostModel(&scenario_->env(), nullptr);
  EXPECT_FALSE(model->Estimate(Scan("ghost")).ok());
  EXPECT_FALSE(model->Estimate(nullptr).ok());
}

TEST_F(CostTest, CustomOptionsChangeEstimates) {
  CostModelOptions pessimistic;
  pessimistic.invocation_fanout = 4.0;
  PlanPtr plan = Invoke(Scan("sensors"), "getTemperature");
  auto normal = MakeStaticCostModel(&scenario_->env(), nullptr)
                    ->Estimate(plan)
                    .ValueOrDie();
  auto fanout = MakeStaticCostModel(&scenario_->env(), nullptr, pessimistic)
                    ->Estimate(plan)
                    .ValueOrDie();
  EXPECT_GT(fanout.cardinality, normal.cardinality);
}

TEST_F(CostTest, JoinDampedPerSharedKeyAttribute) {
  // Joining a relation with itself shares every attribute; joining two
  // disjoint-schema relations is a Cartesian product.
  const double self_card = Cost(Join(Scan("sensors"), Scan("sensors")))
                               .cardinality;
  const double scan_card = Cost(Scan("sensors")).cardinality;
  EXPECT_LT(self_card, scan_card * scan_card);
  EXPECT_GT(self_card, 0.0);
  // More shared keys ⇒ more selective.
  EXPECT_LT(model_->JoinSelectivity(2), model_->JoinSelectivity(1));
  EXPECT_DOUBLE_EQ(model_->JoinSelectivity(0), 1.0);  // Cartesian.
}

TEST_F(CostTest, FlatInvocationPricingMatchesClassicTotal) {
  // The static backend prices every invocation at the classic flat 100
  // units, so Total() is unchanged from the pre-CostModel estimator.
  const PlanCost cost = Cost(Invoke(Scan("contacts"), "sendMessage"));
  EXPECT_DOUBLE_EQ(cost.invocation_units, cost.invocations * 100.0);
  EXPECT_DOUBLE_EQ(cost.Total(), cost.invocations * 100.0 + cost.tuples);
}

TEST_F(CostTest, BackendsAreNamed) {
  EXPECT_STREQ(model_->name(), "static");
  EXPECT_STREQ(
      MakeLearnedCostModel(&scenario_->env(), &scenario_->streams())->name(),
      "learned");
  EXPECT_STREQ(
      MakeDefaultCostModel(&scenario_->env(), &scenario_->streams())->name(),
      "learned");
}

TEST_F(CostTest, LearnedBackendFallsBackToStaticWithoutObservations) {
  obs::StatsStore::Global().Clear();
  auto learned =
      MakeLearnedCostModel(&scenario_->env(), &scenario_->streams());
  PlanPtr plan = Invoke(Scan("sensors"), "getTemperature");
  const PlanCost a = Cost(plan);
  const PlanCost b = learned->Estimate(plan).ValueOrDie();
  EXPECT_DOUBLE_EQ(a.Total(), b.Total());
  EXPECT_DOUBLE_EQ(a.cardinality, b.cardinality);
}

TEST_F(CostTest, LearnedBackendUsesObservedCardinalities) {
  auto& store = obs::StatsStore::Global();
  store.Clear();
  PlanPtr select = Select(
      Scan("sensors"),
      Formula::Compare(Operand::Attr("location"), CompareOp::kEq,
                       Operand::Const(Value::String("office"))));
  // Feed the store an actual evaluation so the fingerprint has stats.
  PlanStats collector(*select);
  EvalContext ctx;
  ctx.env = &scenario_->env();
  ctx.streams = &scenario_->streams();
  ctx.stats = &collector;
  ASSERT_TRUE(select->Evaluate(ctx).ok());
  store.RecordPlan(collector);

  auto learned =
      MakeLearnedCostModel(&scenario_->env(), &scenario_->streams());
  auto stats = store.Find(obs::OperatorFingerprint(*select));
  ASSERT_TRUE(stats.has_value());
  const PlanCost cost = learned->Estimate(select).ValueOrDie();
  // The observed output cardinality overrides the 10% equality guess.
  EXPECT_DOUBLE_EQ(cost.cardinality, stats->mean_rows_out());
  store.Clear();
}

}  // namespace
}  // namespace serena
