#include <gtest/gtest.h>

#include "common/random.h"
#include "ddl/algebra_parser.h"
#include "env/scenario.h"
#include "optimizer/pipeline.h"
#include "rewrite/equivalence.h"
#include "rewrite/rewriter.h"
#include "stream/continuous_query.h"

namespace serena {
namespace {

/// Whole-system property tests: a generator builds random *valid* Serena
/// plans over the scenario environment, and every generated plan must
/// satisfy:
///   1. static schema inference == the schema of the evaluated result;
///   2. ToString → ParseAlgebra round-trips;
///   3. the optimizer's output is Def. 9-equivalent and never costlier;
///   4. for stream-free plans, continuous Step == one-shot Execute over a
///      static environment at the same instant.
class RandomPlanTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    TemperatureScenarioOptions options;
    options.extra_sensors = 4;
    options.extra_contacts = 2;
    scenario_ = TemperatureScenario::Build(options).MoveValueOrDie();
    rng_ = std::make_unique<Rng>(GetParam() * 7919 + 3);
  }

  Environment& env() { return scenario_->env(); }
  StreamStore& streams() { return scenario_->streams(); }

  Result<ExtendedSchemaPtr> SchemaOf(const PlanPtr& plan) {
    return plan->InferSchema(env(), &streams());
  }

  Value RandomConstant(DataType type) {
    switch (type) {
      case DataType::kBool:
        return Value::Bool(rng_->NextBool(0.5));
      case DataType::kInt:
        return Value::Int(rng_->NextInt(0, 9));
      case DataType::kReal:
        return Value::Real(static_cast<double>(rng_->NextInt(0, 400)) / 10.0);
      default: {
        static const char* kPool[] = {"office", "corridor", "roof",
                                      "Carla",  "email",    "x"};
        return Value::String(kPool[rng_->NextBounded(6)]);
      }
    }
  }

  /// A random comparison over a random real attribute of `schema`.
  FormulaPtr RandomFormula(const ExtendedSchema& schema) {
    const auto reals = schema.RealNames();
    const std::string& attr = reals[rng_->NextBounded(reals.size())];
    const DataType type = schema.FindAttribute(attr)->type;
    CompareOp op;
    if (type == DataType::kBool || type == DataType::kBlob) {
      op = rng_->NextBool(0.5) ? CompareOp::kEq : CompareOp::kNe;
    } else {
      static const CompareOp kOps[] = {CompareOp::kEq, CompareOp::kNe,
                                       CompareOp::kLt, CompareOp::kLe,
                                       CompareOp::kGt, CompareOp::kGe};
      op = kOps[rng_->NextBounded(6)];
    }
    if (type == DataType::kBlob) {
      // Compare blob attrs only against themselves (no blob literals).
      return Formula::Compare(Operand::Attr(attr), op, Operand::Attr(attr));
    }
    return Formula::Compare(Operand::Attr(attr), op,
                            Operand::Const(RandomConstant(type)));
  }

  /// Grows a random valid plan of roughly `depth` operators.
  PlanPtr RandomPlan(int depth) {
    static const char* kRelations[] = {"sensors", "contacts", "cameras",
                                       "surveillance"};
    PlanPtr plan = Scan(kRelations[rng_->NextBounded(4)]);
    for (int level = 0; level < depth; ++level) {
      auto schema = SchemaOf(plan);
      if (!schema.ok()) break;  // Defensive; should not happen.
      const ExtendedSchema& s = **schema;
      switch (rng_->NextBounded(7)) {
        case 0:
          plan = Select(plan, RandomFormula(s));
          break;
        case 1: {
          // Random non-empty attribute subset, schema order.
          std::vector<std::string> kept;
          for (const Attribute& attr : s.attributes()) {
            if (rng_->NextBool(0.7)) kept.push_back(attr.name);
          }
          if (kept.empty()) kept.push_back(s.attribute(0).name);
          plan = Project(plan, std::move(kept));
          break;
        }
        case 2: {
          const auto& attr =
              s.attribute(rng_->NextBounded(s.size())).name;
          plan = Rename(plan, attr,
                        attr + "_r" + std::to_string(level));
          break;
        }
        case 3: {
          // Assignable virtual attributes (blob constants have no literal
          // form, so skip them).
          std::vector<std::string> candidates;
          for (const std::string& name : s.VirtualNames()) {
            if (s.FindAttribute(name)->type != DataType::kBlob) {
              candidates.push_back(name);
            }
          }
          if (candidates.empty()) break;
          const std::string& target =
              candidates[rng_->NextBounded(candidates.size())];
          plan = Assign(plan, target,
                        RandomConstant(s.FindAttribute(target)->type));
          break;
        }
        case 4: {
          // Invoke a binding pattern whose inputs are all real.
          for (const BindingPattern& bp : s.binding_patterns()) {
            bool ready = true;
            for (const std::string& input :
                 bp.prototype().input().Names()) {
              if (!s.IsReal(input)) ready = false;
            }
            if (ready) {
              plan = Invoke(plan, bp.prototype().name(),
                            bp.service_attribute());
              break;
            }
          }
          break;
        }
        case 5: {
          // Join against a base relation.
          plan = Join(plan, Scan(kRelations[rng_->NextBounded(4)]));
          break;
        }
        default: {
          // Union with itself (schemas trivially match).
          plan = UnionOf(plan, plan);
          break;
        }
      }
    }
    return plan;
  }

  std::unique_ptr<TemperatureScenario> scenario_;
  std::unique_ptr<Rng> rng_;
};

TEST_P(RandomPlanTest, InferenceMatchesEvaluation) {
  for (int round = 0; round < 6; ++round) {
    PlanPtr plan = RandomPlan(1 + static_cast<int>(rng_->NextBounded(5)));
    auto schema = SchemaOf(plan);
    ASSERT_TRUE(schema.ok()) << plan->ToString() << "\n" << schema.status();
    auto result = Execute(plan, &env(), &streams(),
                          static_cast<Timestamp>(round + 1));
    ASSERT_TRUE(result.ok()) << plan->ToString() << "\n" << result.status();
    EXPECT_TRUE(result->relation.schema().SameAttributes(**schema))
        << plan->ToString();
  }
}

TEST_P(RandomPlanTest, RenderedPlansReparse) {
  for (int round = 0; round < 6; ++round) {
    PlanPtr plan = RandomPlan(1 + static_cast<int>(rng_->NextBounded(5)));
    auto reparsed = ParseAlgebra(plan->ToString());
    ASSERT_TRUE(reparsed.ok()) << plan->ToString() << "\n"
                               << reparsed.status();
    EXPECT_EQ((*reparsed)->ToString(), plan->ToString());
  }
}

TEST_P(RandomPlanTest, OptimizerPreservesEquivalence) {
  // Two optimizers over the same generated plans: the bare Table 5
  // rewriter, and the full pipeline (semantic, cost, rules), each of
  // whose stages passes VerifyStage.
  Rewriter rewriter(&env(), &streams());
  optimizer::Pipeline pipeline(&env(), &streams());
  for (int round = 0; round < 6; ++round) {
    PlanPtr plan = RandomPlan(1 + static_cast<int>(rng_->NextBounded(5)));
    auto optimized = rewriter.Optimize(plan);
    ASSERT_TRUE(optimized.ok()) << plan->ToString();
    auto report = CheckEquivalence(plan, *optimized, &env(), &streams(),
                                   static_cast<Timestamp>(round + 50));
    ASSERT_TRUE(report.ok()) << plan->ToString();
    EXPECT_TRUE(report->equivalent())
        << "plan:      " << plan->ToString()
        << "\nrewritten: " << (*optimized)->ToString() << "\n"
        << report->ToString();
    // The rewriter's own cost guard; the pipeline costs with the learned
    // model, so this holds for the rewriter only.
    auto model = optimizer::MakeStaticCostModel(&env(), &streams());
    auto before = model->Estimate(plan);
    auto after = model->Estimate(*optimized);
    if (before.ok() && after.ok()) {
      EXPECT_LE(after->Total(), before->Total() + 1e-9)
          << plan->ToString();
    }

    auto pipelined = pipeline.Optimize(plan, AnalysisContext::kNeutral);
    ASSERT_TRUE(pipelined.ok()) << plan->ToString();
    auto schema = SchemaOf(plan);
    auto pipelined_schema = SchemaOf(*pipelined);
    ASSERT_TRUE(schema.ok() && pipelined_schema.ok()) << plan->ToString();
    EXPECT_TRUE((*pipelined_schema)->SameAttributes(**schema))
        << plan->ToString();
    auto pipelined_report =
        CheckEquivalence(plan, *pipelined, &env(), &streams(),
                         static_cast<Timestamp>(round + 50));
    ASSERT_TRUE(pipelined_report.ok()) << plan->ToString();
    EXPECT_TRUE(pipelined_report->equivalent())
        << "plan:      " << plan->ToString()
        << "\npipelined: " << (*pipelined)->ToString() << "\n"
        << pipelined_report->ToString();
  }
}

TEST_P(RandomPlanTest, ContinuousStepMatchesOneShotOnStaticEnvironment) {
  for (int round = 0; round < 4; ++round) {
    PlanPtr plan = RandomPlan(1 + static_cast<int>(rng_->NextBounded(4)));
    const Timestamp instant = static_cast<Timestamp>(round + 100);
    ContinuousQuery query("q", plan);
    auto stepped = query.Step(&env(), &streams(), instant);
    ASSERT_TRUE(stepped.ok()) << plan->ToString();
    auto one_shot = Execute(plan, &env(), &streams(), instant);
    ASSERT_TRUE(one_shot.ok()) << plan->ToString();
    EXPECT_TRUE(stepped->SetEquals(one_shot->relation))
        << plan->ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPlanTest,
                         ::testing::Range<std::uint64_t>(0, 12));

}  // namespace
}  // namespace serena
