// Tests for prepared pipelines (docs/VECTORIZATION.md, "Prepared
// pipelines"): a standing query prepares each fused pipeline at its first
// step and then only rebinds and runs it. Every fusable shape must stay
// byte-identical to the scalar oracle over many instants; a pipeline must
// be rebuilt when a relation or stream it reads changes schema, or the
// batch size changes; a failed run must leave nothing behind; and a
// steady-state step allocates only what its result needs.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "algebra/plan.h"
#include "algebra/vectorized.h"
#include "stream/continuous_query.h"
#include "stream/stream_store.h"
#include "xrel/environment.h"

// Sanitizers own operator new/delete; counting is left to plain builds.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SERENA_COUNT_ALLOCATIONS 0
#else
#define SERENA_COUNT_ALLOCATIONS 1
#endif

namespace {

/// Allocations made on a thread while its `counting` flag is set.
std::atomic<std::uint64_t> allocations{0};
thread_local bool counting = false;

}  // namespace

#if SERENA_COUNT_ALLOCATIONS
void* operator new(std::size_t size) {
  if (counting) allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace serena {
namespace {

class VecModeGuard {
 public:
  explicit VecModeGuard(bool enabled) { vec::SetEnabledForTesting(enabled); }
  ~VecModeGuard() { vec::SetEnabledForTesting(std::nullopt); }
};

class BatchSizeGuard {
 public:
  explicit BatchSizeGuard(std::size_t size) {
    vec::SetBatchSizeForTesting(size);
  }
  ~BatchSizeGuard() { vec::SetBatchSizeForTesting(std::nullopt); }
};

const char* const kAreas[] = {"office", "kitchen", "roof", "lobby"};

ExtendedSchemaPtr ReadingsSchema(bool with_unit = false) {
  std::vector<Attribute> attributes = {
      {"area", DataType::kString},
      {"load", DataType::kReal},
      {"battery", DataType::kInt},
      {"level", DataType::kInt, AttributeKind::kVirtual}};
  if (with_unit) attributes.insert(attributes.begin() + 1,
                                   {"unit", DataType::kString});
  return ExtendedSchema::Create("readings", std::move(attributes))
      .ValueOrDie();
}

XRelation Zones(bool with_alert = false) {
  std::vector<Attribute> attributes = {{"area", DataType::kString},
                                       {"floor", DataType::kInt}};
  if (with_alert) attributes.push_back({"alert", DataType::kInt});
  XRelation zones(
      ExtendedSchema::Create("zones", std::move(attributes)).ValueOrDie());
  for (int i = 0; i < 4; ++i) {
    std::vector<Value> values = {Value::String(kAreas[i]), Value::Int(i)};
    if (with_alert) values.push_back(Value::Int(10 * i));
    zones.InsertUnchecked(Tuple(std::move(values)));
  }
  return zones;
}

/// A catalog relation `zones` and a stream `readings` fed four rows per
/// instant — one of them a repeat of an earlier row of the same instant,
/// so the window's dedup has work — plus the standing queries under
/// test, each stepped by a vectorized and a scalar copy.
class VectorizedPreparedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(env_.PutRelation(Zones()).ok());
    ASSERT_TRUE(streams_.AddStream(ReadingsSchema()).ok());
  }

  /// Four rows at `t`: loads 0–95, batteries 0–89; with `hot` the first
  /// row has battery 95, the only value the failing α query's σ keeps.
  void Feed(Timestamp t, bool hot = false, bool with_unit = false) {
    XDRelation* stream = streams_.GetStream("readings").ValueOrDie();
    for (int k = 0; k < 4; ++k) {
      const int seed = k == 3 ? 1 : k;  // Row 3 repeats row 1.
      const int mix = static_cast<int>(t) * 7 + seed * 13;
      std::vector<Value> values = {
          Value::String(kAreas[mix % 4]),
          Value::Real(static_cast<double>((mix * 5) % 96)),
          Value::Int(hot && k == 0 ? 95 : mix % 90)};
      if (with_unit) values.insert(values.begin() + 1, Value::String("kW"));
      ASSERT_TRUE(stream->Append(t, Tuple(std::move(values))).ok());
    }
  }

  /// Steps `query` at `t` in one mode and renders its result or error.
  std::string Step(ContinuousQuery& query, Timestamp t, bool vectorized) {
    VecModeGuard guard(vectorized);
    Result<XRelation> result = query.Step(&env_, &streams_, t);
    return result.ok() ? result->ToTableString()
                       : "error: " + result.status().ToString();
  }

  /// Steps a vectorized and a scalar copy of `plan` at `t` and expects
  /// the same bytes; returns the vectorized rendering.
  std::string ExpectParity(ContinuousQuery& vectorized,
                           ContinuousQuery& scalar, Timestamp t) {
    const std::string fused = Step(vectorized, t, true);
    EXPECT_EQ(fused, Step(scalar, t, false))
        << vectorized.plan()->ToString() << " at t=" << t;
    return fused;
  }

  static const vec::PipelineCache& Pipelines(const ContinuousQuery& query) {
    return query.runtime()->pipelines();
  }

  static FormulaPtr Compare(const std::string& attribute, CompareOp op,
                            Value value) {
    return Formula::Compare(Operand::Attr(attribute), op,
                            Operand::Const(std::move(value)));
  }

  Environment env_;
  StreamStore streams_;
};

TEST_F(VectorizedPreparedTest, EveryFusableShapeMatchesScalarOverManyTicks) {
  const PlanPtr window = Window("readings", 3);
  const PlanPtr hot = Select(window, Compare("load", CompareOp::kGt,
                                             Value::Real(30.0)));
  const std::vector<PlanPtr> plans = {
      hot,
      Project(hot, {"area", "battery"}),
      Project(window, {"area"}),
      Rename(hot, "battery", "charge"),
      Assign(window, "level", "battery"),
      Assign(hot, "level", Value::Int(7)),
      Join(hot, Scan("zones")),
      Project(Join(window, Scan("zones")), {"floor", "area"}),
      Join(Rename(Project(hot, {"area", "load"}), "area", "room"),
           Project(window, {"battery"})),
      Aggregate(hot, {"area"},
                {{AggregateFn::kCount, "", "n"},
                 {AggregateFn::kSum, "load", "total"}}),
      Aggregate(window, {}, {{AggregateFn::kMax, "battery", "peak"}}),
      Aggregate(Join(hot, Scan("zones")), {"floor"},
                {{AggregateFn::kCount, "", "n"},
                 {AggregateFn::kAvg, "load", "mean"}}),
      Aggregate(Join(Project(hot, {"load"}), Scan("zones")), {"area"},
                {{AggregateFn::kMin, "load", "low"}}),
  };
  std::vector<std::unique_ptr<ContinuousQuery>> vectorized;
  std::vector<std::unique_ptr<ContinuousQuery>> scalar;
  for (std::size_t i = 0; i < plans.size(); ++i) {
    vectorized.push_back(std::make_unique<ContinuousQuery>(
        "v" + std::to_string(i), plans[i]));
    scalar.push_back(std::make_unique<ContinuousQuery>(
        "s" + std::to_string(i), plans[i]));
  }
  std::vector<bool> produced(plans.size(), false);
  for (Timestamp t = 1; t <= 64; ++t) {
    Feed(t);
    for (std::size_t i = 0; i < plans.size(); ++i) {
      const std::string rendered = ExpectParity(*vectorized[i], *scalar[i], t);
      produced[i] = produced[i] || rendered.find("error") == std::string::npos;
    }
  }
  for (std::size_t i = 0; i < plans.size(); ++i) {
    EXPECT_TRUE(produced[i]) << plans[i]->ToString();
    // Prepared once, at the first step, and run at every later one.
    EXPECT_EQ(Pipelines(*vectorized[i]).builds(), 1u) << plans[i]->ToString();
    EXPECT_EQ(Pipelines(*vectorized[i]).size(), 1u) << plans[i]->ToString();
    EXPECT_EQ(Pipelines(*scalar[i]).builds(), 0u);
  }
}

TEST_F(VectorizedPreparedTest, OpaqueStagesKeepTheTemporaryPath) {
  // The union is evaluated scalar inside the σ pipeline: that pipeline
  // is prepared afresh every step; the σ(W) operands below the union are
  // pipelines of their own and are kept.
  const PlanPtr window = Window("readings", 2);
  const PlanPtr plan = Select(
      UnionOf(Select(window, Compare("load", CompareOp::kGt,
                                     Value::Real(50.0))),
              Select(window, Compare("battery", CompareOp::kLt,
                                     Value::Int(20)))),
      Compare("area", CompareOp::kNe, Value::String("lobby")));
  ContinuousQuery vectorized("v", plan);
  ContinuousQuery scalar("s", plan);
  for (Timestamp t = 1; t <= 8; ++t) {
    Feed(t);
    ExpectParity(vectorized, scalar, t);
  }
  EXPECT_EQ(Pipelines(vectorized).size(), 2u);
  EXPECT_EQ(Pipelines(vectorized).builds(), 2u);
}

TEST_F(VectorizedPreparedTest, RelationReplacedWithAnotherSchemaIsRebuilt) {
  const PlanPtr plan =
      Join(Select(Window("readings", 2),
                  Compare("load", CompareOp::kGt, Value::Real(20.0))),
           Scan("zones"));
  ContinuousQuery vectorized("v", plan);
  ContinuousQuery scalar("s", plan);
  Timestamp t = 1;
  for (; t <= 4; ++t) {
    Feed(t);
    ExpectParity(vectorized, scalar, t);
  }
  EXPECT_EQ(Pipelines(vectorized).builds(), 1u);

  // Dropped: the prepared join no longer binds and cannot be built
  // again, so the scalar join runs and both modes report its diagnostic.
  // Its σ operand, evaluated first, is a pipeline of its own, kept.
  ASSERT_TRUE(env_.DropRelation("zones").ok());
  Feed(t);
  EXPECT_NE(ExpectParity(vectorized, scalar, t).find("error"),
            std::string::npos);
  EXPECT_EQ(Pipelines(vectorized).builds(), 2u);
  EXPECT_EQ(Pipelines(vectorized).size(), 1u);
  ++t;

  // Re-created with another schema: the join is prepared against it.
  ASSERT_TRUE(env_.PutRelation(Zones(/*with_alert=*/true)).ok());
  for (const Timestamp end = t + 4; t < end; ++t) {
    Feed(t);
    EXPECT_NE(ExpectParity(vectorized, scalar, t).find("alert"),
              std::string::npos);
  }
  EXPECT_EQ(Pipelines(vectorized).builds(), 3u);

  // Replaced wholesale with the same attributes but a new schema object.
  ASSERT_TRUE(env_.PutRelation(Zones()).ok());
  Feed(t);
  EXPECT_EQ(ExpectParity(vectorized, scalar, t).find("alert"),
            std::string::npos);
  EXPECT_EQ(Pipelines(vectorized).builds(), 4u);
}

TEST_F(VectorizedPreparedTest, StreamReAddedIsRebuilt) {
  const PlanPtr plan = Aggregate(
      Select(Window("readings", 3),
             Compare("battery", CompareOp::kGe, Value::Int(10))),
      {"area"}, {{AggregateFn::kCount, "", "n"}});
  ContinuousQuery vectorized("v", plan);
  ContinuousQuery scalar("s", plan);
  Timestamp t = 1;
  for (; t <= 4; ++t) {
    Feed(t);
    ExpectParity(vectorized, scalar, t);
  }
  ASSERT_TRUE(streams_.DropStream("readings").ok());
  ASSERT_TRUE(streams_.AddStream(ReadingsSchema(/*with_unit=*/true)).ok());
  for (const Timestamp end = t + 4; t < end; ++t) {
    Feed(t, /*hot=*/false, /*with_unit=*/true);
    ExpectParity(vectorized, scalar, t);
  }
  EXPECT_EQ(Pipelines(vectorized).builds(), 2u);
}

TEST_F(VectorizedPreparedTest, FailedStepIsFollowedByACleanStep) {
  // α cannot realize `level` (INT) from a REAL load: every step whose
  // window holds a hot row fails mid-pipeline, after the join has built
  // its table; the next step must start from a clean pipeline.
  const PlanPtr plan = Assign(
      Join(Select(Window("readings", 1),
                  Compare("battery", CompareOp::kGe, Value::Int(90))),
           Scan("zones")),
      "level", "load");
  const PlanPtr clean = Project(Join(Window("readings", 1), Scan("zones")),
                                {"area", "floor"});
  ContinuousQuery vectorized("v", plan);
  ContinuousQuery scalar("s", plan);
  ContinuousQuery vectorized_clean("vc", clean);
  ContinuousQuery scalar_clean("sc", clean);
  int failures = 0;
  int successes = 0;
  for (Timestamp t = 1; t <= 12; ++t) {
    Feed(t, /*hot=*/t % 3 == 0);
    const std::string rendered = ExpectParity(vectorized, scalar, t);
    if (rendered.find("TypeMismatch") != std::string::npos) {
      ++failures;
    } else {
      ++successes;
    }
    ExpectParity(vectorized_clean, scalar_clean, t);
  }
  EXPECT_EQ(failures, 4);
  EXPECT_EQ(successes, 8);
  EXPECT_EQ(Pipelines(vectorized).builds(), 1u);
}

TEST_F(VectorizedPreparedTest, BatchSizeChangeRebuilds) {
  const PlanPtr plan = Project(
      Select(Window("readings", 4),
             Compare("load", CompareOp::kGe, Value::Real(0.0))),
      {"area", "load"});
  ContinuousQuery vectorized("v", plan);
  ContinuousQuery scalar("s", plan);
  Timestamp t = 1;
  for (; t <= 3; ++t) {
    Feed(t);
    ExpectParity(vectorized, scalar, t);
  }
  EXPECT_EQ(Pipelines(vectorized).builds(), 1u);
  {
    BatchSizeGuard small(2);
    for (const Timestamp end = t + 3; t < end; ++t) {
      Feed(t);
      ExpectParity(vectorized, scalar, t);
    }
    EXPECT_EQ(Pipelines(vectorized).builds(), 2u);
  }
  Feed(t);
  ExpectParity(vectorized, scalar, t);
  EXPECT_EQ(Pipelines(vectorized).builds(), 3u);
}

#if SERENA_COUNT_ALLOCATIONS
TEST_F(VectorizedPreparedTest, SteadyStateStepAllocatesOnlyItsResult) {
  VecModeGuard guard(true);
  // Every instant adds three distinct rows (row 3 repeats row 1), and
  // window[2] holds two instants of them: σ keeps all six at every
  // instant.
  const PlanPtr plan = Select(Window("readings", 2),
                              Compare("load", CompareOp::kGe,
                                      Value::Real(0.0)));
  ContinuousQuery query("q", plan);
  Timestamp t = 1;
  for (; t <= 4; ++t) {
    Feed(t);
    ASSERT_TRUE(query.Step(&env_, &streams_, t).ok());
  }
  for (const Timestamp end = t + 8; t < end; ++t) {
    Feed(t);
    allocations.store(0);
    counting = true;
    Result<XRelation> result = query.Step(&env_, &streams_, t);
    counting = false;
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result->size(), 6u);
    // The result's tuple array and set index, each reserved once from
    // the last step's cardinality; one copy per result row. The window is
    // an incremental prefix: it reads only the arriving instant, into
    // buffers kept from earlier steps. No pipeline is built.
    EXPECT_EQ(allocations.load(), 2u + result->size()) << "t=" << t;
  }
  EXPECT_EQ(Pipelines(query).builds(), 1u);
}
#endif

}  // namespace
}  // namespace serena
