// Tests for incremental windows (docs/VECTORIZATION.md, "Incremental
// windows"): a standing query's σ/π/ρ/α chain over a time window caches
// each instant's output and evaluates only the arriving instant. Over
// generated stream arrivals — duplicates within and across instants,
// empty instants, late appends at an instant already cached, a stream
// dropped and re-created with another schema, a σ and an α that fail at
// some instants, window periods 1–8 — every step must produce the scalar
// oracle's rows in the same order, the same errors, and the same
// per-node statistics, at a serial and a 4-thread pool. A steady step
// must touch rows in proportion to what arrives, not to the window.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "algebra/plan.h"
#include "algebra/vectorized.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "stream/continuous_query.h"
#include "stream/executor.h"
#include "stream/stream_store.h"
#include "xrel/environment.h"

namespace serena {
namespace {

class VecModeGuard {
 public:
  explicit VecModeGuard(bool enabled) { vec::SetEnabledForTesting(enabled); }
  ~VecModeGuard() { vec::SetEnabledForTesting(std::nullopt); }
};

const char* const kAreas[] = {"office", "kitchen", "roof", "lobby"};

/// The stream's schema; after a re-creation it carries a `unit` too.
ExtendedSchemaPtr ReadingsSchema(bool with_unit) {
  std::vector<Attribute> attributes = {
      {"area", DataType::kString},
      {"load", DataType::kReal},
      {"battery", DataType::kInt},
      {"level", DataType::kInt, AttributeKind::kVirtual}};
  if (with_unit) attributes.push_back({"unit", DataType::kString});
  return ExtendedSchema::Create("readings", std::move(attributes))
      .ValueOrDie();
}

XRelation Zones() {
  XRelation zones(ExtendedSchema::Create("zones", {{"area", DataType::kString},
                                                   {"floor", DataType::kInt}})
                      .ValueOrDie());
  for (int i = 0; i < 3; ++i) {
    zones.InsertUnchecked(
        Tuple{Value::String(kAreas[i]), Value::Int(static_cast<int>(i))});
  }
  return zones;
}

FormulaPtr Compare(const std::string& attribute, CompareOp op, Value value) {
  return Formula::Compare(Operand::Attr(attribute), op,
                          Operand::Const(std::move(value)));
}

/// The query shapes under test over a window of `period`, by name.
std::vector<std::pair<std::string, PlanPtr>> Shapes(Timestamp period) {
  const PlanPtr window = Window("readings", period);
  const PlanPtr select =
      Select(window, Compare("battery", CompareOp::kLt, Value::Int(4)));
  const PlanPtr chain = Select(
      Select(Select(window, Compare("load", CompareOp::kGe, Value::Int(2))),
             Compare("area", CompareOp::kNe, Value::String("lobby"))),
      Compare("battery", CompareOp::kGt, Value::Int(0)));
  const PlanPtr project = Project(select, {"area", "battery"});
  return {
      {"select", select},
      {"chain", chain},
      {"project", project},
      {"rename", Rename(project, "battery", "charge")},
      {"assign", Assign(select, "level", "battery")},
      {"aggregate", Aggregate(select, {"area"},
                              {{AggregateFn::kCount, "", "n"},
                               {AggregateFn::kSum, "load", "total"}})},
      {"join", Join(select, Scan("zones"))},
      // Above a π the chain reads the prefix's served rows.
      {"select_over_project",
       Select(Project(chain, {"area", "load"}),
              Compare("load", CompareOp::kLt, Value::Int(6)))},
      // Fails whenever a battery-9 row is in the window: 'x' cannot be
      // ordered against a number.
      {"failing_select",
       Select(Select(window, Compare("battery", CompareOp::kEq, Value::Int(9))),
              Compare("load", CompareOp::kLt, Value::String("x")))},
      // Fails whenever a REAL load reaches it: `level` is an INT.
      {"failing_assign",
       Assign(Select(window, Compare("battery", CompareOp::kGe, Value::Int(5))),
              "level", "load")},
  };
}

/// Records every step's rendered result (or error), by query name.
class StepRecorder final : public TickObserver {
 public:
  void OnQueryStep(Timestamp /*now*/, const ContinuousQuery& query,
                   const Status& status, const XRelation* rows) override {
    std::string rendered;
    if (rows == nullptr) {
      rendered = "error: " + status.ToString();
    } else {
      for (const Tuple& tuple : rows->tuples()) {
        rendered += tuple.ToString();
        rendered += '\n';
      }
    }
    steps[query.name()] = std::move(rendered);
  }

  std::map<std::string, std::string> steps;
};

/// One engine: an environment, a stream store and an executor stepping
/// every shape at every period on a pool of `threads`.
struct Lane {
  explicit Lane(std::size_t threads) : pool(threads), executor(&env, &streams) {
    executor.set_pool(&pool);
    executor.AddTickObserver(&recorder);
    EXPECT_TRUE(env.PutRelation(Zones()).ok());
    EXPECT_TRUE(streams.AddStream(ReadingsSchema(false)).ok());
    for (Timestamp period = 1; period <= 8; ++period) {
      for (auto& [name, plan] : Shapes(period)) {
        auto query = std::make_shared<ContinuousQuery>(
            name + "/" + std::to_string(period), plan);
        queries.push_back(query);
        EXPECT_TRUE(executor.Register(query).ok());
      }
    }
  }

  Status Append(Timestamp t, const std::vector<Tuple>& rows) {
    SERENA_ASSIGN_OR_RETURN(XDRelation * stream, streams.GetStream("readings"));
    for (const Tuple& row : rows) SERENA_RETURN_NOT_OK(stream->Append(t, row));
    return Status::OK();
  }

  Environment env;
  StreamStore streams;
  ThreadPool pool;
  ContinuousExecutor executor;
  StepRecorder recorder;
  std::vector<ContinuousQueryPtr> queries;
};

/// Seeded stream arrivals over a small domain, so rows repeat within and
/// across instants.
class Arrivals {
 public:
  static constexpr Timestamp kBatteryNine = 23;

  explicit Arrivals(std::uint64_t seed) : rng_(seed) {}

  std::vector<Tuple> Draw(Timestamp t, bool with_unit) {
    std::vector<Tuple> rows;
    if (t != kBatteryNine && Pick(5) == 0) return rows;  // Empty instant.
    const int n = 1 + Pick(6);
    for (int k = 0; k < n; ++k) {
      const bool first_at_nine = t == kBatteryNine && k == 0;
      if (!history_.empty() && !first_at_nine && Pick(4) == 0) {
        rows.push_back(history_[Pick(history_.size())]);  // A repeat.
      } else {
        const int load = Pick(8);
        std::vector<Value> values = {
            Value::String(kAreas[Pick(4)]),
            // REAL loads are rare: each makes `failing_assign` fail.
            Pick(12) == 0 ? Value::Real(load + 0.5) : Value::Int(load),
            // A new battery-9 row appears at one instant only.
            Value::Int(first_at_nine ? 9 : Pick(8))};
        rows.push_back(Tuple(std::move(values)));
      }
      if (with_unit && rows.back().size() == 3) {
        std::vector<Value> values = rows.back().values();
        values.push_back(Value::String("kW"));
        rows.back() = Tuple(std::move(values));
      } else if (!with_unit && rows.back().size() == 4) {
        std::vector<Value> values = rows.back().values();
        values.pop_back();
        rows.back() = Tuple(std::move(values));
      }
      if (Pick(3) == 0) rows.push_back(rows.back());  // Within the instant.
    }
    for (const Tuple& row : rows) history_.push_back(row);
    return rows;
  }

  int Pick(std::size_t n) {
    return static_cast<int>(std::uniform_int_distribution<std::size_t>(
        0, n - 1)(rng_));
  }

 private:
  std::mt19937_64 rng_;
  std::vector<Tuple> history_;
};

void ExpectSameStats(const Lane& fused, const Lane& scalar, Timestamp t) {
  for (std::size_t q = 0; q < fused.queries.size(); ++q) {
    const PlanStats& a = fused.queries[q]->runtime()->stats();
    const PlanStats& b = scalar.queries[q]->runtime()->stats();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t node = 0; node < a.size(); ++node) {
      EXPECT_EQ(a.at(node).rows_out, b.at(node).rows_out)
          << fused.queries[q]->name() << " node " << a.node(node)->ToString()
          << " at t=" << t;
      EXPECT_EQ(a.at(node).evals, b.at(node).evals)
          << fused.queries[q]->name() << " node " << node << " at t=" << t;
      EXPECT_EQ(a.at(node).errors, b.at(node).errors)
          << fused.queries[q]->name() << " node " << node << " at t=" << t;
    }
  }
}

class IncrementalWindowTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(IncrementalWindowTest, GeneratedArrivalsMatchTheScalarOracle) {
  const std::size_t threads = GetParam();
  for (const std::uint64_t seed : {1u, 7u, 42u}) {
    Lane fused(threads);
    Lane scalar(threads);
    Arrivals arrivals(seed);
    bool with_unit = false;
    std::map<std::string, int> failures;
    for (Timestamp t = 1; t <= 48; ++t) {
      if (t == 30) {
        // Re-created with another schema: every pipeline is prepared
        // afresh and rebuilds its slices from the new stream's history.
        with_unit = true;
        for (Lane* lane : {&fused, &scalar}) {
          ASSERT_TRUE(lane->streams.DropStream("readings").ok());
          ASSERT_TRUE(lane->streams.AddStream(ReadingsSchema(true)).ok());
        }
      }
      const std::vector<Tuple> rows = arrivals.Draw(t, with_unit);
      ASSERT_TRUE(fused.Append(t, rows).ok());
      ASSERT_TRUE(scalar.Append(t, rows).ok());
      {
        VecModeGuard on(true);
        ASSERT_EQ(fused.executor.Tick(), t);
      }
      {
        VecModeGuard off(false);
        ASSERT_EQ(scalar.executor.Tick(), t);
      }
      ASSERT_EQ(fused.recorder.steps.size(), fused.queries.size());
      for (const auto& [name, rendered] : scalar.recorder.steps) {
        EXPECT_EQ(fused.recorder.steps[name], rendered)
            << name << " at t=" << t << " seed " << seed;
        if (rendered.rfind("error", 0) == 0) ++failures[name];
      }
      ExpectSameStats(fused, scalar, t);
      if (arrivals.Pick(4) == 0) {
        // A late append at the instant just stepped (and cached).
        const std::vector<Tuple> late = arrivals.Draw(t, with_unit);
        ASSERT_TRUE(fused.Append(t, late).ok());
        ASSERT_TRUE(scalar.Append(t, late).ok());
      }
    }
    // The failing shapes failed at some instants and not at others.
    for (const char* shape : {"failing_select/8", "failing_assign/8"}) {
      EXPECT_GT(failures[shape], 0) << shape << " seed " << seed;
      EXPECT_LT(failures[shape], 48) << shape << " seed " << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, IncrementalWindowTest,
                         ::testing::Values(std::size_t{0}, std::size_t{4}));

/// Rows a steady step of σ(W[period]) pushes through its pipelines
/// (`serena.vectorize.rows`), `rows` distinct rows arriving per instant.
std::uint64_t SteadyStepRows(Timestamp period, int rows) {
  VecModeGuard on(true);
  Environment env;
  StreamStore streams;
  EXPECT_TRUE(streams.AddStream(ReadingsSchema(false)).ok());
  XDRelation* stream = streams.GetStream("readings").ValueOrDie();
  ContinuousQuery query(
      "q", Select(Window("readings", period),
                  Compare("battery", CompareOp::kGe, Value::Int(0))));
  obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("serena.vectorize.rows");
  std::uint64_t steady = 0;
  for (Timestamp t = 1; t <= 3 * period; ++t) {
    for (int k = 0; k < rows; ++k) {
      EXPECT_TRUE(stream
                      ->Append(t, Tuple{Value::String("office"),
                                        Value::Int(k),
                                        Value::Int(static_cast<int>(t))})
                      .ok());
    }
    const std::uint64_t before = counter.value();
    Result<XRelation> result = query.Step(&env, &streams, t);
    EXPECT_TRUE(result.ok());
    // Every row of the window is in the result.
    EXPECT_EQ(result->size(),
              static_cast<std::size_t>(rows * std::min<Timestamp>(t, period)));
    steady = counter.value() - before;
  }
  return steady;
}

TEST(IncrementalWindowWorkTest, SteadyStepTouchesArrivingRowsNotTheWindow) {
  if (!obs::MetricsRegistry::Global().enabled()) GTEST_SKIP();
  // The full re-scan pushed every row of the window through σ at every
  // step; the prefix pushes only the arriving instant's.
  EXPECT_EQ(SteadyStepRows(2, 50), 50u);
  EXPECT_EQ(SteadyStepRows(8, 50), 50u);
  // A period-1 window re-reads its one instant: it is all arriving.
  EXPECT_EQ(SteadyStepRows(1, 50), 50u);
}

}  // namespace
}  // namespace serena
