// Per-query health tracking and the self-observability meta-relations:
// lag/streak semantics, executor integration, on-demand refresh (a tick
// rebuilds only the sys_* relations standing queries scan; one-shots
// refresh what they scan), and the acceptance scenario — a standing
// Serena query over `sys_query_health` detecting a persistently failing
// query within two ticks of its streak crossing the alert threshold.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "algebra/explain.h"
#include "algebra/plan.h"
#include "ddl/algebra_parser.h"
#include "obs/meta.h"
#include "obs/metrics.h"
#include "obs/stats.h"
#include "pems/pems.h"
#include "stream/continuous_query.h"
#include "stream/executor.h"
#include "stream/query_health.h"
#include "stream/stream_store.h"
#include "xrel/environment.h"

namespace serena {
namespace {

using obs::kSysMetricsRelation;
using obs::kSysQueryHealthRelation;
using obs::kSysSpansRelation;

QueryHealth::QuerySnapshot Find(
    const std::vector<QueryHealth::QuerySnapshot>& snapshots,
    const std::string& name) {
  for (const auto& snapshot : snapshots) {
    if (snapshot.name == name) return snapshot;
  }
  ADD_FAILURE() << "no snapshot for " << name;
  return {};
}

/// The value `sys_metrics` currently holds for counter `metric`, or -1
/// when it has no row for it.
double MetricRow(const Environment& env, const std::string& metric) {
  const auto relation = env.GetRelation(kSysMetricsRelation);
  EXPECT_TRUE(relation.ok()) << relation.status();
  if (!relation.ok()) return -1;
  for (const Tuple& row : (*relation)->tuples()) {
    if (row[0].string_value() == metric) return row[2].real_value();
  }
  return -1;
}

ContinuousQueryPtr MakeQuery(const std::string& name,
                             const std::string& algebra) {
  auto plan = ParseAlgebra(algebra);
  EXPECT_TRUE(plan.ok()) << plan.status();
  return std::make_shared<ContinuousQuery>(name, *plan);
}

/// Tracks `name` in `health` through a fresh runtime record with no plan,
/// into which the test records steps as the executor would.
std::shared_ptr<QueryRuntime> Track(QueryHealth& health,
                                    const std::string& name, Timestamp now) {
  auto runtime = std::make_shared<QueryRuntime>(nullptr);
  health.Register(name, runtime, now);
  return runtime;
}

// ---------------------------------------------------------------------------
// QueryHealth unit semantics
// ---------------------------------------------------------------------------

TEST(QueryHealthTest, LagCountsFromRegistrationUntilFirstStep) {
  QueryHealth health;
  Track(health, "q", /*now=*/2);
  EXPECT_EQ(Find(health.Snapshots(), "q").lag, 0);
  health.SetNow(5);
  const auto snapshot = Find(health.Snapshots(), "q");
  EXPECT_EQ(snapshot.last_completed_instant, -1);
  EXPECT_EQ(snapshot.lag, 3);
}

TEST(QueryHealthTest, HealthySteadyStateHasLagOne) {
  QueryHealth health;
  const auto q = Track(health, "q", 0);
  for (Timestamp t = 1; t <= 3; ++t) {
    health.SetNow(t);
    // During the tick, before this query's own step, lag is 1 ("stepped
    // last tick").
    if (t > 1) {
      EXPECT_EQ(Find(health.Snapshots(), "q").lag, 1);
    }
    q->RecordStep(t, /*ok=*/true, /*step_ns=*/1000, /*rows_in=*/4,
                  /*rows_out=*/2);
  }
  const auto snapshot = Find(health.Snapshots(), "q");
  EXPECT_EQ(snapshot.last_completed_instant, 3);
  EXPECT_EQ(snapshot.lag, 0);
  EXPECT_EQ(snapshot.steps, 3u);
  EXPECT_EQ(snapshot.rows_in, 12u);
  EXPECT_DOUBLE_EQ(snapshot.rows_in_rate, 4.0);
  EXPECT_DOUBLE_EQ(snapshot.rows_out_rate, 2.0);
}

TEST(QueryHealthTest, StalledQueryShowsGrowingLag) {
  QueryHealth health;
  const auto q = Track(health, "q", 0);
  health.SetNow(1);
  q->RecordStep(1, true, 1000, 0, 0);
  health.SetNow(4);  // Three ticks without a completed step.
  EXPECT_EQ(Find(health.Snapshots(), "q").lag, 3);
}

TEST(QueryHealthTest, ErrorStreakAccumulatesAndResets) {
  QueryHealth health;
  const auto q = Track(health, "q", 0);
  for (Timestamp t = 1; t <= 3; ++t) {
    health.SetNow(t);
    q->RecordStep(t, /*ok=*/false, 500, 0, 0);
  }
  auto snapshot = Find(health.Snapshots(), "q");
  EXPECT_EQ(snapshot.error_streak, 3u);
  EXPECT_EQ(snapshot.total_errors, 3u);
  EXPECT_EQ(snapshot.steps, 0u);
  EXPECT_EQ(snapshot.last_completed_instant, -1);

  health.SetNow(4);
  q->RecordStep(4, /*ok=*/true, 500, 1, 1);
  snapshot = Find(health.Snapshots(), "q");
  EXPECT_EQ(snapshot.error_streak, 0u);   // Reset by the success...
  EXPECT_EQ(snapshot.total_errors, 3u);   // ...but history is kept.
  EXPECT_EQ(snapshot.last_completed_instant, 4);
}

TEST(QueryHealthTest, StepLatencyPercentilesAreOrdered) {
  QueryHealth health;
  const auto q = Track(health, "q", 0);
  for (int i = 0; i < 100; ++i) {
    q->RecordStep(1, true, i < 99 ? 1000 : 1000000, 0, 0);
  }
  const auto snapshot = Find(health.Snapshots(), "q");
  EXPECT_GT(snapshot.p50_step_ns, 0u);
  EXPECT_GE(snapshot.p99_step_ns, snapshot.p50_step_ns);
}

TEST(QueryHealthTest, ReRegisteringResetsTheEntry) {
  QueryHealth health;
  const auto q = Track(health, "q", 0);
  q->RecordStep(1, false, 500, 0, 0);
  health.Register("q", q, 2);
  const auto snapshot = Find(health.Snapshots(), "q");
  EXPECT_EQ(snapshot.error_streak, 0u);
  EXPECT_EQ(snapshot.total_errors, 0u);
}

// ---------------------------------------------------------------------------
// Executor integration
// ---------------------------------------------------------------------------

TEST(QueryHealthExecutorTest, FailingQueryBuildsAStreakHealthyOneDoesNot) {
  Environment env;
  auto schema = ExtendedSchema::Create(
      "readings", {{"value", DataType::kInt}}, {});
  ASSERT_TRUE(schema.ok()) << schema.status();
  XRelation readings(*schema);
  readings.InsertUnchecked(Tuple{Value::Int(7)});
  ASSERT_TRUE(env.PutRelation(std::move(readings)).ok());

  StreamStore streams;
  ContinuousExecutor executor(&env, &streams);
  ASSERT_TRUE(
      executor.Register(MakeQuery("healthy", "select[value > 0](readings)"))
          .ok());
  // Scans a relation that does not exist: every step fails.
  ASSERT_TRUE(
      executor.Register(MakeQuery("doomed", "select[value > 0](nosuch)"))
          .ok());

  executor.Run(3);

  const auto snapshots = executor.health().Snapshots();
  const auto healthy = Find(snapshots, "healthy");
  EXPECT_EQ(healthy.error_streak, 0u);
  EXPECT_EQ(healthy.steps, 3u);
  EXPECT_EQ(healthy.last_completed_instant, 3);
  const auto doomed = Find(snapshots, "doomed");
  EXPECT_EQ(doomed.error_streak, 3u);
  EXPECT_EQ(doomed.total_errors, 3u);
  EXPECT_EQ(doomed.last_completed_instant, -1);
  EXPECT_EQ(doomed.lag, 3);
  EXPECT_EQ(executor.last_errors().count("doomed"), 1u);

  // Unregistration drops the health entry.
  ASSERT_TRUE(executor.Unregister("doomed").ok());
  EXPECT_EQ(executor.health().Snapshots().size(), 1u);
}

TEST(QueryHealthExecutorTest, RowsInCountsASharedLeafOnce) {
  obs::MetricsRegistry::Global().set_enabled(true);
  obs::StatsStore::Global().Clear();

  Environment env;
  StreamStore streams;
  ASSERT_TRUE(streams
                  .AddStream(ExtendedSchema::Create(
                                 "readings", {{"sensor", DataType::kString},
                                              {"value", DataType::kInt}})
                                 .ValueOrDie())
                  .ok());
  // One σ-over-window node reached through both union operands: its
  // window is the plan's only leaf, two paths below the root.
  const PlanPtr window = Window("readings", 3);
  const PlanPtr shared =
      Select(window, ParseFormula("value > 2").ValueOrDie());
  const PlanPtr plan = Project(
      UnionOf(shared, Select(shared, ParseFormula("value < 8").ValueOrDie())),
      {"sensor"});

  ContinuousExecutor executor(&env, &streams);
  executor.AddSource([&](Timestamp t) {
    XDRelation* stream = streams.GetStream("readings").ValueOrDie();
    for (int i = 0; i < 4; ++i) {
      SERENA_RETURN_NOT_OK(stream->Append(
          t, Tuple{Value::String("s" + std::to_string(i)),
                   Value::Int((t + i) % 10)}));
    }
    return Status::OK();
  });
  ASSERT_TRUE(
      executor.Register(std::make_shared<ContinuousQuery>("shared", plan))
          .ok());
  executor.Run(4);
  ASSERT_TRUE(executor.last_errors().empty());

  // Health rows-in is what the leaves emitted — the window's recorded
  // output over every evaluation — not that once per path to it.
  const std::optional<obs::OperatorStats> leaf =
      obs::StatsStore::Global().Find(obs::OperatorFingerprint(*window));
  ASSERT_TRUE(leaf.has_value());
  EXPECT_GT(leaf->rows_out, 0u);
  EXPECT_EQ(Find(executor.health().Snapshots(), "shared").rows_in,
            leaf->rows_out);
  obs::StatsStore::Global().Clear();
}

// ---------------------------------------------------------------------------
// Parity: every reader of the per-query runtime records sees the numbers
// the statistics of a fixed script work out to by hand.
// ---------------------------------------------------------------------------

/// A `readings` stream fed four rows per tick — sensors s0..s3 with values
/// (t + i) % 10 — read by `hot`, a σ over the stream's last instant, beside
/// `doomed`, which fails every step.
///
/// By hand, over ticks 1..4: each window holds the 4 rows of its instant
/// (16 rows in all); σ[value > 4] keeps 0, 1, 2 and 3 of them (6 in all).
struct ParityScript {
  ParityScript() : executor(&env, &streams) {
    EXPECT_TRUE(streams
                    .AddStream(ExtendedSchema::Create(
                                   "readings", {{"sensor", DataType::kString},
                                                {"value", DataType::kInt}})
                                   .ValueOrDie())
                    .ok());
    executor.AddSource([this](Timestamp t) {
      XDRelation* stream = streams.GetStream("readings").ValueOrDie();
      for (int i = 0; i < 4; ++i) {
        SERENA_RETURN_NOT_OK(stream->Append(
            t, Tuple{Value::String("s" + std::to_string(i)),
                     Value::Int((t + i) % 10)}));
      }
      return Status::OK();
    });
    EXPECT_TRUE(obs::RegisterMetaRelations(&env, &executor).ok());
    EXPECT_TRUE(executor.Register(MakeQuery("hot", kHot)).ok());
    EXPECT_TRUE(
        executor.Register(MakeQuery("doomed", "select[value > 0](nosuch)"))
            .ok());
  }

  static constexpr char kHot[] = "select[value > 4](window[1](readings))";

  Environment env;
  StreamStore streams;
  ContinuousExecutor executor;
};

/// The row of `relation` whose column 0 is `key`.
const Tuple* RowFor(const Environment& env, const std::string& relation,
                    const std::string& key) {
  for (const Tuple& row : (*env.GetRelation(relation))->tuples()) {
    if (row[0].string_value() == key) return &row;
  }
  ADD_FAILURE() << "no row " << key << " in " << relation;
  return nullptr;
}

TEST(QueryHealthParityTest, EveryReaderSeesTheHandComputedStatistics) {
  obs::MetricsRegistry::Global().set_enabled(true);
  obs::StatsStore& store = obs::StatsStore::Global();
  store.Clear();

  ParityScript script;
  script.executor.Run(4);
  const PlanPtr hot = (*script.executor.GetQuery("hot"))->plan();
  const std::string select = obs::OperatorFingerprint(*hot);
  const std::string window = obs::OperatorFingerprint(*hot->children()[0]);

  // The statistics store.
  const std::optional<obs::OperatorStats> select_stats = store.Find(select);
  ASSERT_TRUE(select_stats.has_value());
  EXPECT_EQ(select_stats->evals, 4u);
  EXPECT_EQ(select_stats->rows_in, 16u);
  EXPECT_EQ(select_stats->rows_out, 6u);
  EXPECT_EQ(select_stats->errors, 0u);
  const std::optional<obs::OperatorStats> window_stats = store.Find(window);
  ASSERT_TRUE(window_stats.has_value());
  EXPECT_EQ(window_stats->evals, 4u);
  EXPECT_EQ(window_stats->rows_in, 0u);
  EXPECT_EQ(window_stats->rows_out, 16u);
  // The failing scan: evaluated every step, an error every time.
  const PlanPtr doomed = (*script.executor.GetQuery("doomed"))->plan();
  const std::optional<obs::OperatorStats> scan_stats =
      store.Find(obs::OperatorFingerprint(*doomed->children()[0]));
  ASSERT_TRUE(scan_stats.has_value());
  EXPECT_EQ(scan_stats->evals, 4u);
  EXPECT_EQ(scan_stats->errors, 4u);
  EXPECT_EQ(scan_stats->rows_out, 0u);

  // sys_operator_stats(fingerprint, op_kind, label, prototype, evals,
  // rows_in, rows_out, wall_ns, invocations, memo_hits, errors,
  // selectivity, memo_hit_rate).
  ASSERT_TRUE(obs::RefreshMetaRelations(&script.env, &script.executor.health())
                  .ok());
  const Tuple* select_row =
      RowFor(script.env, obs::kSysOperatorStatsRelation, select);
  ASSERT_NE(select_row, nullptr);
  EXPECT_EQ((*select_row)[1].string_value(), "select");
  EXPECT_EQ((*select_row)[4].int_value(), 4);
  EXPECT_EQ((*select_row)[5].int_value(), 16);
  EXPECT_EQ((*select_row)[6].int_value(), 6);
  EXPECT_EQ((*select_row)[10].int_value(), 0);
  EXPECT_DOUBLE_EQ((*select_row)[11].real_value(), 0.375);
  const Tuple* window_row =
      RowFor(script.env, obs::kSysOperatorStatsRelation, window);
  ASSERT_NE(window_row, nullptr);
  EXPECT_EQ((*window_row)[6].int_value(), 16);
  EXPECT_DOUBLE_EQ((*window_row)[11].real_value(), 1.0);

  // sys_query_health(name, last_instant, lag, streak, errors, steps,
  // p50_step_ns, p99_step_ns, rows_in_rate, rows_out_rate), by name.
  const auto health = script.env.GetRelation(kSysQueryHealthRelation);
  ASSERT_EQ((*health)->size(), 2u);
  EXPECT_EQ((*health)->tuples()[0][0].string_value(), "doomed");
  EXPECT_EQ((*health)->tuples()[1][0].string_value(), "hot");
  const Tuple& hot_row = (*health)->tuples()[1];
  EXPECT_EQ(hot_row[1].int_value(), 4);  // Stepped at the last tick...
  EXPECT_EQ(hot_row[2].int_value(), 0);  // ...so it is not behind.
  EXPECT_EQ(hot_row[3].int_value(), 0);
  EXPECT_EQ(hot_row[4].int_value(), 0);
  EXPECT_EQ(hot_row[5].int_value(), 4);
  EXPECT_GT(hot_row[6].int_value(), 0);
  EXPECT_GE(hot_row[7].int_value(), hot_row[6].int_value());
  EXPECT_DOUBLE_EQ(hot_row[8].real_value(), 4.0);   // 16 rows / 4 steps.
  EXPECT_DOUBLE_EQ(hot_row[9].real_value(), 1.5);   // 6 rows / 4 steps.
  const Tuple& doomed_row = (*health)->tuples()[0];
  EXPECT_EQ(doomed_row[1].int_value(), -1);
  EXPECT_EQ(doomed_row[2].int_value(), 4);  // Behind since registration.
  EXPECT_EQ(doomed_row[3].int_value(), 4);
  EXPECT_EQ(doomed_row[4].int_value(), 4);
  EXPECT_EQ(doomed_row[5].int_value(), 0);
  EXPECT_DOUBLE_EQ(doomed_row[8].real_value(), 0.0);

  // EXPLAIN ANALYZE of the standing query's plan, at instant 4: this
  // evaluation's actuals (window 4 rows, σ keeps 3: values 5, 6, 7) and
  // the store's observations including it (5 evals; σ 9 of 20 rows).
  const std::string out =
      ExplainAnalyzePlan(hot, &script.env, &script.streams);
  std::string select_line;
  std::string window_line;
  for (std::size_t begin = 0, end; begin < out.size(); begin = end + 1) {
    end = out.find('\n', begin);
    if (end == std::string::npos) end = out.size();
    const std::string line = out.substr(begin, end - begin);
    if (line.rfind("select[value > 4]", 0) == 0) select_line = line;
    if (line.find("window[1](readings)") != std::string::npos) {
      window_line = line;
    }
  }
  EXPECT_NE(select_line.find("(actual rows=3 "), std::string::npos) << out;
  EXPECT_NE(select_line.find("(observed: evals=5 rows/eval=1.8 sel=0.450 "),
            std::string::npos)
      << out;
  EXPECT_NE(window_line.find("(actual rows=4 "), std::string::npos) << out;
  EXPECT_NE(window_line.find("(observed: evals=5 rows/eval=4.0 sel=1.000 "),
            std::string::npos)
      << out;
  store.Clear();
}

TEST(QueryHealthParityTest, HealthMatchesWithMetricsOnAndOff) {
  std::vector<QueryHealth::QuerySnapshot> runs[2];
  for (const bool metrics : {true, false}) {
    obs::MetricsRegistry::Global().set_enabled(metrics);
    ParityScript script;
    script.executor.Run(4);
    runs[metrics ? 0 : 1] = script.executor.health().Snapshots();
  }
  obs::MetricsRegistry::Global().set_enabled(true);

  ASSERT_EQ(runs[0].size(), 2u);
  ASSERT_EQ(runs[1].size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    const QueryHealth::QuerySnapshot& on = runs[0][i];
    const QueryHealth::QuerySnapshot& off = runs[1][i];
    EXPECT_EQ(on.name, off.name);
    EXPECT_EQ(on.last_completed_instant, off.last_completed_instant);
    EXPECT_EQ(on.lag, off.lag);
    EXPECT_EQ(on.error_streak, off.error_streak);
    EXPECT_EQ(on.total_errors, off.total_errors);
    EXPECT_EQ(on.steps, off.steps);
    EXPECT_EQ(on.rows_in, off.rows_in) << on.name;
    EXPECT_EQ(on.rows_out, off.rows_out) << on.name;
    EXPECT_DOUBLE_EQ(on.rows_in_rate, off.rows_in_rate);
    EXPECT_DOUBLE_EQ(on.rows_out_rate, off.rows_out_rate);
    // Step latency is recorded either way.
    EXPECT_GT(off.p50_step_ns, 0u);
  }
  // By hand: the hot query's leaves emitted 16 rows and it emitted 6.
  EXPECT_EQ(Find(runs[1], "hot").rows_in, 16u);
  EXPECT_EQ(Find(runs[1], "hot").rows_out, 6u);
}

// ---------------------------------------------------------------------------
// Meta-relations: the PEMS observing itself
// ---------------------------------------------------------------------------

TEST(MetaRelationsTest, RegisterCreatesAllThreeRelations) {
  Environment env;
  StreamStore streams;
  ContinuousExecutor executor(&env, &streams);
  ASSERT_TRUE(obs::RegisterMetaRelations(&env, &executor).ok());
  EXPECT_TRUE(env.GetRelation(kSysMetricsRelation).ok());
  EXPECT_TRUE(env.GetRelation(kSysSpansRelation).ok());
  EXPECT_TRUE(env.GetRelation(kSysQueryHealthRelation).ok());
  // Registering twice is harmless (relations already exist).
  EXPECT_TRUE(obs::RegisterMetaRelations(&env, &executor).ok());
}

TEST(MetaRelationsTest, RefreshPopulatesMetricsAndHealthRows) {
  obs::MetricsRegistry::Global().set_enabled(true);
  obs::MetricsRegistry::Global()
      .GetCounter("serena.test.meta_refresh")
      .Increment();

  Environment env;
  StreamStore streams;
  ContinuousExecutor executor(&env, &streams);
  ASSERT_TRUE(obs::RegisterMetaRelations(&env, &executor).ok());

  QueryHealth health;
  const auto watched = Track(health, "watched", 0);
  health.SetNow(2);
  watched->RecordStep(2, false, 1000, 0, 0);
  ASSERT_TRUE(obs::RefreshMetaRelations(&env, &health).ok());

  const auto metrics = env.GetRelation(kSysMetricsRelation);
  ASSERT_TRUE(metrics.ok());
  EXPECT_GT((*metrics)->size(), 0u);
  bool saw_counter = false;
  for (const Tuple& row : (*metrics)->tuples()) {
    if (row[0].string_value() == "serena.test.meta_refresh") {
      saw_counter = true;
      EXPECT_EQ(row[1].string_value(), "counter");
      EXPECT_GE(row[2].real_value(), 1.0);
    }
  }
  EXPECT_TRUE(saw_counter);

  // sys_query_health(name, last_instant, lag, streak, ...).
  const auto rows = env.GetRelation(kSysQueryHealthRelation);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ((*rows)->size(), 1u);
  const Tuple& row = (*rows)->tuples()[0];
  EXPECT_EQ(row[0].string_value(), "watched");
  EXPECT_EQ(row[1].int_value(), -1);  // Never completed.
  EXPECT_EQ(row[2].int_value(), 2);   // Lag from registration.
  EXPECT_EQ(row[3].int_value(), 1);   // One failed step.
}

TEST(MetaRelationsTest, HealthRowsRewrittenInPlaceEqualAFreshRebuild) {
  Environment env;
  StreamStore streams;
  ContinuousExecutor executor(&env, &streams);
  ASSERT_TRUE(obs::RegisterMetaRelations(&env, &executor).ok());
  XRelation items(ExtendedSchema::Create("items", {{"n", DataType::kInt}})
                      .ValueOrDie());
  for (int i = 0; i < 4; ++i) items.InsertUnchecked(Tuple{Value::Int(i)});
  ASSERT_TRUE(env.PutRelation(std::move(items)).ok());
  const auto add = [&executor](const std::string& name, PlanPtr plan) {
    ASSERT_TRUE(executor
                    .Register(std::make_shared<ContinuousQuery>(
                        name, std::move(plan)))
                    .ok());
  };
  add("all", Scan("items"));
  add("broken", Scan("missing"));  // Fails at every step.

  // What a refresh into an empty `sys_query_health` builds.
  const auto rebuilt = [&executor] {
    Environment fresh;
    StreamStore fresh_streams;
    ContinuousExecutor unused(&fresh, &fresh_streams);
    EXPECT_TRUE(obs::RegisterMetaRelations(&fresh, &unused).ok());
    EXPECT_TRUE(obs::RefreshMetaRelations(&fresh, &executor.health(),
                                          {kSysQueryHealthRelation})
                    .ok());
    std::vector<std::string> rows;
    for (const Tuple& row :
         fresh.GetRelation(kSysQueryHealthRelation).ValueOrDie()->tuples()) {
      rows.push_back(row.ToString());
    }
    return rows;
  };
  // Ticks, refreshes and compares; returns the rows' storage address.
  const auto tick = [&] {
    executor.Tick();
    EXPECT_TRUE(obs::RefreshMetaRelations(&env, &executor.health(),
                                          {kSysQueryHealthRelation})
                    .ok());
    const XRelation* relation =
        env.GetRelation(kSysQueryHealthRelation).ValueOrDie();
    std::vector<std::string> rows;
    for (const Tuple& row : relation->tuples()) {
      rows.push_back(row.ToString());
      // The rewritten rows are re-indexed.
      EXPECT_TRUE(relation->Contains(row)) << row.ToString();
    }
    EXPECT_EQ(rows, rebuilt()) << "t=" << executor.total_ticks();
    return relation->tuples().data();
  };

  tick();
  const Tuple* storage = tick();
  EXPECT_EQ(tick(), storage);  // Same queries: rewritten in place.
  add("few", Select(Scan("items"), Formula::Compare(Operand::Attr("n"),
                                                    CompareOp::kLt,
                                                    Operand::Const(
                                                        Value::Int(2)))));
  tick();  // Rebuilt with the new query's row.
  storage = tick();
  EXPECT_EQ(tick(), storage);
  ASSERT_TRUE(executor.Unregister("all").ok());
  tick();  // Rebuilt without it.
  storage = tick();
  EXPECT_EQ(tick(), storage);
  ASSERT_TRUE(executor.Unregister("broken").ok());
  ASSERT_TRUE(executor.Unregister("few").ok());
  tick();
  EXPECT_EQ(env.GetRelation(kSysQueryHealthRelation).ValueOrDie()->size(), 0u);
}

TEST(MetaRelationsTest, TickLeavesUnreadMetaRelationsAlone) {
  obs::MetricsRegistry::Global().set_enabled(true);
  obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("serena.test.unread");
  counter.Increment();

  Environment env;
  auto schema = ExtendedSchema::Create(
      "readings", {{"level", DataType::kInt}}, {});
  ASSERT_TRUE(schema.ok()) << schema.status();
  ASSERT_TRUE(env.PutRelation(XRelation(*schema)).ok());
  StreamStore streams;
  ContinuousExecutor executor(&env, &streams);
  ASSERT_TRUE(obs::RegisterMetaRelations(&env, &executor).ok());
  // Registration fills every meta-relation once.
  const double registered = MetricRow(env, "serena.test.unread");
  EXPECT_EQ(registered, static_cast<double>(counter.value()));

  // The only standing query reads an ordinary relation.
  ASSERT_TRUE(
      executor.Register(MakeQuery("plain", "select[level > 0](readings)"))
          .ok());
  counter.Increment();
  executor.Run(2);

  // Neither sys_metrics nor sys_query_health was rebuilt by the ticks.
  EXPECT_EQ(MetricRow(env, "serena.test.unread"), registered);
  EXPECT_EQ((*env.GetRelation(kSysQueryHealthRelation))->size(), 0u);
}

TEST(MetaRelationsTest, StandingQueryOverSysMetricsRefreshesItEveryTick) {
  obs::MetricsRegistry::Global().set_enabled(true);
  obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("serena.test.watched");

  Environment env;
  StreamStore streams;
  ContinuousExecutor executor(&env, &streams);
  ASSERT_TRUE(obs::RegisterMetaRelations(&env, &executor).ok());
  auto watcher = MakeQuery(
      "watcher", "select[metric = 'serena.test.watched'](sys_metrics)");
  std::vector<double> seen;
  watcher->set_sink([&](Timestamp, const XRelation& result) {
    for (const Tuple& row : result.tuples()) seen.push_back(row[2].real_value());
  });
  ASSERT_TRUE(executor.Register(std::move(watcher)).ok());

  for (int i = 0; i < 3; ++i) {
    counter.Increment();
    executor.Tick();
    // The tick-start snapshot already holds this increment.
    EXPECT_EQ(MetricRow(env, "serena.test.watched"),
              static_cast<double>(counter.value()));
  }
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen.back(), static_cast<double>(counter.value()));

  // Once nothing scans sys_metrics, ticks stop rebuilding it.
  ASSERT_TRUE(executor.Unregister("watcher").ok());
  const double last = MetricRow(env, "serena.test.watched");
  counter.Increment();
  executor.Run(2);
  EXPECT_EQ(MetricRow(env, "serena.test.watched"), last);
}

TEST(MetaRelationsTest, OneShotSeesCounterIncrementedAfterLastTick) {
  obs::MetricsRegistry::Global().set_enabled(true);
  obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("serena.test.oneshot");
  auto pems = Pems::Create().MoveValueOrDie();
  ASSERT_TRUE(obs::RegisterMetaRelations(&pems->env(),
                                         &pems->queries().executor())
                  .ok());
  const std::string query =
      "select[metric = 'serena.test.oneshot'](sys_metrics)";
  ASSERT_TRUE(pems->queries().Prepare("counter", query).ok());

  pems->Tick();
  counter.Increment();
  auto result = pems->queries().ExecuteOneShot(query);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->relation.size(), 1u);
  EXPECT_EQ(result->relation.tuples()[0][2].real_value(),
            static_cast<double>(counter.value()));

  // Prepared one-shots refresh the same way.
  counter.Increment();
  auto prepared = pems->queries().ExecutePrepared("counter", {});
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  ASSERT_EQ(prepared->relation.size(), 1u);
  EXPECT_EQ(prepared->relation.tuples()[0][2].real_value(),
            static_cast<double>(counter.value()));
}

/// The acceptance scenario: a meta-query
/// `select[streak >= 3](sys_query_health)` registered as an ordinary
/// continuous query must surface a failing query within 2 ticks of its
/// error streak reaching 3.
TEST(MetaRelationsTest, StandingMetaQueryDetectsFailingQueryWithinTwoTicks) {
  Environment env;
  StreamStore streams;
  ContinuousExecutor executor(&env, &streams);
  ASSERT_TRUE(obs::RegisterMetaRelations(&env, &executor).ok());

  // The patient: fails every tick (scan of a nonexistent relation).
  ASSERT_TRUE(
      executor.Register(MakeQuery("doomed", "select[value > 0](nosuch)"))
          .ok());

  // The watchdog: plain Serena algebra over the health meta-relation.
  auto watchdog = MakeQuery("watchdog", "select[streak >= 3](sys_query_health)");
  Timestamp first_detection = -1;
  std::vector<std::string> detected;
  watchdog->set_sink([&](Timestamp t, const XRelation& result) {
    for (const Tuple& row : result.tuples()) {
      if (row[0].string_value() == "doomed" && first_detection < 0) {
        first_detection = t;
        detected.push_back(row[0].string_value());
      }
    }
  });
  ASSERT_TRUE(executor.Register(std::move(watchdog)).ok());

  // "doomed" reaches streak 3 at the end of tick 3; the meta source
  // republishes sys_query_health at the start of tick 4, where the
  // watchdog must fire.
  executor.Run(6);

  EXPECT_EQ(Find(executor.health().Snapshots(), "doomed").error_streak, 6u);
  ASSERT_GE(first_detection, 0) << "watchdog never fired";
  EXPECT_LE(first_detection, 5) << "detection later than streak+2 ticks";
  EXPECT_EQ(first_detection, 4);
  EXPECT_EQ(detected, std::vector<std::string>{"doomed"});
}

}  // namespace
}  // namespace serena
