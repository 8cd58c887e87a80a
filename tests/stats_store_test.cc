// Tests for the runtime statistics store: fingerprint stability across
// plan instances, RecordPlan aggregation (including the rows_in
// derivation from children), the JSON persistence roundtrip into the
// baseline map, Clear() semantics, standing queries recording through
// fingerprints computed once per plan, the store's lifecycle beside live
// per-query records (Clear, baselines, aliases, unregistration), steps
// publishing on a pool beside concurrent readers, and the per-kind
// `serena.op.*` counters agreeing with the store they are fed from.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "algebra/plan.h"
#include "algebra/vectorized.h"
#include "ddl/algebra_parser.h"
#include "obs/metrics.h"
#include "common/thread_pool.h"
#include "obs/stats.h"
#include "stream/executor.h"

namespace serena {
namespace obs {
namespace {

PlanPtr MustParse(const std::string& text) {
  return ParseAlgebra(text).ValueOrDie();
}

class StatsStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // A set SERENA_STATS_FILE would make local stores load a baseline
    // (and MaybeSaveEnvFile write one) behind the test's back.
    unsetenv("SERENA_STATS_FILE");
  }
};

TEST_F(StatsStoreTest, FingerprintStableAcrossPlanInstances) {
  const std::string text = "select[temperature > 30](window[5](readings))";
  const PlanPtr a = MustParse(text);
  const PlanPtr b = MustParse(text);
  ASSERT_NE(a.get(), b.get());
  EXPECT_EQ(OperatorFingerprint(*a), OperatorFingerprint(*b));
  EXPECT_EQ(OperatorFingerprint(*a).size(), 16u);
  // Children fingerprint independently of their parents.
  EXPECT_EQ(OperatorFingerprint(*a->children()[0]),
            OperatorFingerprint(*b->children()[0]));
}

TEST_F(StatsStoreTest, FingerprintDistinguishesStructure) {
  const PlanPtr narrow = MustParse("select[temperature > 30](readings)");
  const PlanPtr wide = MustParse("select[temperature > 20](readings)");
  const PlanPtr windowed =
      MustParse("select[temperature > 30](window[5](readings))");
  EXPECT_NE(OperatorFingerprint(*narrow), OperatorFingerprint(*wide));
  EXPECT_NE(OperatorFingerprint(*narrow), OperatorFingerprint(*windowed));
  // The same selection over a different input is a different operator.
  EXPECT_NE(OperatorFingerprint(*narrow),
            OperatorFingerprint(*windowed->children()[0]));
}

TEST_F(StatsStoreTest, RecordPlanAggregatesAndDerivesRowsIn) {
  const PlanPtr plan = MustParse("select[temperature > 30](readings)");
  const PlanNode* select = plan.get();
  const PlanNode* scan = plan->children()[0].get();

  StatsStore store;
  PlanStats collector(*plan);
  NodeRuntimeStats& scan_stats = *collector.Find(scan);
  scan_stats.evals = 1;
  scan_stats.rows_out = 10;
  scan_stats.wall_ns = 500;
  NodeRuntimeStats& select_stats = *collector.Find(select);
  select_stats.evals = 1;
  select_stats.rows_out = 4;
  select_stats.wall_ns = 1200;
  store.RecordPlan(collector);

  ASSERT_EQ(store.size(), 2u);
  const std::optional<OperatorStats> sel =
      store.Find(OperatorFingerprint(*select));
  ASSERT_TRUE(sel.has_value());
  EXPECT_EQ(sel->kind, "select");
  EXPECT_EQ(sel->evals, 1u);
  // rows_in is derived from the child's output, not stored directly.
  EXPECT_EQ(sel->rows_in, 10u);
  EXPECT_EQ(sel->rows_out, 4u);
  EXPECT_EQ(sel->wall_ns, 1200u);
  EXPECT_DOUBLE_EQ(sel->selectivity(), 0.4);

  const std::optional<OperatorStats> leaf =
      store.Find(OperatorFingerprint(*scan));
  ASSERT_TRUE(leaf.has_value());
  EXPECT_EQ(leaf->rows_in, 0u);
  // A leaf has no relational input: neutral selectivity prior.
  EXPECT_DOUBLE_EQ(leaf->selectivity(), 1.0);

  // A second evaluation of a structurally identical plan instance
  // accumulates into the same records.
  const PlanPtr again = MustParse("select[temperature > 30](readings)");
  PlanStats second(*again);
  second.Find(again->children()[0].get())->rows_out = 6;
  second.Find(again->children()[0].get())->evals = 1;
  NodeRuntimeStats& top = *second.Find(again.get());
  top.evals = 1;
  top.rows_out = 2;
  store.RecordPlan(second);

  EXPECT_EQ(store.size(), 2u);
  const std::optional<OperatorStats> merged =
      store.Find(OperatorFingerprint(*select));
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(merged->evals, 2u);
  EXPECT_EQ(merged->rows_in, 16u);
  EXPECT_EQ(merged->rows_out, 6u);
  EXPECT_DOUBLE_EQ(merged->mean_rows_out(), 3.0);
}

TEST_F(StatsStoreTest, SnapshotOrdersByWallTime) {
  const PlanPtr plan = MustParse("select[n > 1](window[2](s))");
  StatsStore store;
  PlanStats collector(*plan);
  collector.Find(plan.get())->wall_ns = 100;
  collector.Find(plan.get())->evals = 1;
  collector.Find(plan->children()[0].get())->wall_ns = 900;
  collector.Find(plan->children()[0].get())->evals = 1;
  store.RecordPlan(collector);

  const std::vector<OperatorStats> snapshot = store.Snapshot();
  ASSERT_GE(snapshot.size(), 2u);
  EXPECT_GE(snapshot[0].wall_ns, snapshot[1].wall_ns);
  EXPECT_EQ(snapshot[0].kind, "window");
}

TEST_F(StatsStoreTest, JsonRoundtripIntoBaseline) {
  const PlanPtr plan = MustParse("select[temperature > 30](readings)");
  StatsStore store;
  PlanStats collector(*plan);
  collector.Find(plan->children()[0].get())->rows_out = 8;
  collector.Find(plan->children()[0].get())->evals = 1;
  NodeRuntimeStats& top = *collector.Find(plan.get());
  top.evals = 3;
  top.rows_out = 5;
  top.wall_ns = 777;
  top.invocations = 4;
  top.memo_hits = 2;
  store.RecordPlan(collector);

  const std::string json = store.ToJson();
  EXPECT_NE(json.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(json.find("\"operators\""), std::string::npos);

  StatsStore fresh;
  EXPECT_FALSE(fresh.has_baseline());
  ASSERT_TRUE(fresh.LoadBaselineFromJson(json).ok());
  EXPECT_TRUE(fresh.has_baseline());
  const std::optional<OperatorStats> base =
      fresh.FindBaseline(OperatorFingerprint(*plan));
  ASSERT_TRUE(base.has_value());
  EXPECT_EQ(base->evals, 3u);
  EXPECT_EQ(base->rows_in, 8u);
  EXPECT_EQ(base->rows_out, 5u);
  EXPECT_EQ(base->wall_ns, 777u);
  EXPECT_EQ(base->invocations, 4u);
  EXPECT_EQ(base->memo_hits, 2u);
  EXPECT_DOUBLE_EQ(base->memo_hit_rate(), 0.5);
  // The baseline does not populate live records.
  EXPECT_EQ(fresh.size(), 0u);
  EXPECT_FALSE(fresh.Find(OperatorFingerprint(*plan)).has_value());
}

TEST_F(StatsStoreTest, ClearDropsLiveRecordsButKeepsBaseline) {
  const PlanPtr plan = MustParse("window[3](s)");
  StatsStore store;
  PlanStats collector(*plan);
  collector.Find(plan.get())->evals = 1;
  collector.Find(plan.get())->rows_out = 9;
  store.RecordPlan(collector);
  ASSERT_TRUE(store.LoadBaselineFromJson(store.ToJson()).ok());

  store.Clear();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_TRUE(store.has_baseline());
  EXPECT_TRUE(store.FindBaseline(OperatorFingerprint(*plan)).has_value());
}

TEST_F(StatsStoreTest, LoadBaselineRejectsMalformedJson) {
  StatsStore store;
  EXPECT_FALSE(store.LoadBaselineFromJson("not json").ok());
  EXPECT_FALSE(store.LoadBaselineFromJson("[1,2,3]").ok());
  EXPECT_FALSE(store.has_baseline());
}

/// What recording `collector` renders and hashes from scratch — the
/// per-step work recording did before fingerprints were precomputed:
/// every distinct node with evaluations, keyed by `OperatorFingerprint`.
std::map<std::string, OperatorStats> RecomputeFromScratch(
    const PlanPtr& root, const PlanStats& collector) {
  std::map<std::string, OperatorStats> expected;
  std::set<const PlanNode*> seen;
  std::function<void(const PlanPtr&)> visit = [&](const PlanPtr& node) {
    if (!seen.insert(node.get()).second) return;
    std::uint64_t rows_in = 0;
    for (const PlanPtr& child : node->children()) {
      if (const NodeRuntimeStats* stats = collector.Find(child.get())) {
        rows_in += stats->rows_out;
      }
      visit(child);
    }
    const NodeRuntimeStats* stats = collector.Find(node.get());
    if (stats == nullptr || stats->evals == 0) return;
    OperatorStats& op = expected[OperatorFingerprint(*node)];
    op.kind = PlanKindToString(node->kind());
    op.label = node->ToString();
    op.evals += stats->evals;
    op.rows_in += rows_in;
    op.rows_out += stats->rows_out;
    op.invocations += stats->invocations;
    op.memo_hits += stats->memo_hits;
    op.errors += stats->errors;
    op.batches += stats->batches;
  };
  visit(root);
  return expected;
}

/// A standing query over a `readings` stream that a source fills with
/// four rows per tick, appended directly so every evaluation in a run is
/// one of the query's recorded steps. `shared` (a σ over a window) is one
/// node object reached through both union operands: evaluated twice per
/// step, recorded as one operator.
struct SharedSubtreeQuery {
  SharedSubtreeQuery() : executor(&env, &streams) {
    EXPECT_TRUE(streams
                    .AddStream(ExtendedSchema::Create(
                                   "readings", {{"sensor", DataType::kString},
                                                {"value", DataType::kInt}})
                                   .ValueOrDie())
                    .ok());
    const PlanPtr upper = MustParse("select[value < 8](readings)");
    plan = Project(
        UnionOf(shared, Select(shared, static_cast<const SelectNode&>(*upper)
                                           .formula())),
        {"sensor"});
    executor.AddSource([this](Timestamp t) {
      XDRelation* stream = streams.GetStream("readings").ValueOrDie();
      for (int i = 0; i < 4; ++i) {
        SERENA_RETURN_NOT_OK(stream->Append(
            t, Tuple{Value::String("s" + std::to_string(i)),
                     Value::Int((t + i) % 10)}));
      }
      return Status::OK();
    });
    query = std::make_shared<ContinuousQuery>("q", plan);
  }

  Environment env;
  StreamStore streams;
  ContinuousExecutor executor;
  PlanPtr shared = MustParse("select[value > 2](window[3](readings))");
  PlanPtr plan;
  ContinuousQueryPtr query;
};

TEST_F(StatsStoreTest, StandingQueryRecordsThroughFingerprintsComputedOnce) {
  MetricsRegistry::Global().set_enabled(true);
  StatsStore::Global().Clear();

  SharedSubtreeQuery q;
  // The plan holds no stateful operator (invoke, streaming), so evaluating
  // it again at each step's instant reproduces the actuals that step
  // recorded — an independent reference collector, accumulated over steps.
  PlanStats reference(*q.plan);
  q.query->set_sink([&](Timestamp t, const XRelation&) {
    EvalContext ctx;
    ctx.env = &q.env;
    ctx.streams = &q.streams;
    ctx.instant = t;
    ctx.stats = &reference;
    EXPECT_TRUE(q.plan->Evaluate(ctx).ok());
  });
  ASSERT_TRUE(q.executor.Register(q.query).ok());
  constexpr int kTicks = 6;
  q.executor.Run(kTicks);
  ASSERT_TRUE(q.executor.last_errors().empty());

  // Every field is a sum over steps, so recomputing once from the
  // reference accumulated over all steps equals recomputing at every step.
  const std::map<std::string, OperatorStats> expected =
      RecomputeFromScratch(q.plan, reference);
  const std::vector<OperatorStats> snapshot = StatsStore::Global().Snapshot();
  ASSERT_EQ(snapshot.size(), expected.size());
  for (const OperatorStats& op : snapshot) {
    const auto it = expected.find(op.fingerprint);
    ASSERT_NE(it, expected.end()) << op.label;
    EXPECT_EQ(op.kind, it->second.kind);
    EXPECT_EQ(op.label, it->second.label);
    EXPECT_EQ(op.evals, it->second.evals) << op.label;
    EXPECT_EQ(op.rows_in, it->second.rows_in) << op.label;
    EXPECT_EQ(op.rows_out, it->second.rows_out) << op.label;
    EXPECT_EQ(op.invocations, it->second.invocations) << op.label;
    EXPECT_EQ(op.memo_hits, it->second.memo_hits) << op.label;
    EXPECT_EQ(op.errors, it->second.errors) << op.label;
    EXPECT_EQ(op.batches, it->second.batches) << op.label;
  }
  // The shared σ merged once per step, not once per path to it.
  const std::optional<OperatorStats> shared_stats =
      StatsStore::Global().Find(OperatorFingerprint(*q.shared));
  ASSERT_TRUE(shared_stats.has_value());
  EXPECT_EQ(shared_stats->evals, 2u * kTicks);
  StatsStore::Global().Clear();
}

TEST_F(StatsStoreTest, ClearWhileAStandingQueryTicksKeepsItsSlots) {
  MetricsRegistry::Global().set_enabled(true);
  StatsStore& store = StatsStore::Global();
  store.Clear();

  SharedSubtreeQuery q;
  ASSERT_TRUE(q.executor.Register(q.query).ok());
  q.executor.Run(3);
  const std::string shared = OperatorFingerprint(*q.shared);
  const std::string root = OperatorFingerprint(*q.plan);
  // Two paths reach the shared σ: two evals per step.
  ASSERT_EQ(store.Find(shared)->evals, 6u);

  // Loading a baseline leaves the live records alone.
  ASSERT_TRUE(store.LoadBaselineFromJson(store.ToJson()).ok());
  EXPECT_EQ(store.Find(shared)->evals, 6u);
  EXPECT_EQ(store.FindBaseline(shared)->evals, 6u);

  // Clear drops what was recorded, baseline and aliases aside; the
  // query keeps publishing into the same slots and counts from zero.
  store.AddFingerprintAlias("00000000000000aa", shared);
  store.Clear();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_FALSE(store.Find(shared).has_value());
  EXPECT_EQ(store.alias_count(), 0u);
  EXPECT_EQ(store.FindBaseline(shared)->evals, 6u);
  q.executor.Run(2);
  ASSERT_TRUE(q.executor.last_errors().empty());
  EXPECT_EQ(store.Find(shared)->evals, 4u);
  EXPECT_EQ(store.Find(root)->evals, 2u);
  // An alias resolves to the live record.
  store.AddFingerprintAlias("00000000000000aa", shared);
  EXPECT_EQ(store.Find("00000000000000aa")->evals, 4u);

  // Unregistering keeps what the query published; once no plan holds
  // its slots, Clear deletes them, and a new query starts afresh.
  const std::size_t live = store.size();
  ASSERT_TRUE(q.executor.Unregister("q").ok());
  q.query.reset();
  EXPECT_EQ(store.size(), live);
  EXPECT_EQ(store.Find(shared)->evals, 4u);
  store.Clear();
  EXPECT_EQ(store.size(), 0u);
  ASSERT_TRUE(q.executor
                  .Register(std::make_shared<ContinuousQuery>("again", q.plan))
                  .ok());
  q.executor.Run(1);
  EXPECT_EQ(store.Find(shared)->evals, 2u);
  EXPECT_EQ(store.Find(root)->evals, 1u);
  store.Clear();
}

// Steps publishing on four pool threads while another thread reads the
// store and the health records: every read is consistent enough to use
// (no torn pointer, no lost update), and once the ticks end every count
// is exact. Run under TSan in CI.
TEST_F(StatsStoreTest, ParallelTicksBesideConcurrentReaders) {
  MetricsRegistry::Global().set_enabled(true);
  StatsStore& store = StatsStore::Global();
  store.Clear();

  SharedSubtreeQuery q;
  ThreadPool pool(4);
  q.executor.set_pool(&pool);
  constexpr int kQueries = 48;
  for (int i = 0; i < kQueries; ++i) {
    ASSERT_TRUE(q.executor
                    .Register(std::make_shared<ContinuousQuery>(
                        "q" + std::to_string(i),
                        MustParse("select[value > " + std::to_string(i % 6) +
                                  "](window[" + std::to_string(1 + i % 2) +
                                  "](readings))")))
                    .ok());
  }

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> reads{0};
  std::thread reader([&] {
    const std::string window =
        OperatorFingerprint(*MustParse("window[1](readings)"));
    while (!done.load()) {
      for (const OperatorStats& op : store.Snapshot()) {
        EXPECT_GT(op.evals, 0u);
      }
      (void)store.Find(window);
      (void)store.size();
      (void)store.ToJson();
      for (const QueryHealth::QuerySnapshot& health :
           q.executor.health().Snapshots()) {
        EXPECT_LE(health.steps, 10u);
      }
      ++reads;
    }
  });
  // Tick once the reader is under way.
  while (reads.load() == 0) std::this_thread::yield();
  constexpr int kTicks = 10;
  q.executor.Run(kTicks);
  done.store(true);
  reader.join();
  EXPECT_GT(reads, 0u);

  ASSERT_TRUE(q.executor.last_errors().empty());
  // Six distinct plans (the window follows the threshold's parity), each
  // shared by eight queries: 8 evals per tick.
  for (int i = 0; i < 6; ++i) {
    const PlanPtr plan =
        MustParse("select[value > " + std::to_string(i % 6) + "](window[" +
                  std::to_string(1 + i % 2) + "](readings))");
    const std::optional<OperatorStats> op =
        store.Find(OperatorFingerprint(*plan));
    ASSERT_TRUE(op.has_value()) << plan->ToString();
    EXPECT_EQ(op->evals, 8u * kTicks) << plan->ToString();
  }
  for (const QueryHealth::QuerySnapshot& health :
       q.executor.health().Snapshots()) {
    EXPECT_EQ(health.steps, static_cast<std::uint64_t>(kTicks))
        << health.name;
    EXPECT_EQ(health.error_streak, 0u);
  }
  store.Clear();
}

class VecModeGuard {
 public:
  explicit VecModeGuard(bool enabled) { vec::SetEnabledForTesting(enabled); }
  ~VecModeGuard() { vec::SetEnabledForTesting(std::nullopt); }
};

/// Parametrized over the execution core: true = vectorized, false = scalar.
class OperatorViewsTest : public StatsStoreTest,
                          public ::testing::WithParamInterface<bool> {};

// The per-kind `serena.op.*` counters and the per-fingerprint store are
// two views of one recorder, so over a run they agree kind by kind —
// including the interior stages of fused pipelines.
TEST_P(OperatorViewsTest, OpCountersEqualStatsStoreSumsPerKind) {
  VecModeGuard guard(GetParam());
  MetricsRegistry& metrics = MetricsRegistry::Global();
  metrics.set_enabled(true);
  StatsStore::Global().Clear();

  constexpr int kKinds = static_cast<int>(PlanKind::kEmpty) + 1;
  const auto counter = [&](int kind, const char* field) -> Counter& {
    return metrics.GetCounter(std::string("serena.op.") +
                              PlanKindToString(static_cast<PlanKind>(kind)) +
                              "." + field);
  };
  std::vector<std::uint64_t> evals_before;
  std::vector<std::uint64_t> rows_before;
  std::vector<std::uint64_t> wall_before;
  for (int k = 0; k < kKinds; ++k) {
    evals_before.push_back(counter(k, "evals").value());
    rows_before.push_back(counter(k, "rows_out").value());
    wall_before.push_back(counter(k, "wall_ns").value());
  }

  SharedSubtreeQuery q;
  // Steps run side by side on four threads, publishing into shared
  // records and counters at once.
  ThreadPool pool(4);
  q.executor.set_pool(&pool);
  ASSERT_TRUE(q.executor.Register(q.query).ok());
  // A γ-rooted query: in the vectorized core γ folds its σ(window)
  // pipeline, whose stages reach the store through the pipeline flush.
  ASSERT_TRUE(q.executor
                  .Register(std::make_shared<ContinuousQuery>(
                      "grouped",
                      MustParse("aggregate[sensor; count() -> n, avg(value) "
                                "-> mean](select[value > 1](window[2]("
                                "readings)))")))
                  .ok());
  // Sixteen more, pairwise sharing their operators' records.
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(q.executor
                    .Register(std::make_shared<ContinuousQuery>(
                        "fleet" + std::to_string(i),
                        MustParse("select[value > " + std::to_string(i % 8) +
                                  "](window[" + std::to_string(1 + i % 3) +
                                  "](readings))")))
                    .ok());
  }
  q.executor.Run(5);
  ASSERT_TRUE(q.executor.last_errors().empty());

  std::map<std::string, OperatorStats> by_kind;
  for (const OperatorStats& op : StatsStore::Global().Snapshot()) {
    by_kind[op.kind].evals += op.evals;
    by_kind[op.kind].rows_out += op.rows_out;
    by_kind[op.kind].wall_ns += op.wall_ns;
  }
  ASSERT_GT(by_kind["window"].rows_out, 0u);
  ASSERT_EQ(by_kind["aggregate"].evals, 5u);
  ASSERT_GT(by_kind["aggregate"].rows_out, 0u);
  for (int k = 0; k < kKinds; ++k) {
    const std::string kind = PlanKindToString(static_cast<PlanKind>(k));
    EXPECT_EQ(counter(k, "evals").value() - evals_before[k],
              by_kind[kind].evals)
        << kind;
    EXPECT_EQ(counter(k, "rows_out").value() - rows_before[k],
              by_kind[kind].rows_out)
        << kind;
    EXPECT_EQ(counter(k, "wall_ns").value() - wall_before[k],
              by_kind[kind].wall_ns)
        << kind;
  }
  StatsStore::Global().Clear();
}

INSTANTIATE_TEST_SUITE_P(ExecutionCores, OperatorViewsTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "vectorized" : "scalar";
                         });

}  // namespace
}  // namespace obs
}  // namespace serena
