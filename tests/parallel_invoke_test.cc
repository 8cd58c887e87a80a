#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "algebra/operators.h"
#include "common/thread_pool.h"
#include "ddl/algebra_parser.h"
#include "env/scenario.h"
#include "obs/metrics.h"
#include "obs/stats.h"
#include "service/lambda_service.h"
#include "stream/executor.h"

namespace serena {
namespace {

RelationSchema Schema(std::vector<Attribute> attrs) {
  return RelationSchema::Create(std::move(attrs)).ValueOrDie();
}

/// probe(x INT) : (y INT) — passive, deterministic: y = x * 10 + service
/// index, so every (service, input) pair has a unique, checkable output.
PrototypePtr MakeProbePrototype() {
  return Prototype::Create("probe", Schema({{"x", DataType::kInt}}),
                           Schema({{"y", DataType::kInt}}),
                           /*active=*/false)
      .ValueOrDie();
}

/// A registry with `n` probe services (svc0..svc{n-1}); svc{i} maps x to
/// x*10+i after `latency`. Services named in `failing` return an error.
struct ProbeEnv {
  ServiceRegistry registry;
  PrototypePtr proto = MakeProbePrototype();
  std::atomic<int> physical_calls{0};

  explicit ProbeEnv(int n, std::chrono::milliseconds latency = {},
                    std::vector<std::string> failing = {}) {
    for (int i = 0; i < n; ++i) {
      const std::string id = "svc" + std::to_string(i);
      auto service = std::make_shared<LambdaService>(id);
      const bool fails =
          std::find(failing.begin(), failing.end(), id) != failing.end();
      service->AddMethod(
          proto, [this, i, latency, fails](const Tuple& input, Timestamp)
                     -> Result<std::vector<Tuple>> {
            physical_calls.fetch_add(1, std::memory_order_relaxed);
            if (latency.count() > 0) std::this_thread::sleep_for(latency);
            if (fails) return Status::Unavailable("svc down");
            return std::vector<Tuple>{Tuple{
                Value::Int(input[0].int_value() * 10 + i)}};
          });
      const Status registered = registry.Register(std::move(service));
      EXPECT_TRUE(registered.ok()) << registered.message();
    }
  }
};

/// An X-Relation of (svc, x, y*) rows bound to the probe prototype.
XRelation MakeProbeRelation(const std::vector<std::pair<int, int>>& rows) {
  auto schema =
      ExtendedSchema::Create(
          "probes",
          {{"svc", DataType::kService},
           {"x", DataType::kInt},
           {"y", DataType::kInt, AttributeKind::kVirtual}},
          {BindingPattern(MakeProbePrototype(), "svc")})
          .ValueOrDie();
  XRelation r(schema);
  for (const auto& [service_index, x] : rows) {
    (void)r.Insert(Tuple{Value::String("svc" + std::to_string(service_index)),
                         Value::Int(x)});
  }
  return r;
}

TEST(ParallelInvokeTest, ParallelOutputIsByteIdenticalToSerial) {
  std::vector<std::pair<int, int>> rows;
  for (int i = 0; i < 40; ++i) rows.push_back({i % 8, i});
  const XRelation input = MakeProbeRelation(rows);
  const BindingPattern& bp = input.schema().binding_patterns()[0];

  ProbeEnv serial_env(8);
  ThreadPool serial_pool(0);
  InvokeOptions serial_options;
  serial_options.instant = 1;
  serial_options.pool = &serial_pool;
  XRelation serial =
      Invoke(input, bp, &serial_env.registry, serial_options).ValueOrDie();

  ProbeEnv parallel_env(8);
  ThreadPool pool(4);
  InvokeOptions parallel_options;
  parallel_options.instant = 1;
  parallel_options.pool = &pool;
  XRelation parallel =
      Invoke(input, bp, &parallel_env.registry, parallel_options)
          .ValueOrDie();

  // Not just set equality: identical content in identical order.
  EXPECT_EQ(parallel.ToTableString(), serial.ToTableString());
  EXPECT_EQ(parallel.size(), input.size());

  // Identical traffic stats on the success path.
  const InvocationStats s = serial_env.registry.stats();
  const InvocationStats p = parallel_env.registry.stats();
  EXPECT_EQ(p.logical_invocations, s.logical_invocations);
  EXPECT_EQ(p.physical_invocations, s.physical_invocations);
  EXPECT_EQ(p.memo_hits, s.memo_hits);
  EXPECT_EQ(p.output_tuples, s.output_tuples);
}

TEST(ParallelInvokeTest, SkipPolicyCollectsFailedTuplesInInputOrder) {
  std::vector<std::pair<int, int>> rows;
  for (int i = 0; i < 12; ++i) rows.push_back({i % 4, i});
  const XRelation input = MakeProbeRelation(rows);
  const BindingPattern& bp = input.schema().binding_patterns()[0];

  auto run = [&](ThreadPool* pool) {
    ProbeEnv env(4, std::chrono::milliseconds(0), {"svc2"});
    InvokeOptions options;
    options.instant = 1;
    options.error_policy = InvocationErrorPolicy::kSkipTuple;
    options.pool = pool;
    std::vector<Tuple> failed;
    options.failed_tuples = &failed;
    XRelation out = Invoke(input, bp, &env.registry, options).ValueOrDie();
    return std::make_pair(out.ToTableString(), failed);
  };

  ThreadPool serial_pool(0);
  ThreadPool pool(4);
  const auto [serial_table, serial_failed] = run(&serial_pool);
  const auto [parallel_table, parallel_failed] = run(&pool);

  EXPECT_EQ(parallel_table, serial_table);
  ASSERT_EQ(parallel_failed.size(), serial_failed.size());
  EXPECT_EQ(parallel_failed.size(), 3u);  // i = 2, 6, 10 hit svc2.
  for (std::size_t i = 0; i < serial_failed.size(); ++i) {
    EXPECT_EQ(parallel_failed[i], serial_failed[i]);
  }
}

TEST(ParallelInvokeTest, FailPolicyReturnsGenuineErrorNotCancellation) {
  std::vector<std::pair<int, int>> rows;
  for (int i = 0; i < 16; ++i) rows.push_back({i % 4, i});
  const XRelation input = MakeProbeRelation(rows);
  const BindingPattern& bp = input.schema().binding_patterns()[0];

  ProbeEnv env(4, std::chrono::milliseconds(1), {"svc1"});
  ThreadPool pool(4);
  InvokeOptions options;
  options.instant = 1;
  options.error_policy = InvocationErrorPolicy::kFail;
  options.pool = &pool;
  const auto result = Invoke(input, bp, &env.registry, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  // Never the internal cancellation marker.
  EXPECT_FALSE(ServiceRegistry::IsCancelled(result.status()));
}

TEST(ParallelInvokeTest, InvokeManyDedupsIdenticalRequestsWithinBatch) {
  ProbeEnv env(2);
  std::vector<InvocationRequest> requests;
  // 3x the same call to svc0, 2x svc1, 1x svc0 with other input.
  for (int i = 0; i < 3; ++i) requests.push_back({"svc0", Tuple{Value::Int(7)}});
  for (int i = 0; i < 2; ++i) requests.push_back({"svc1", Tuple{Value::Int(7)}});
  requests.push_back({"svc0", Tuple{Value::Int(8)}});

  ThreadPool pool(4);
  auto results = env.registry.InvokeMany(*env.proto, requests, 1, &pool);
  ASSERT_EQ(results.size(), 6u);
  for (const auto& r : results) ASSERT_TRUE(r.ok());
  // Duplicates share the SAME underlying rows (no copies).
  EXPECT_EQ(results[0].ValueOrDie().get(), results[1].ValueOrDie().get());
  EXPECT_EQ(results[0].ValueOrDie().get(), results[2].ValueOrDie().get());
  EXPECT_EQ(results[3].ValueOrDie().get(), results[4].ValueOrDie().get());
  EXPECT_NE(results[0].ValueOrDie().get(), results[5].ValueOrDie().get());
  EXPECT_EQ((*results[0].ValueOrDie())[0][0], Value::Int(70));
  EXPECT_EQ((*results[3].ValueOrDie())[0][0], Value::Int(71));
  EXPECT_EQ((*results[5].ValueOrDie())[0][0], Value::Int(80));

  EXPECT_EQ(env.physical_calls.load(), 3);  // One per unique pair.
  const InvocationStats stats = env.registry.stats();
  EXPECT_EQ(stats.logical_invocations, 6u);
  EXPECT_EQ(stats.physical_invocations, 3u);
  EXPECT_EQ(stats.memo_hits, 3u);
}

/// Each result of a batch as text, in request order.
std::string RenderResults(const std::vector<Result<TupleRows>>& results) {
  std::string out;
  for (const Result<TupleRows>& result : results) {
    if (!result.ok()) {
      out += result.status().ToString() + "\n";
      continue;
    }
    for (const Tuple& row : *result.ValueOrDie()) out += row.ToString();
    out += "\n";
  }
  return out;
}

TEST(ParallelInvokeTest, InvokeManyOverlapsCallsBeyondTheCallerPool) {
  // 32 distinct 20 ms calls through a caller pool of one worker: the
  // registry's invoker threads, not the caller's pool, set the width.
  std::vector<InvocationRequest> requests;
  for (int i = 0; i < 32; ++i) {
    requests.push_back({"svc" + std::to_string(i), Tuple{Value::Int(i)}});
  }
  ProbeEnv serial_env(32);
  ThreadPool serial_pool(0);
  const std::string serial = RenderResults(serial_env.registry.InvokeMany(
      *serial_env.proto, requests, 1, &serial_pool));

  ProbeEnv env(32, std::chrono::milliseconds(20));
  ThreadPool pool(1);
  // The first batch also starts the invokers; time the second, which
  // makes every call again at a new instant.
  env.registry.InvokeMany(*env.proto, requests, 0, &pool);
  const auto start = std::chrono::steady_clock::now();
  const std::vector<Result<TupleRows>> results =
      env.registry.InvokeMany(*env.proto, requests, 1, &pool);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::milliseconds(80));
  EXPECT_EQ(env.physical_calls.load(), 64);
  // Request order and content exactly as the serial pool produced them.
  EXPECT_EQ(RenderResults(results), serial);
}

TEST(ParallelInvokeTest, FailedOwnerCostsOneRetryPerAwaitedKey) {
  // Caller A owns a failing key. Caller B's batch awaits that key twice
  // and also calls `opener`, which B dispatches only after classifying
  // its batch; `opener` releases A's call. A serial caller arriving after
  // A's failure would call the key once for both duplicates, so B must
  // retry it once: two calls of `down` in all, on any pool.
  struct Counts {
    int down_calls;
    std::uint64_t physical;
    std::uint64_t failed;
    bool operator==(const Counts&) const = default;
  };
  const auto run = [](std::size_t threads) {
    ServiceRegistry registry;
    const PrototypePtr proto = MakeProbePrototype();
    std::atomic<int> down_calls{0};
    std::promise<void> entered;
    std::promise<void> opened;
    std::shared_future<void> latch = opened.get_future().share();
    auto down = std::make_shared<LambdaService>("down");
    down->AddMethod(proto, [&](const Tuple&, Timestamp)
                               -> Result<std::vector<Tuple>> {
      if (down_calls.fetch_add(1) == 0) {
        entered.set_value();
        latch.wait();
      }
      return Status::Unavailable("down");
    });
    auto opener = std::make_shared<LambdaService>("opener");
    opener->AddMethod(proto, [&](const Tuple& input, Timestamp)
                                 -> Result<std::vector<Tuple>> {
      opened.set_value();
      return std::vector<Tuple>{input};
    });
    EXPECT_TRUE(registry.Register(down).ok());
    EXPECT_TRUE(registry.Register(opener).ok());

    ThreadPool pool(threads);
    const Tuple key{Value::Int(1)};
    const std::vector<InvocationRequest> first{{"down", key}};
    const std::vector<InvocationRequest> second{
        {"down", key}, {"down", key}, {"opener", Tuple{Value::Int(2)}}};
    std::vector<Result<TupleRows>> a, b;
    std::thread owner(
        [&] { a = registry.InvokeMany(*proto, first, 1, &pool); });
    entered.get_future().wait();
    std::thread awaiter(
        [&] { b = registry.InvokeMany(*proto, second, 1, &pool); });
    owner.join();
    awaiter.join();

    EXPECT_FALSE(a[0].ok());
    EXPECT_FALSE(b[0].ok());
    EXPECT_FALSE(b[1].ok());
    EXPECT_TRUE(b[2].ok());
    const InvocationStats stats = registry.stats();
    return Counts{down_calls.load(), stats.physical_invocations,
                  stats.failed_invocations};
  };

  const Counts serial = run(/*threads=*/0);
  EXPECT_EQ(serial.down_calls, 2);
  EXPECT_EQ(serial.failed, 2u);
  EXPECT_EQ(serial.physical, 1u);  // `opener`; failed calls count as failed.
  EXPECT_TRUE(run(/*threads=*/4) == serial);
}

TEST(ParallelInvokeTest, MemoHitReturnsSharedRowsAcrossCalls) {
  ProbeEnv env(1);
  auto first = env.registry.Invoke(*env.proto, "svc0", Tuple{Value::Int(1)}, 5);
  auto second =
      env.registry.Invoke(*env.proto, "svc0", Tuple{Value::Int(1)}, 5);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  // Satellite: the memo hit hands out the same vector, not a copy.
  EXPECT_EQ(first.ValueOrDie().get(), second.ValueOrDie().get());
  EXPECT_EQ(env.physical_calls.load(), 1);

  // A new instant invalidates the memo.
  auto third = env.registry.Invoke(*env.proto, "svc0", Tuple{Value::Int(1)}, 6);
  ASSERT_TRUE(third.ok());
  EXPECT_NE(first.ValueOrDie().get(), third.ValueOrDie().get());
  EXPECT_EQ(env.physical_calls.load(), 2);
}

TEST(ParallelInvokeTest, ExecutorTicksManyQueriesSharingOneRegistry) {
  // Stress: 8 standing queries (4 clones each of Q3 and Q4) over one
  // scenario — one shared, thread-safe registry + stream store — stepped
  // by a parallel pool for many ticks. The scenario is fully
  // deterministic (seeded hashes of the instant), so a serial run with a
  // single Q3 + Q4 is the ground truth: single-flight memoization must
  // collapse the clones' duplicate active invocations to exactly the
  // side effects one query would cause.
  auto run = [](int clones, std::size_t threads) {
    auto scenario = TemperatureScenario::Build().MoveValueOrDie();
    ContinuousExecutor executor(&scenario->env(), &scenario->streams());
    executor.AddSource(
        [&](Timestamp t) { return scenario->PumpTemperatureStream(t); });

    ThreadPool pool(threads);
    executor.set_pool(&pool);
    for (int i = 0; i < clones; ++i) {
      EXPECT_TRUE(executor
                      .Register(std::make_shared<ContinuousQuery>(
                          "q3-" + std::to_string(i), scenario->Q3()))
                      .ok());
      EXPECT_TRUE(executor
                      .Register(std::make_shared<ContinuousQuery>(
                          "q4-" + std::to_string(i), scenario->Q4()))
                      .ok());
    }

    scenario->sensors()[1]->set_bias(20.0);   // Office hot -> alerts.
    executor.Run(25);

    EXPECT_TRUE(executor.last_errors().empty());
    EXPECT_EQ(executor.total_query_errors(), 0u);
    EXPECT_EQ(executor.total_ticks(), 25u);
    for (const std::string& name : executor.QueryNames()) {
      EXPECT_EQ(executor.GetQuery(name).ValueOrDie()->steps(), 25u);
    }
    std::size_t photos = 0;
    for (const auto& camera : scenario->cameras()) {
      photos += camera->photos_taken();
    }
    return std::make_pair(scenario->AllSentMessages().size(), photos);
  };

  const auto [serial_messages, serial_photos] = run(/*clones=*/1,
                                                    /*threads=*/0);
  const auto [parallel_messages, parallel_photos] = run(/*clones=*/4,
                                                        /*threads=*/8);

  // The heated office really produced traffic...
  EXPECT_GT(serial_messages, 0u);
  // ...and 4x the queries stepped in parallel caused exactly 1x the
  // physical side effects.
  EXPECT_EQ(parallel_messages, serial_messages);
  EXPECT_EQ(parallel_photos, serial_photos);
}

TEST(ParallelInvokeTest, DerivedStreamPipelineKeepsProducerBeforeConsumer) {
  // Two-stage pipeline: a producer feeding a derived stream and a
  // consumer windowing it must land in different executor levels, so the
  // parallel tick preserves the serial producer->consumer order.
  auto scenario = TemperatureScenario::Build().MoveValueOrDie();
  ContinuousExecutor executor(&scenario->env(), &scenario->streams());

  auto producer =
      std::make_shared<ContinuousQuery>("producer", scenario->Q3());
  producer->set_feeds({"alerts"});
  ASSERT_TRUE(executor.Register(producer).ok());

  auto consumer =
      std::make_shared<ContinuousQuery>("consumer", scenario->Q3());
  // The consumer nominally "reads" nothing the producer feeds here (Q3
  // windows `temperatures`), so declare a feed conflict instead: both
  // writing `alerts` must still serialize.
  consumer->set_feeds({"alerts"});
  ASSERT_TRUE(executor.Register(consumer).ok());

  ThreadPool pool(4);
  executor.set_pool(&pool);
  executor.AddSource(
      [&](Timestamp t) { return scenario->PumpTemperatureStream(t); });
  executor.Run(3);
  EXPECT_TRUE(executor.last_errors().empty());
}

/// Each node of a standing query's plan (preorder) with the invocation
/// and memo-hit counts the runtime statistics store recorded for it over
/// the query's steps (the query's operators fingerprint uniquely).
std::vector<std::string> PerNodeInvocations(const ContinuousQuery& query) {
  std::vector<std::string> out;
  std::function<void(const PlanPtr&)> visit = [&](const PlanPtr& node) {
    const std::optional<obs::OperatorStats> stats =
        obs::StatsStore::Global().Find(obs::OperatorFingerprint(*node));
    out.push_back(node->ToString() + " invocations=" +
                  std::to_string(stats ? stats->invocations : 0) +
                  " memo_hits=" +
                  std::to_string(stats ? stats->memo_hits : 0));
    for (const PlanPtr& child : node->children()) visit(child);
  };
  visit(query.plan());
  return out;
}

TEST(ParallelInvokeTest, ConcurrentQueriesCountOnlyTheirOwnInvocations) {
  // Two standing queries in one dependency level invoke disjoint services
  // (svc0/svc1 vs svc2/svc3, 20 ms each, so their steps overlap on a
  // threaded pool). Per-node counts must be each query's own calls,
  // exactly as in a serial (SERENA_THREADS=0) run.
  obs::MetricsRegistry::Global().set_enabled(true);
  const auto run = [](std::size_t threads) {
    // Both runs record the same operators; each reads only its own.
    obs::StatsStore::Global().Clear();
    Environment env;
    const PrototypePtr proto = MakeProbePrototype();
    EXPECT_TRUE(env.AddPrototype(proto).ok());
    for (int i = 0; i < 4; ++i) {
      auto service = std::make_shared<LambdaService>("svc" + std::to_string(i));
      service->AddMethod(proto, [i](const Tuple& input, Timestamp)
                                    -> Result<std::vector<Tuple>> {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return std::vector<Tuple>{
            Tuple{Value::Int(input[0].int_value() * 10 + i)}};
      });
      EXPECT_TRUE(env.registry().Register(std::move(service)).ok());
    }
    // Rows 1 and 2 share (svc, x): one physical call plus one memo hit.
    for (const auto& [name, first] :
         std::vector<std::pair<std::string, int>>{{"left", 0}, {"right", 2}}) {
      auto schema = ExtendedSchema::Create(
                        name,
                        {{"svc", DataType::kService},
                         {"x", DataType::kInt},
                         {"tag", DataType::kString},
                         {"y", DataType::kInt, AttributeKind::kVirtual}},
                        {BindingPattern(proto, "svc")})
                        .ValueOrDie();
      XRelation relation(schema);
      const auto row = [&](int svc, int x, const char* tag) {
        return Tuple{Value::String("svc" + std::to_string(svc)), Value::Int(x),
                     Value::String(tag)};
      };
      EXPECT_TRUE(relation.Insert(row(first, 1, "a")).ok());
      EXPECT_TRUE(relation.Insert(row(first, 1, "b")).ok());
      EXPECT_TRUE(relation.Insert(row(first + 1, 2, "a")).ok());
      EXPECT_TRUE(env.PutRelation(std::move(relation)).ok());
    }

    StreamStore streams;
    ContinuousExecutor executor(&env, &streams);
    ThreadPool pool(threads);
    executor.set_pool(&pool);
    std::vector<ContinuousQueryPtr> queries;
    for (const std::string name : {"left", "right"}) {
      queries.push_back(std::make_shared<ContinuousQuery>(
          name, Select(Invoke(Scan(name), "probe"),
                       ParseFormula("y >= 0").ValueOrDie())));
      EXPECT_TRUE(executor.Register(queries.back()).ok());
    }
    executor.Run(2);
    EXPECT_TRUE(executor.last_errors().empty());
    return std::make_pair(PerNodeInvocations(*queries[0]),
                          PerNodeInvocations(*queries[1]));
  };

  const auto serial = run(/*threads=*/0);
  const auto threaded = run(/*threads=*/4);
  // Each query's own calls: 3 logical invocations, 1 of them a memo hit.
  ASSERT_EQ(serial.first.size(), 3u);
  EXPECT_EQ(serial.first[0], "select[y >= 0](invoke[probe](left)) "
                             "invocations=3 memo_hits=1");
  EXPECT_EQ(threaded.first, serial.first);
  EXPECT_EQ(threaded.second, serial.second);
}

}  // namespace
}  // namespace serena
