#include "pems/monitor.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "env/sim_services.h"
#include "obs/metrics.h"

namespace serena {
namespace {

TEST(MonitorTest, SnapshotReflectsSystemState) {
  auto pems = Pems::Create().MoveValueOrDie();
  ASSERT_TRUE(pems->tables()
                  .ExecuteDdl(R"(
    PROTOTYPE sendMessage(address STRING, text STRING) : (sent BOOLEAN) ACTIVE;
    PROTOTYPE getTemperature() : (temperature REAL);
    EXTENDED RELATION contacts (
      name STRING, address STRING, text STRING VIRTUAL,
      messenger SERVICE, sent BOOLEAN VIRTUAL
    ) USING BINDING PATTERNS ( sendMessage[messenger](address, text) : (sent) );
    INSERT INTO contacts VALUES ('Carla', 'c@x', 'email');
    EXTENDED STREAM temperatures (temperature REAL);
  )")
                  .ok());
  ASSERT_TRUE(pems->Deploy("gw", std::make_shared<MessengerService>(
                                     "email",
                                     MessengerService::Kind::kEmail))
                  .ok());
  pems->Run(2);
  ASSERT_TRUE(pems->queries()
                  .RegisterContinuous(
                      "blast",
                      "invoke[sendMessage](assign[text := 'x'](contacts))")
                  .ok());
  pems->Run(1);

  const PemsMetrics metrics = SnapshotMetrics(*pems);
  EXPECT_EQ(metrics.instant, 3);
  EXPECT_EQ(metrics.prototypes, 2u);
  EXPECT_EQ(metrics.relations, 1u);
  EXPECT_EQ(metrics.total_tuples, 1u);
  EXPECT_EQ(metrics.streams, 1u);
  EXPECT_EQ(metrics.services, 1u);
  EXPECT_EQ(metrics.services_discovered, 1u);
  EXPECT_GT(metrics.invocations.active_invocations, 0u);
  EXPECT_GT(metrics.network.sent, 0u);
  ASSERT_EQ(metrics.queries.size(), 1u);
  EXPECT_EQ(metrics.queries[0].name, "blast");
  EXPECT_EQ(metrics.queries[0].steps, 1u);
  EXPECT_EQ(metrics.queries[0].actions, 1u);

  const std::string rendered = metrics.ToString();
  EXPECT_NE(rendered.find("blast"), std::string::npos);
  EXPECT_NE(rendered.find("1 relations (1 tuples)"), std::string::npos);
}

TEST(MonitorTest, SnapshotToJsonHasAllSections) {
  auto pems = Pems::Create().MoveValueOrDie();
  ASSERT_TRUE(pems->tables()
                  .ExecuteDdl(R"(
    PROTOTYPE sendMessage(address STRING, text STRING) : (sent BOOLEAN) ACTIVE;
    EXTENDED RELATION contacts (
      name STRING, address STRING, text STRING VIRTUAL,
      messenger SERVICE, sent BOOLEAN VIRTUAL
    ) USING BINDING PATTERNS ( sendMessage[messenger](address, text) : (sent) );
    INSERT INTO contacts VALUES ('Carla', 'c@x', 'email');
  )")
                  .ok());
  ASSERT_TRUE(pems->Deploy("gw", std::make_shared<MessengerService>(
                                     "email",
                                     MessengerService::Kind::kEmail))
                  .ok());
  pems->Run(2);
  ASSERT_TRUE(pems->queries()
                  .RegisterContinuous(
                      "blast",
                      "invoke[sendMessage](assign[text := 'x'](contacts))")
                  .ok());
  pems->Run(1);

  const std::string json = SnapshotMetrics(*pems).ToJson();
  // Every dashboard section, spot-checked by key.
  for (const char* expected :
       {"\"instant\":3", "\"catalog\":", "\"prototypes\":1",
        "\"relations\":1", "\"total_tuples\":1", "\"services\":",
        "\"available\":1", "\"discovered\":1", "\"invocations\":",
        "\"logical\":", "\"memo_hits\":", "\"failed\":", "\"network\":",
        "\"sent\":", "\"executor\":", "\"ticks\":3", "\"query_errors\":0",
        "\"tick_latency_ns\":", "\"queries\":[",
        "{\"name\":\"blast\",\"steps\":1,\"actions\":1}"}) {
    EXPECT_NE(json.find(expected), std::string::npos)
        << "missing " << expected << " in " << json;
  }
}

// The acceptance scenario for the telemetry layer: a PEMS running 100
// ticks with standing invocation queries must leave the process-wide
// registry holding a per-tick latency histogram, per-prototype invocation
// latencies, and memo hit/miss counts.
TEST(MonitorTest, HundredTickRunPopulatesMetricsRegistry) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.ResetValues();  // Isolate from other tests in this binary.

  auto pems = Pems::Create().MoveValueOrDie();
  ASSERT_TRUE(pems->tables()
                  .ExecuteDdl(
                      "PROTOTYPE getTemperature() : (temperature REAL);")
                  .ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(pems->Deploy("node-" + std::to_string(i),
                             std::make_shared<TemperatureSensorService>(
                                 "sensor0" + std::to_string(i), 18.0 + i,
                                 i + 1))
                    .ok());
  }
  pems->Run(2);  // Let discovery reach the core ERM.
  ASSERT_TRUE(pems->queries()
                  .RegisterDiscoveryQuery("thermometers", "getTemperature")
                  .ok());
  ASSERT_TRUE(pems->queries()
                  .RegisterContinuous(
                      "readings", "invoke[getTemperature](thermometers)")
                  .ok());
  // A second identical standing query: its invocations hit the
  // per-instant memo the first one populated.
  ASSERT_TRUE(pems->queries()
                  .RegisterContinuous(
                      "readings2", "invoke[getTemperature](thermometers)")
                  .ok());
  pems->Run(100);

  // Per-tick latency histogram.
  const obs::Histogram* tick_ns =
      registry.FindHistogram("serena.executor.tick_ns");
  ASSERT_NE(tick_ns, nullptr);
  EXPECT_GE(tick_ns->count(), 100u);
  EXPECT_GT(tick_ns->sum(), 0u);

  // Per-prototype invocation latency + memo traffic.
  const obs::Histogram* invoke_ns =
      registry.FindHistogram("serena.service.getTemperature.invoke_ns");
  ASSERT_NE(invoke_ns, nullptr);
  EXPECT_GT(invoke_ns->count(), 0u);
  const obs::Counter* memo_hits =
      registry.FindCounter("serena.service.getTemperature.memo_hits");
  const obs::Counter* memo_misses =
      registry.FindCounter("serena.service.getTemperature.memo_misses");
  ASSERT_NE(memo_hits, nullptr);
  ASSERT_NE(memo_misses, nullptr);
  EXPECT_GT(memo_hits->value(), 0u);
  EXPECT_GT(memo_misses->value(), 0u);

  // Per-query step latencies: one histogram per query, in its runtime
  // record, read through the query's health.
  const std::vector<QueryHealth::QuerySnapshot> health =
      pems->queries().executor().health().Snapshots();
  const auto readings =
      std::find_if(health.begin(), health.end(),
                   [](const auto& q) { return q.name == "readings"; });
  ASSERT_NE(readings, health.end());
  EXPECT_GT(readings->p50_step_ns, 0u);
  EXPECT_EQ(readings->steps, 100u);

  // The dashboard JSON reports it all.
  const std::string json = registry.ToJson();
  for (const char* expected :
       {"\"serena.executor.tick_ns\":",
        "\"serena.service.getTemperature.invoke_ns\":",
        "\"serena.service.getTemperature.memo_hits\":",
        "\"serena.op.invoke.rows_out\":", "\"buckets\":"}) {
    EXPECT_NE(json.find(expected), std::string::npos)
        << "missing " << expected << " in " << json;
  }

  // The per-instance snapshot agrees.
  const PemsMetrics metrics = SnapshotMetrics(*pems);
  EXPECT_EQ(metrics.total_ticks, 102u);
  EXPECT_GE(metrics.tick_latency.count, 100u);
  EXPECT_GT(metrics.invocations.memo_hits, 0u);
}

// The satellite bugfix: `last_errors()` only covers the most recent tick,
// so failures between two snapshots used to vanish. The monotonic
// `total_query_errors` never loses them.
TEST(MonitorTest, TotalQueryErrorsIsMonotonic) {
  auto pems = Pems::Create().MoveValueOrDie();
  ContinuousExecutor& executor = pems->queries().executor();
  ASSERT_TRUE(executor
                  .Register(std::make_shared<ContinuousQuery>(
                      "doomed", Scan("no_such_relation")))
                  .ok());
  pems->Run(3);
  EXPECT_EQ(executor.last_errors().size(), 1u);  // Most recent tick only.
  EXPECT_EQ(executor.total_query_errors(), 3u);  // All of them.
  EXPECT_EQ(SnapshotMetrics(*pems).total_query_errors, 3u);

  // A tick with no failure clears last_errors but not the total.
  ASSERT_TRUE(executor.Unregister("doomed").ok());
  pems->Run(1);
  EXPECT_TRUE(executor.last_errors().empty());
  EXPECT_EQ(executor.total_query_errors(), 3u);
}

TEST(MonitorTest, EmptySystemRenders) {
  auto pems = Pems::Create().MoveValueOrDie();
  const PemsMetrics metrics = SnapshotMetrics(*pems);
  EXPECT_EQ(metrics.relations, 0u);
  EXPECT_EQ(metrics.services, 0u);
  EXPECT_NE(metrics.ToString().find("continuous queries: 0"),
            std::string::npos);
}

}  // namespace
}  // namespace serena
