#include "stream/executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "env/scenario.h"
#include "obs/trace.h"

namespace serena {
namespace {

using WindowDemand = ContinuousExecutor::WindowDemand;

/// One registered query as the reference model sees it: the windows it
/// reads (with the widest window per stream) and the streams it feeds.
struct ReferenceQuery {
  std::string name;
  std::map<std::string, WindowDemand> demands;
  std::vector<std::string> feeds;
};

bool Intersects(const std::vector<std::string>& a,
                const std::vector<std::string>& b) {
  for (const std::string& x : a) {
    if (std::find(b.begin(), b.end(), x) != b.end()) return true;
  }
  return false;
}

std::vector<std::string> ReadsOf(const ReferenceQuery& query) {
  std::vector<std::string> reads;
  for (const auto& [stream, demand] : query.demands) reads.push_back(stream);
  return reads;
}

/// The pairwise dependency rule, over every earlier query: query j must
/// step before query i when j feeds a stream i reads or feeds, or j reads
/// a stream i feeds.
std::vector<std::vector<std::string>> ReferenceLevels(
    const std::vector<ReferenceQuery>& queries) {
  std::vector<std::size_t> level(queries.size(), 0);
  std::vector<std::vector<std::string>> levels;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const std::vector<std::string> reads_i = ReadsOf(queries[i]);
    const std::vector<std::string>& feeds_i = queries[i].feeds;
    for (std::size_t j = 0; j < i; ++j) {
      const std::vector<std::string>& feeds_j = queries[j].feeds;
      if (Intersects(feeds_j, reads_i) || Intersects(feeds_j, feeds_i) ||
          Intersects(ReadsOf(queries[j]), feeds_i)) {
        level[i] = std::max(level[i], level[j] + 1);
      }
    }
    if (level[i] >= levels.size()) levels.resize(level[i] + 1);
    levels[level[i]].push_back(queries[i].name);
  }
  return levels;
}

/// The widest window per stream over every query's plan.
std::map<std::string, WindowDemand> ReferenceDemand(
    const std::vector<ReferenceQuery>& queries) {
  std::map<std::string, WindowDemand> demand;
  for (const ReferenceQuery& query : queries) {
    for (const auto& [stream, widest] : query.demands) {
      WindowDemand& merged = demand[stream];
      merged.max_period = std::max(merged.max_period, widest.max_period);
      merged.max_rows = std::max(merged.max_rows, widest.max_rows);
    }
  }
  return demand;
}

/// A random query over a few stream names: zero to three windows (the
/// same stream may be windowed twice), an occasional scan, and zero to
/// two fed streams that may overlap what it reads.
std::pair<PlanPtr, ReferenceQuery> RandomQuery(Rng& rng, std::string name) {
  static const std::vector<std::string> kStreams = {"s0", "s1", "s2",
                                                    "s3", "s4", "s5"};
  ReferenceQuery query;
  query.name = std::move(name);
  PlanPtr plan;
  const auto add = [&plan](PlanPtr leaf) {
    plan = plan == nullptr ? std::move(leaf)
                           : UnionOf(std::move(plan), std::move(leaf));
  };
  const std::int64_t windows = rng.NextInt(0, 3);
  for (std::int64_t w = 0; w < windows; ++w) {
    const std::string& stream = kStreams[rng.NextBounded(kStreams.size())];
    const Timestamp period = rng.NextInt(1, 30);
    WindowDemand& demand = query.demands[stream];
    if (rng.NextBool(0.3)) {
      add(Window(stream, period, WindowMode::kRows));
      demand.max_rows =
          std::max(demand.max_rows, static_cast<std::size_t>(period));
    } else {
      add(Window(stream, period));
      demand.max_period = std::max(demand.max_period, period);
    }
  }
  if (plan == nullptr || rng.NextBool(0.2)) {
    add(Scan("r" + std::to_string(rng.NextBounded(3))));
  }
  const std::int64_t feeds = rng.NextInt(0, 2);
  for (std::int64_t f = 0; f < feeds; ++f) {
    query.feeds.push_back(kStreams[rng.NextBounded(kStreams.size())]);
  }
  return {plan, query};
}

TEST(ExecutorScheduleTest, IncrementalPlacementMatchesPairwiseRule) {
  Environment env;
  ContinuousExecutor executor(&env, /*streams=*/nullptr);
  Rng rng(20260417);
  std::vector<ReferenceQuery> reference;
  std::vector<std::string> retired;  // Unregistered names, for reuse.
  std::size_t next_name = 0;
  std::size_t registers = 0;
  std::size_t unregisters = 0;
  std::size_t deepest = 0;

  for (int op = 0; op < 1500; ++op) {
    const bool do_register =
        reference.empty() ||
        (reference.size() < 40 && rng.NextBool(0.6));
    if (do_register) {
      std::string name;
      if (!retired.empty() && rng.NextBool(0.3)) {
        const std::size_t k = rng.NextBounded(retired.size());
        name = retired[k];
        retired.erase(retired.begin() + static_cast<std::ptrdiff_t>(k));
      } else {
        name = "q" + std::to_string(next_name++);
      }
      auto [plan, facts] = RandomQuery(rng, name);
      auto query = std::make_shared<ContinuousQuery>(name, plan);
      query->set_feeds(facts.feeds);
      ASSERT_TRUE(executor.Register(query).ok()) << name;
      reference.push_back(std::move(facts));
      ++registers;
      // A second query under a live name is refused and changes nothing.
      if (rng.NextBool(0.1)) {
        const std::string& live =
            reference[rng.NextBounded(reference.size())].name;
        EXPECT_EQ(executor
                      .Register(std::make_shared<ContinuousQuery>(
                          live, Window("s0", 1)))
                      .code(),
                  StatusCode::kAlreadyExists);
      }
    } else {
      const std::size_t k = rng.NextBounded(reference.size());
      const std::string name = reference[k].name;
      ASSERT_TRUE(executor.Unregister(name).ok()) << name;
      EXPECT_EQ(executor.Unregister(name).code(), StatusCode::kNotFound);
      EXPECT_FALSE(executor.GetQuery(name).ok());
      reference.erase(reference.begin() + static_cast<std::ptrdiff_t>(k));
      retired.push_back(name);
      ++unregisters;
    }

    const ContinuousExecutor::ScheduleSnapshot schedule =
        executor.Schedule();
    ASSERT_EQ(schedule.levels, ReferenceLevels(reference))
        << "after operation " << op;
    ASSERT_EQ(schedule.window_demand, ReferenceDemand(reference))
        << "after operation " << op;
    deepest = std::max(deepest, schedule.levels.size());
    for (const ReferenceQuery& query : reference) {
      ASSERT_TRUE(executor.GetQuery(query.name).ok()) << query.name;
    }
  }
  // The sequence exercised both directions and real dependency chains.
  EXPECT_GT(registers, 500u);
  EXPECT_GT(unregisters, 500u);
  EXPECT_GE(deepest, 4u);
}

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    scenario_ = TemperatureScenario::Build().MoveValueOrDie();
    executor_ = std::make_unique<ContinuousExecutor>(&scenario_->env(),
                                                     &scenario_->streams());
    executor_->AddSource(
        [this](Timestamp t) { return scenario_->PumpTemperatureStream(t); });
  }

  std::size_t TemperatureHistory() const {
    return scenario_->streams().GetStream("temperatures").ValueOrDie()->size();
  }

  std::unique_ptr<TemperatureScenario> scenario_;
  std::unique_ptr<ContinuousExecutor> executor_;
};

TEST_F(ExecutorTest, UnregisteringTheWidestWindowNarrowsPruning) {
  ASSERT_TRUE(executor_
                  ->Register(std::make_shared<ContinuousQuery>(
                      "wide", Window("temperatures", 10)))
                  .ok());
  ASSERT_TRUE(executor_
                  ->Register(std::make_shared<ContinuousQuery>(
                      "narrow", Window("temperatures", 2)))
                  .ok());
  executor_->set_prune_slack(0);
  executor_->Run(15);
  // 4 sensors x the 11 instants the 10-instant window reaches.
  EXPECT_EQ(TemperatureHistory(), 44u);

  ASSERT_TRUE(executor_->Unregister("wide").ok());
  EXPECT_EQ(executor_->Schedule().window_demand.at("temperatures").max_period,
            2);
  executor_->Run(1);
  // Only the 2-instant window's 3 instants remain.
  EXPECT_EQ(TemperatureHistory(), 12u);
}

TEST_F(ExecutorTest, UnregisteringAProducerMovesItsConsumerToLevelZero) {
  auto producer = std::make_shared<ContinuousQuery>(
      "producer", Window("temperatures", 1));
  producer->set_feeds({"hot"});
  ASSERT_TRUE(executor_->Register(producer).ok());
  ASSERT_TRUE(executor_
                  ->Register(std::make_shared<ContinuousQuery>(
                      "consumer", Window("hot", 3)))
                  .ok());
  using Levels = std::vector<std::vector<std::string>>;
  EXPECT_EQ(executor_->Schedule().levels,
            (Levels{{"producer"}, {"consumer"}}));

  ASSERT_TRUE(executor_->Unregister("producer").ok());
  EXPECT_EQ(executor_->Schedule().levels, (Levels{{"consumer"}}));
}

TEST_F(ExecutorTest, ANameCanBeRegisteredAgainAfterUnregistering) {
  auto first = std::make_shared<ContinuousQuery>("watch",
                                                 Window("temperatures", 1));
  ASSERT_TRUE(executor_->Register(first).ok());
  EXPECT_EQ(executor_
                ->Register(std::make_shared<ContinuousQuery>(
                    "watch", Window("temperatures", 2)))
                .code(),
            StatusCode::kAlreadyExists);
  executor_->Run(2);
  ASSERT_TRUE(executor_->Unregister("watch").ok());

  auto second = std::make_shared<ContinuousQuery>("watch",
                                                  Window("temperatures", 2));
  ASSERT_TRUE(executor_->Register(second).ok());
  EXPECT_EQ(executor_->GetQuery("watch").ValueOrDie(), second);
  EXPECT_EQ(executor_->QueryNames(), std::vector<std::string>{"watch"});
  executor_->Run(3);
  EXPECT_TRUE(executor_->last_errors().empty());
  EXPECT_EQ(second->steps(), 3u);
  EXPECT_EQ(first->steps(), 2u);
}

TEST_F(ExecutorTest, RegistrationAndUnregistrationAreTraced) {
  obs::TraceBuffer& trace = obs::TraceBuffer::Global();
  trace.Clear();
  trace.set_enabled(true);
  const Status registered = executor_->Register(
      std::make_shared<ContinuousQuery>("traced", Window("temperatures", 1)));
  const Status unregistered = executor_->Unregister("traced");
  trace.set_enabled(false);
  const std::vector<obs::SpanRecord> spans = trace.Snapshot();
  trace.Clear();
  ASSERT_TRUE(registered.ok());
  ASSERT_TRUE(unregistered.ok());

  std::vector<std::string> seen;
  for (const obs::SpanRecord& span : spans) {
    if (span.detail == "traced") seen.push_back(span.name);
  }
  EXPECT_EQ(seen, (std::vector<std::string>{"executor.register",
                                            "executor.unregister"}));
}

}  // namespace
}  // namespace serena
