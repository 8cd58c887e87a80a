#include "stream/executor.h"

#include <gtest/gtest.h>

#include "env/scenario.h"

namespace serena {
namespace {

/// End-to-end continuous-query tests over the temperature surveillance
/// scenario — the paper's §5.2 experiment, Example 8's Q3/Q4.
class ContinuousTest : public ::testing::Test {
 protected:
  void SetUp() override {
    scenario_ = TemperatureScenario::Build().MoveValueOrDie();
    executor_ = std::make_unique<ContinuousExecutor>(&scenario_->env(),
                                                     &scenario_->streams());
    executor_->AddSource(
        [this](Timestamp t) { return scenario_->PumpTemperatureStream(t); });
  }

  std::unique_ptr<TemperatureScenario> scenario_;
  std::unique_ptr<ContinuousExecutor> executor_;
};

TEST_F(ContinuousTest, TemperatureStreamIsFedEachInstant) {
  executor_->Run(3);
  const XDRelation* stream =
      scenario_->streams().GetStream("temperatures").ValueOrDie();
  // 4 sensors x 3 instants.
  EXPECT_EQ(stream->InsertedDuring(-1, 100).size(), 12u);
}

TEST_F(ContinuousTest, Q3SendsAlertsOnlyWhenHot) {
  auto q3 = std::make_shared<ContinuousQuery>("q3", scenario_->Q3());
  ASSERT_TRUE(executor_->Register(q3).ok());

  // Normal temperatures: no alerts.
  executor_->Run(3);
  EXPECT_TRUE(executor_->last_errors().empty());
  EXPECT_TRUE(scenario_->AllSentMessages().empty());

  // Heat the office sensors over the 35.5°C threshold (like heating the
  // physical iButtons in the paper's experiment).
  scenario_->sensors()[1]->set_bias(20.0);  // sensor06 (office).
  executor_->Run(1);
  const auto messages = scenario_->AllSentMessages();
  ASSERT_FALSE(messages.empty());
  // Carla manages the office: the alert goes to her address, via email.
  for (const SentMessage& m : messages) {
    EXPECT_EQ(m.address, "carla@elysee.fr");
    EXPECT_EQ(m.text, "Hot!");
  }
  EXPECT_FALSE(q3->accumulated_actions().empty());

  // Cooling down stops the alerts.
  scenario_->sensors()[1]->set_bias(0.0);
  scenario_->ClearOutboxes();
  executor_->Run(2);
  EXPECT_TRUE(scenario_->AllSentMessages().empty());
}

TEST_F(ContinuousTest, Q3DoesNotReinvokeForStandingTuples) {
  // §4.2: the continuous invocation operator only fires for newly
  // inserted tuples. A constant-hot sensor produces one reading per
  // instant (fresh tuples each time because the temperature value
  // changes); message count must track reading count, not relation size.
  auto q3 = std::make_shared<ContinuousQuery>("q3", scenario_->Q3());
  ASSERT_TRUE(executor_->Register(q3).ok());
  scenario_->sensors()[1]->set_bias(20.0);
  executor_->Run(4);
  // One alert per instant from sensor06 (sensor07's base may also cross).
  const auto messages = scenario_->AllSentMessages();
  EXPECT_GE(messages.size(), 4u);
  EXPECT_LE(messages.size(), 8u);  // At most both office sensors alerting.
}

TEST_F(ContinuousTest, Q4ProducesPhotoStreamWhenCold) {
  auto q4 = std::make_shared<ContinuousQuery>("q4", scenario_->Q4());
  std::vector<std::size_t> deltas;
  q4->set_sink([&](Timestamp, const XRelation& result) {
    deltas.push_back(result.size());
  });
  ASSERT_TRUE(executor_->Register(q4).ok());

  executor_->Run(2);
  EXPECT_TRUE(executor_->last_errors().empty());
  // Nothing below 12°C yet.
  for (std::size_t d : deltas) EXPECT_EQ(d, 0u);

  // Freeze the roof sensor (sensor22, watched by webcam07).
  scenario_->sensors()[3]->set_bias(-10.0);
  deltas.clear();
  executor_->Run(1);
  ASSERT_EQ(deltas.size(), 1u);
  EXPECT_EQ(deltas[0], 1u);  // One fresh (area, photo) delta tuple.
  EXPECT_EQ(scenario_->cameras()[2]->photos_taken(), 1u);
  // Passive photos: no actions recorded.
  EXPECT_TRUE(executor_->GetQuery("q4").ValueOrDie()
                  ->accumulated_actions()
                  .empty());
}

TEST_F(ContinuousTest, DynamicDiscoveryIntegratesNewSensorWithoutRestart) {
  auto q3 = std::make_shared<ContinuousQuery>("q3", scenario_->Q3());
  ASSERT_TRUE(executor_->Register(q3).ok());
  executor_->Run(2);

  // A new (hot!) sensor appears in the office while the query runs.
  ASSERT_TRUE(scenario_->AddSensor("sensor99", "office", 60.0).ok());
  executor_->Run(1);
  const auto messages = scenario_->AllSentMessages();
  ASSERT_FALSE(messages.empty());
  EXPECT_EQ(messages[0].address, "carla@elysee.fr");
}

TEST_F(ContinuousTest, DisappearedSensorDoesNotKillQueries) {
  auto q3 = std::make_shared<ContinuousQuery>("q3", scenario_->Q3());
  ASSERT_TRUE(executor_->Register(q3).ok());
  executor_->Run(1);
  // sensor22 disappears from the registry but stays in the relation for an
  // instant (the discovery table lags) - queries must keep running.
  ASSERT_TRUE(scenario_->env().registry().Unregister("sensor22").ok());
  executor_->Run(2);
  EXPECT_TRUE(executor_->last_errors().empty());
}

TEST_F(ContinuousTest, RecoveredServiceIsRetriedForStandingTuples) {
  // A standing query directly over invoke[getTemperature](sensors): the
  // sensors relation is static, so its tuples are "standing" after the
  // first instant. If a sensor's invocation fails while unreachable, it
  // must be retried (not considered realized) once re-registered.
  auto readings = std::make_shared<ContinuousQuery>(
      "readings", Invoke(Scan("sensors"), "getTemperature"));
  std::size_t last = 0;
  readings->set_sink(
      [&](Timestamp, const XRelation& r) { last = r.size(); });
  ASSERT_TRUE(executor_->Register(readings).ok());

  // sensor22 unreachable from the start.
  auto sensor22 = scenario_->env().registry().Lookup("sensor22")
                      .ValueOrDie();
  ASSERT_TRUE(scenario_->env().registry().Unregister("sensor22").ok());
  executor_->Run(1);
  EXPECT_EQ(last, 3u);  // 3 of 4 sensors answered.

  // The device comes back: its standing tuple is retried and answers.
  ASSERT_TRUE(scenario_->env().registry().Register(sensor22).ok());
  executor_->Run(1);
  EXPECT_EQ(last, 4u);
}

TEST_F(ContinuousTest, StreamingDeletionAndHeartbeat) {
  // S[deletion] over the windowed hot readings reports readings that left
  // the window; S[heartbeat] reports everything present.
  PlanPtr hot = Select(Window("temperatures", 1),
                       Formula::Compare(Operand::Attr("temperature"),
                                        CompareOp::kGt,
                                        Operand::Const(Value::Real(35.5))));
  auto deletion = std::make_shared<ContinuousQuery>(
      "deletions", Streaming(hot, StreamingType::kDeletion));
  auto heartbeat = std::make_shared<ContinuousQuery>(
      "heartbeat", Streaming(hot, StreamingType::kHeartbeat));
  ASSERT_TRUE(executor_->Register(deletion).ok());
  ASSERT_TRUE(executor_->Register(heartbeat).ok());

  scenario_->sensors()[0]->set_bias(30.0);  // Hot corridor sensor.
  executor_->Run(1);
  scenario_->sensors()[0]->set_bias(0.0);  // Cools down.

  std::size_t deletion_count = 0;
  deletion->set_sink([&](Timestamp, const XRelation& r) {
    deletion_count += r.size();
  });
  executor_->Run(1);
  // The hot reading left the 1-instant window: reported as deletion.
  EXPECT_EQ(deletion_count, 1u);
}

TEST_F(ContinuousTest, WindowWidensContent) {
  std::size_t w1_total = 0;
  std::size_t w3_total = 0;
  auto w1 = std::make_shared<ContinuousQuery>("w1",
                                              Window("temperatures", 1));
  auto w3 = std::make_shared<ContinuousQuery>("w3",
                                              Window("temperatures", 3));
  w1->set_sink(
      [&](Timestamp, const XRelation& r) { w1_total += r.size(); });
  w3->set_sink(
      [&](Timestamp, const XRelation& r) { w3_total += r.size(); });
  ASSERT_TRUE(executor_->Register(w1).ok());
  ASSERT_TRUE(executor_->Register(w3).ok());
  executor_->Run(5);
  EXPECT_GT(w3_total, w1_total);
}

TEST_F(ContinuousTest, UnregisterStopsQuery) {
  auto q3 = std::make_shared<ContinuousQuery>("q3", scenario_->Q3());
  ASSERT_TRUE(executor_->Register(q3).ok());
  EXPECT_EQ(executor_->Unregister("q3"), Status::OK());
  EXPECT_EQ(executor_->Unregister("q3").code(), StatusCode::kNotFound);
  scenario_->sensors()[1]->set_bias(20.0);
  executor_->Run(2);
  EXPECT_TRUE(scenario_->AllSentMessages().empty());
}

TEST_F(ContinuousTest, StreamHistoryIsPruned) {
  auto w2 = std::make_shared<ContinuousQuery>("w2",
                                              Window("temperatures", 2));
  ASSERT_TRUE(executor_->Register(w2).ok());
  executor_->set_prune_slack(0);
  executor_->Run(10);
  const XDRelation* stream =
      scenario_->streams().GetStream("temperatures").ValueOrDie();
  // Only ~2 instants of history retained (4 sensors x 3 instants bound).
  EXPECT_LE(stream->size(), 12u);
}

TEST_F(ContinuousTest, ActionLogKeepsEveryOccurrenceWithTimestamps) {
  auto q3 = std::make_shared<ContinuousQuery>("q3", scenario_->Q3());
  ASSERT_TRUE(executor_->Register(q3).ok());
  scenario_->sensors()[1]->set_bias(20.0);  // Hot from the first instant.
  executor_->Run(3);
  // The Def. 8 set may collapse repeats, but the log never does: one
  // entry per physical send, tagged with its instant.
  const auto& log = q3->action_log();
  EXPECT_EQ(log.size(), scenario_->AllSentMessages().size());
  EXPECT_GE(log.size(), 3u);
  for (std::size_t i = 1; i < log.size(); ++i) {
    EXPECT_LE(log[i - 1].instant, log[i].instant);  // Firing order.
  }
  EXPECT_EQ(log[0].action.prototype, "sendMessage");
  EXPECT_GE(log.size(), q3->accumulated_actions().size());
}

TEST(ContinuousActionLogTest, RetainsRecentEntriesAndTheWholeCurrentInstant) {
  ActionLog log;
  const auto action = [](std::size_t n) {
    return Action{"sendMessage", "messenger", "email",
                  Tuple{Value::Int(static_cast<std::int64_t>(n))}};
  };
  // Many instants of 7 actions each, then one instant of more actions
  // than the log retains from earlier instants.
  constexpr std::size_t kPerInstant = 7;
  constexpr Timestamp kInstants = 3 * ActionLog::kRetained / kPerInstant;
  std::size_t appended = 0;
  for (Timestamp t = 0; t < kInstants; ++t) {
    for (std::size_t i = 0; i < kPerInstant; ++i) {
      log.Append(t, action(appended++));
    }
    const std::size_t retained = log.size() - log.first_index();
    EXPECT_LE(retained, ActionLog::kRetained + kPerInstant);
  }
  const std::size_t burst = ActionLog::kRetained + 5;
  for (std::size_t i = 0; i < burst; ++i) {
    log.Append(kInstants, action(appended++));
  }

  // size() counts every action; offsets keep addressing the same entries.
  EXPECT_EQ(log.size(), appended);
  EXPECT_GT(log.first_index(), 0u);
  EXPECT_LE(log.size() - log.first_index(), ActionLog::kRetained + burst);
  for (std::size_t i = log.first_index(); i < log.size(); ++i) {
    EXPECT_EQ(log[i].action, action(i));
  }
  // The current instant's tail is complete.
  const std::size_t start = log.InstantStart(kInstants);
  EXPECT_EQ(log.size() - start, burst);
  EXPECT_GE(start, log.first_index());
  for (std::size_t i = start; i < log.size(); ++i) {
    EXPECT_EQ(log[i].instant, kInstants);
  }
  // Iteration covers exactly the retained entries, in firing order.
  std::size_t offset = log.first_index();
  for (const LoggedAction& entry : log) {
    EXPECT_EQ(entry.action, action(offset++));
  }
  EXPECT_EQ(offset, log.size());
  EXPECT_EQ(log.InstantStart(kInstants + 1), log.size());
}

TEST(PhotoMessagingTest, Q5SendsPhotoAlertsToAreaManager) {
  // The full §5.2 surveillance pipeline: hot reading -> manager's contact
  // entry -> camera of the same area -> takePhoto -> sendPhotoMessage.
  TemperatureScenarioOptions options;
  options.photo_messaging = true;
  auto scenario = TemperatureScenario::Build(options).MoveValueOrDie();
  ContinuousExecutor executor(&scenario->env(), &scenario->streams());
  executor.AddSource(
      [&](Timestamp t) { return scenario->PumpTemperatureStream(t); });
  auto q5 = std::make_shared<ContinuousQuery>("q5", scenario->Q5());
  ASSERT_TRUE(executor.Register(q5).ok());

  executor.Run(2);
  EXPECT_TRUE(executor.last_errors().empty());
  EXPECT_TRUE(scenario->AllSentMessages().empty());

  scenario->sensors()[1]->set_bias(25.0);  // Office overheats.
  executor.Run(1);
  const auto messages = scenario->AllSentMessages();
  ASSERT_FALSE(messages.empty());
  for (const SentMessage& m : messages) {
    EXPECT_EQ(m.address, "carla@elysee.fr");  // Office manager.
    EXPECT_EQ(m.text, "Hot! photo attached");
    EXPECT_GT(m.photo_bytes, 0u);  // The picture really rode along.
  }
  // Only the office camera shot photos.
  EXPECT_GT(scenario->cameras()[0]->photos_taken(), 0u);  // camera01.
  EXPECT_EQ(scenario->cameras()[2]->photos_taken(), 0u);  // webcam07(roof).
  // Action set records the active sendPhotoMessage invocations.
  for (const Action& action : q5->accumulated_actions().actions()) {
    EXPECT_EQ(action.prototype, "sendPhotoMessage");
  }
  EXPECT_FALSE(q5->accumulated_actions().empty());
}

TEST(PhotoMessagingTest, Q5RequiresPhotoMessagingOption) {
  auto scenario = TemperatureScenario::Build().MoveValueOrDie();
  // Without the option the prototype is undeclared: schema inference and
  // evaluation must fail cleanly, not crash.
  PlanPtr q5 = scenario->Q5();
  EXPECT_FALSE(
      q5->InferSchema(scenario->env(), &scenario->streams()).ok());
}

TEST(PhotoMessagingTest, ContactsSchemaGainsPhotoAttributes) {
  TemperatureScenarioOptions options;
  options.photo_messaging = true;
  auto scenario = TemperatureScenario::Build(options).MoveValueOrDie();
  const XRelation* contacts =
      scenario->env().GetRelation("contacts").ValueOrDie();
  EXPECT_TRUE(contacts->schema().IsVirtual("photo"));
  EXPECT_TRUE(contacts->schema().IsVirtual("delivered"));
  EXPECT_EQ(contacts->schema().binding_patterns().size(), 2u);
  // Tuple arity is unchanged: virtual attributes carry no coordinate.
  EXPECT_EQ(contacts->schema().real_arity(), 3u);
}

/// RSS scenario: keyword windows and forwarding (§5.2 second experiment).
class RssContinuousTest : public ::testing::Test {
 protected:
  void SetUp() override {
    scenario_ = RssScenario::Build().MoveValueOrDie();
    executor_ = std::make_unique<ContinuousExecutor>(&scenario_->env(),
                                                     &scenario_->streams());
    executor_->AddSource(
        [this](Timestamp t) { return scenario_->PumpNews(t); });
  }

  std::unique_ptr<RssScenario> scenario_;
  std::unique_ptr<ContinuousExecutor> executor_;
};

TEST_F(RssContinuousTest, KeywordWindowTracksMatchingItems) {
  auto query = std::make_shared<ContinuousQuery>(
      "obama", scenario_->KeywordQuery("Obama", 10));
  std::size_t last_size = 0;
  std::size_t total_steps = 0;
  query->set_sink([&](Timestamp, const XRelation& r) {
    last_size = r.size();
    ++total_steps;
  });
  ASSERT_TRUE(executor_->Register(query).ok());
  executor_->Run(20);
  EXPECT_EQ(total_steps, 20u);
  EXPECT_TRUE(executor_->last_errors().empty());
  EXPECT_GT(last_size, 0u);  // Keyword rate guarantees matches in-window.
}

TEST_F(RssContinuousTest, MatchingNewsForwardedAsMessages) {
  auto query = std::make_shared<ContinuousQuery>(
      "forward", scenario_->ForwardQuery("Obama", 5, "Carla"));
  ASSERT_TRUE(executor_->Register(query).ok());
  executor_->Run(10);
  EXPECT_TRUE(executor_->last_errors().empty());
  const auto& outbox = scenario_->email()->outbox();
  ASSERT_FALSE(outbox.empty());
  for (const SentMessage& m : outbox) {
    EXPECT_EQ(m.address, "carla@elysee.fr");
    EXPECT_NE(m.text.find("Obama"), std::string::npos);
  }
  // Delta semantics: each matching item is forwarded exactly once even
  // though it stays in the window for 5 instants.
  std::set<std::string> unique_texts;
  for (const SentMessage& m : outbox) unique_texts.insert(m.text);
  EXPECT_EQ(unique_texts.size(), outbox.size());
}

}  // namespace
}  // namespace serena
