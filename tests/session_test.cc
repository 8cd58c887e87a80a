// Tests for the unified analysis facade (analysis::Session): parity with
// the raw analyzer entry points, severity configuration (promote /
// suppress, flags and environment), and the incremental registration
// lint that keeps query registration O(new query).

#include "analysis/session.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/query_set.h"
#include "common/random.h"
#include "ddl/algebra_parser.h"
#include "env/scenario.h"
#include "obs/metrics.h"

namespace serena {
namespace {

using analysis::AnalyzeOptions;
using analysis::ApplySeverity;
using analysis::Session;
using analysis::SeverityConfig;

bool HasCode(const std::vector<Diagnostic>& diagnostics, DiagCode code) {
  return std::any_of(
      diagnostics.begin(), diagnostics.end(),
      [code](const Diagnostic& d) { return d.code == code; });
}

const Diagnostic& FindCode(const std::vector<Diagnostic>& diagnostics,
                           DiagCode code) {
  for (const Diagnostic& d : diagnostics) {
    if (d.code == code) return d;
  }
  static const Diagnostic missing{};
  ADD_FAILURE() << "no diagnostic with code " << DiagCodeId(code);
  return missing;
}

class SessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    scenario_ = TemperatureScenario::Build().MoveValueOrDie();
  }

  PlanPtr Parse(const std::string& algebra) {
    return ParseAlgebra(algebra).ValueOrDie();
  }

  void AddStream(const std::string& name) {
    auto schema = ExtendedSchema::Create(
        name, {{"location", DataType::kString},
               {"temperature", DataType::kReal}});
    ASSERT_TRUE(schema.ok());
    ASSERT_TRUE(scenario_->streams().AddStream(*schema).ok());
  }

  Session MakeSession(AnalyzeOptions options = {}) {
    return Session(&scenario_->env(), &scenario_->streams(), options);
  }

  std::unique_ptr<TemperatureScenario> scenario_;
};

// --- DiagCodeFromId / SeverityConfig parsing -------------------------------

TEST(DiagCodeFromIdTest, RoundTripsEveryIdAndRejectsUnknown) {
  EXPECT_EQ(DiagCodeFromId("SER021"), DiagCode::kDeadRealization);
  EXPECT_EQ(DiagCodeFromId("ser052"), DiagCode::kPatternlessProjection);
  EXPECT_EQ(DiagCodeFromId("SER060"), DiagCode::kScriptStatement);
  EXPECT_FALSE(DiagCodeFromId("SER999").has_value());
  EXPECT_FALSE(DiagCodeFromId("bogus").has_value());
  EXPECT_FALSE(DiagCodeFromId("").has_value());
}

TEST(SeverityConfigTest, ParsesCodeLists) {
  const SeverityConfig config =
      SeverityConfig::Parse("ser021, SER052", "SER041").ValueOrDie();
  EXPECT_FALSE(config.werror_all);
  EXPECT_EQ(config.promote.count(DiagCode::kDeadRealization), 1u);
  EXPECT_EQ(config.promote.count(DiagCode::kPatternlessProjection), 1u);
  EXPECT_EQ(config.suppress.count(DiagCode::kDanglingSource), 1u);
  EXPECT_FALSE(config.empty());
}

TEST(SeverityConfigTest, AllAndStarPromoteEverything) {
  EXPECT_TRUE(SeverityConfig::Parse("all", "").ValueOrDie().werror_all);
  EXPECT_TRUE(SeverityConfig::Parse("*", "").ValueOrDie().werror_all);
  EXPECT_TRUE(SeverityConfig::Parse("", "").ValueOrDie().empty());
}

TEST(SeverityConfigTest, UnknownCodesAreLoudErrors) {
  EXPECT_EQ(SeverityConfig::Parse("SER999", "").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(SeverityConfig::Parse("", "typo").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SeverityConfigTest, FromEnvReadsAndIgnoresMalformed) {
  setenv("SERENA_WERROR", "SER030", 1);
  setenv("SERENA_NO_WARN", "SER041", 1);
  SeverityConfig config = SeverityConfig::FromEnv();
  EXPECT_EQ(config.promote.count(DiagCode::kActiveUnderFilter), 1u);
  EXPECT_EQ(config.suppress.count(DiagCode::kDanglingSource), 1u);

  setenv("SERENA_WERROR", "not-a-code", 1);
  config = SeverityConfig::FromEnv();
  EXPECT_TRUE(config.empty());

  unsetenv("SERENA_WERROR");
  unsetenv("SERENA_NO_WARN");
}

TEST(SeverityConfigTest, DuplicateCodesCollapseToOne) {
  const SeverityConfig config =
      SeverityConfig::Parse("SER021,ser021, SER021", "SER041,SER041")
          .ValueOrDie();
  EXPECT_EQ(config.promote.size(), 1u);
  EXPECT_EQ(config.promote.count(DiagCode::kDeadRealization), 1u);
  EXPECT_EQ(config.suppress.size(), 1u);
}

TEST(SeverityConfigTest, EmptyTokensAndWhitespaceAreSkipped) {
  // `--werror=` with a dangling comma or stray spaces must not error;
  // only real tokens are validated.
  const SeverityConfig config =
      SeverityConfig::Parse(",, SER021 ,", "").ValueOrDie();
  EXPECT_EQ(config.promote.size(), 1u);
  EXPECT_EQ(config.promote.count(DiagCode::kDeadRealization), 1u);
  EXPECT_TRUE(SeverityConfig::Parse(",", ",").ValueOrDie().empty());
  EXPECT_TRUE(SeverityConfig::Parse("", "").ValueOrDie().empty());
}

TEST(SeverityConfigTest, ExplicitParseIgnoresTheEnvironment) {
  // The CLI contract: when severity flags are given, `Parse` alone
  // decides — `SERENA_WERROR` must not leak into the result.
  setenv("SERENA_WERROR", "SER041", 1);
  const SeverityConfig config =
      SeverityConfig::Parse("SER030", "").ValueOrDie();
  EXPECT_EQ(config.promote.count(DiagCode::kActiveUnderFilter), 1u);
  EXPECT_EQ(config.promote.count(DiagCode::kDanglingSource), 0u);
  unsetenv("SERENA_WERROR");
}

TEST(SeverityConfigTest, ApplySeverityPromotesAndSuppresses) {
  SeverityConfig config;
  config.promote.insert(DiagCode::kDeadRealization);
  config.suppress.insert(DiagCode::kDanglingSource);
  std::vector<Diagnostic> diagnostics = {
      {DiagCode::kUnknownRelation, Diagnostic::Severity::kError, "", "e"},
      {DiagCode::kDeadRealization, Diagnostic::Severity::kWarning, "", "w1"},
      {DiagCode::kDanglingSource, Diagnostic::Severity::kWarning, "", "w2"},
      {DiagCode::kCartesianJoin, Diagnostic::Severity::kWarning, "", "w3"},
  };
  ApplySeverity(config, &diagnostics);
  ASSERT_EQ(diagnostics.size(), 3u);
  EXPECT_TRUE(diagnostics[0].is_error());   // untouched error
  EXPECT_TRUE(diagnostics[1].is_error());   // promoted
  EXPECT_FALSE(diagnostics[2].is_error());  // w3, still a warning
  EXPECT_FALSE(HasCode(diagnostics, DiagCode::kDanglingSource));
  // The kept diagnostics survive intact — the in-place compaction must
  // not clear messages via self-move when nothing was suppressed yet.
  EXPECT_EQ(diagnostics[0].message, "e");
  EXPECT_EQ(diagnostics[1].message, "w1");
  EXPECT_EQ(diagnostics[2].message, "w3");
}

// --- Facade parity ---------------------------------------------------------

TEST_F(SessionTest, AnalyzePlanMatchesRawAnalyzer) {
  const std::vector<PlanPtr> plans = {
      Scan("ghost"),
      scenario_->Q1Prime(),
      Parse("project[area](invoke[checkPhoto](cameras))"),
  };
  const Session session = MakeSession();
  for (const PlanPtr& plan : plans) {
    const auto via_session = session.AnalyzePlan(plan).ValueOrDie();
    const auto direct =
        AnalyzePlan(plan, scenario_->env(), &scenario_->streams())
            .ValueOrDie();
    ASSERT_EQ(via_session.size(), direct.size());
    for (std::size_t i = 0; i < direct.size(); ++i) {
      EXPECT_EQ(via_session[i].code, direct[i].code);
      EXPECT_EQ(via_session[i].severity, direct[i].severity);
      EXPECT_EQ(via_session[i].message, direct[i].message);
      EXPECT_EQ(via_session[i].node, direct[i].node);
    }
  }
}

TEST_F(SessionTest, GateStylePromotionSurvivesErrorsOnlyFilter) {
  // The dead passive invocation is a warning: invisible to an
  // errors-only session...
  const PlanPtr plan = Parse("project[area](invoke[checkPhoto](cameras))");
  AnalyzeOptions gate;
  gate.include_warnings = false;
  EXPECT_TRUE(MakeSession(gate).AnalyzePlan(plan).ValueOrDie().empty());

  // ...until severity config promotes it — then it surfaces as an error
  // even though warnings stay filtered.
  gate.severity = SeverityConfig::Parse("SER021", "").ValueOrDie();
  const auto promoted = MakeSession(gate).AnalyzePlan(plan).ValueOrDie();
  EXPECT_TRUE(FindCode(promoted, DiagCode::kDeadRealization).is_error());
  EXPECT_FALSE(IsValid(promoted));
}

TEST_F(SessionTest, SuppressedWarningsDisappear) {
  const PlanPtr plan = Parse("project[area](invoke[checkPhoto](cameras))");
  EXPECT_TRUE(HasCode(MakeSession().AnalyzePlan(plan).ValueOrDie(),
                      DiagCode::kDeadRealization));
  AnalyzeOptions options;
  options.severity = SeverityConfig::Parse("", "SER021").ValueOrDie();
  EXPECT_FALSE(HasCode(MakeSession(options).AnalyzePlan(plan).ValueOrDie(),
                       DiagCode::kDeadRealization));
}

// --- Committed-query lifecycle ---------------------------------------------

TEST_F(SessionTest, CommitRemoveLifecycle) {
  Session session = MakeSession();
  const PlanPtr plan = Parse("window[1](temperatures)");
  session.CommitQuery("a", plan, {});
  session.CommitQuery("b", plan, {"derived"});
  EXPECT_EQ(session.query_count(), 2u);
  EXPECT_EQ(session.QueryNames(), (std::vector<std::string>{"a", "b"}));

  // Re-commit replaces, remove erases, clear empties.
  session.CommitQuery("a", plan, {"other"});
  EXPECT_EQ(session.query_count(), 2u);
  session.RemoveQuery("b");
  EXPECT_EQ(session.QueryNames(), (std::vector<std::string>{"a"}));
  session.Clear();
  EXPECT_EQ(session.query_count(), 0u);
}

// --- Incremental registration lint -----------------------------------------

TEST_F(SessionTest, WriterConflictMatchesQuerySetWording) {
  const PlanPtr plan = Parse("window[1](temperatures)");
  Session session = MakeSession();
  session.CommitQuery("a", plan, {"derived"});
  const auto incremental =
      session.LintRegistration("b", plan, {"derived"}).ValueOrDie();
  const Diagnostic& from_session =
      FindCode(incremental, DiagCode::kWriterConflict);

  // The full (non-incremental) set lint must produce the identical
  // message — the facade's contract is byte-equal diagnostics.
  const std::vector<QuerySetEntry> entries = {
      {"a", plan, {"derived"}}, {"b", plan, {"derived"}}};
  const auto full = AnalyzeQuerySet(entries, {}).ValueOrDie();
  const Diagnostic& from_set = FindCode(full, DiagCode::kWriterConflict);
  EXPECT_EQ(from_session.message, from_set.message);
  EXPECT_EQ(from_session.hint, from_set.hint);
  EXPECT_TRUE(from_session.is_error());
}

TEST_F(SessionTest, DanglingSourceMatchesQuerySetWording) {
  AddStream("s1");
  const PlanPtr reader = Parse("window[1](s1)");
  Session session = MakeSession();
  const auto incremental =
      session.LintRegistration("r", reader, {}).ValueOrDie();
  const Diagnostic& from_session =
      FindCode(incremental, DiagCode::kDanglingSource);

  const std::vector<QuerySetEntry> entries = {{"r", reader, {}}};
  const auto full = AnalyzeQuerySet(entries, {}).ValueOrDie();
  const Diagnostic& from_set = FindCode(full, DiagCode::kDanglingSource);
  EXPECT_EQ(from_session.message, from_set.message);
  EXPECT_EQ(from_session.hint, from_set.hint);

  // Declaring the stream as source-fed clears the warning.
  AnalyzeOptions options;
  options.source_fed_streams = {"s1"};
  Session fed = MakeSession(options);
  EXPECT_FALSE(HasCode(fed.LintRegistration("r", reader, {}).ValueOrDie(),
                       DiagCode::kDanglingSource));
}

TEST_F(SessionTest, CycleThroughCommittedFrontierDetected) {
  AddStream("s1");
  AddStream("s2");
  Session session = MakeSession();
  // Committed: a reads s1, feeds s2. Candidate: reads s2, feeds s1 —
  // the cycle closes through the committed query.
  session.CommitQuery("a", Parse("window[1](s1)"), {"s2"});
  const auto diagnostics =
      session.LintRegistration("b", Parse("window[1](s2)"), {"s1"})
          .ValueOrDie();
  const Diagnostic& cycle = FindCode(diagnostics, DiagCode::kQueryCycle);
  EXPECT_TRUE(cycle.is_error());
  EXPECT_NE(cycle.message.find("b -> a -> b"), std::string::npos);

  // Self-loop: candidate feeds what it reads.
  const auto self_loop =
      session.LintRegistration("loop", Parse("window[1](s1)"), {"s1"})
          .ValueOrDie();
  EXPECT_TRUE(HasCode(self_loop, DiagCode::kQueryCycle));
}

TEST_F(SessionTest, FrontierLintTouchesOnlyTheDependencyFrontier) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  metrics.set_enabled(true);
  for (int i = 1; i <= 6; ++i) AddStream("s" + std::to_string(i));

  Session session = MakeSession();
  // A five-query chain: q_i reads s_i and feeds s_{i+1} ...
  for (int i = 1; i <= 5; ++i) {
    session.CommitQuery("q" + std::to_string(i),
                        Parse("window[1](s" + std::to_string(i) + ")"),
                        {"s" + std::to_string(i + 1)});
  }
  // ... plus fifty unrelated queries off the temperatures stream.
  for (int i = 0; i < 50; ++i) {
    session.CommitQuery("t" + std::to_string(i),
                        Parse("window[1](temperatures)"), {});
  }

  const std::uint64_t before =
      metrics.GetCounter("serena.analyze.frontier_queries").value();
  // A candidate feeding the chain's head visits exactly the five chain
  // queries — never the fifty unrelated ones.
  const auto diagnostics =
      session.LintRegistration("head", Parse("window[1](temperatures)"),
                               {"s1"})
          .ValueOrDie();
  EXPECT_FALSE(HasCode(diagnostics, DiagCode::kQueryCycle));
  EXPECT_EQ(
      metrics.GetCounter("serena.analyze.frontier_queries").value() - before,
      5u);
}

TEST_F(SessionTest, RemovingAQueryReindexesOnlyItsStreams) {
  for (int i = 1; i <= 6; ++i) AddStream("s" + std::to_string(i));
  Session session = MakeSession();
  // The chain q_i: reads s_i, feeds s_{i+1}; removing q2 shifts q3..q5.
  for (int i = 1; i <= 5; ++i) {
    session.CommitQuery("q" + std::to_string(i),
                        Parse("window[1](s" + std::to_string(i) + ")"),
                        {"s" + std::to_string(i + 1)});
  }
  session.RemoveQuery("q2");
  EXPECT_EQ(session.QueryNames(),
            (std::vector<std::string>{"q1", "q3", "q4", "q5"}));

  // s3 lost its producer: feeding it is no conflict, reading it dangles.
  EXPECT_FALSE(HasCode(
      session.LintRegistration("c", Parse("window[1](s1)"), {"s3"})
          .ValueOrDie(),
      DiagCode::kWriterConflict));
  EXPECT_TRUE(HasCode(
      session.LintRegistration("c", Parse("window[1](s3)"), {}).ValueOrDie(),
      DiagCode::kDanglingSource));
  // The shifted producers and readers still resolve to the right names.
  const auto conflict =
      session.LintRegistration("c", Parse("window[1](s1)"), {"s4"})
          .ValueOrDie();
  EXPECT_NE(FindCode(conflict, DiagCode::kWriterConflict)
                .message.find("'q3' and 'c'"),
            std::string::npos);
  const auto cycle =
      session.LintRegistration("c", Parse("window[1](s5)"), {"s3"})
          .ValueOrDie();
  EXPECT_NE(FindCode(cycle, DiagCode::kQueryCycle)
                .message.find("c -> q3 -> q4 -> c"),
            std::string::npos);
}

TEST_F(SessionTest, RemovalMatchesAFreshlyCommittedSession) {
  for (int i = 0; i < 5; ++i) AddStream("s" + std::to_string(i));
  const auto window = [this](std::uint64_t k) {
    return Parse("window[1](s" + std::to_string(k) + ")");
  };
  struct Committed {
    std::string name;
    std::uint64_t read;
    std::vector<std::string> feeds;
  };
  Rng rng(7);
  Session session = MakeSession();
  std::vector<Committed> committed;
  for (int op = 0; op < 200; ++op) {
    if (committed.empty() || rng.NextBool(0.55)) {
      Committed query{"q" + std::to_string(op), rng.NextBounded(5), {}};
      // Unlinted commits may feed a stream twice or share a writer.
      for (std::int64_t f = rng.NextInt(0, 2); f > 0; --f) {
        query.feeds.push_back("s" + std::to_string(rng.NextBounded(5)));
      }
      session.CommitQuery(query.name, window(query.read), query.feeds);
      committed.push_back(std::move(query));
      continue;
    }
    const std::size_t k = rng.NextBounded(committed.size());
    session.RemoveQuery(committed[k].name);
    committed.erase(committed.begin() + static_cast<std::ptrdiff_t>(k));

    Session fresh = MakeSession();
    for (const Committed& query : committed) {
      fresh.CommitQuery(query.name, window(query.read), query.feeds);
    }
    for (std::uint64_t read = 0; read < 5; ++read) {
      const std::vector<std::string> feeds = {
          "s" + std::to_string(rng.NextBounded(5))};
      EXPECT_EQ(
          RenderDiagnostics(
              session.LintRegistration("c", window(read), feeds)
                  .ValueOrDie()),
          RenderDiagnostics(
              fresh.LintRegistration("c", window(read), feeds).ValueOrDie()))
          << "after operation " << op;
    }
  }
}

// --- Whole-set lint / CheckAll ---------------------------------------------

TEST_F(SessionTest, CheckAllTagsQueriesAndAppendsSetFindings) {
  AddStream("s1");
  Session session = MakeSession();
  // A plan with a warning (dead passive invocation) plus a dangling read.
  session.CommitQuery("dead",
                      Parse("project[area](invoke[checkPhoto](cameras))"),
                      {});
  session.CommitQuery("dangling", Parse("window[1](s1)"), {});
  const auto diagnostics = session.CheckAll().ValueOrDie();
  EXPECT_EQ(FindCode(diagnostics, DiagCode::kDeadRealization).query, "dead");
  EXPECT_EQ(FindCode(diagnostics, DiagCode::kDanglingSource).query,
            "dangling");
  // Per-plan findings come first (registration order), set findings last.
  EXPECT_EQ(diagnostics.back().code, DiagCode::kDanglingSource);
}

TEST_F(SessionTest, AnalyzePlanCounterGrowsPerPlanNotPerSetSize) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  metrics.set_enabled(true);
  Session session = MakeSession();
  const PlanPtr plan = Parse("window[1](temperatures)");

  const std::uint64_t plans_before =
      metrics.GetCounter("serena.analyze.plans").value();
  const std::uint64_t registrations_before =
      metrics.GetCounter("serena.analyze.registrations").value();
  constexpr std::uint64_t kQueries = 40;
  for (std::uint64_t i = 0; i < kQueries; ++i) {
    const std::string name = "q" + std::to_string(i);
    ASSERT_TRUE(session.LintRegistration(name, plan, {}).ok());
    session.CommitQuery(name, plan, {});
  }
  // One plan analysis per registration — the committed set's size never
  // multiplies back in (the old gate re-linted all N plans each time).
  EXPECT_EQ(metrics.GetCounter("serena.analyze.plans").value() - plans_before,
            kQueries);
  EXPECT_EQ(metrics.GetCounter("serena.analyze.registrations").value() -
                registrations_before,
            kQueries);
}

}  // namespace
}  // namespace serena
