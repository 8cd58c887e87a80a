// EXPLAIN ANALYZE: running a plan and annotating every node with its
// actual row counts, timings and invocation counts. Uses the paper's §4
// walkthrough query Q1 over the temperature scenario.

#include "algebra/explain.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "env/scenario.h"

namespace serena {
namespace {

/// Splits the rendering into lines for per-node assertions.
std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

/// The line containing `needle`, or "" when absent.
std::string LineWith(const std::string& text, const std::string& needle) {
  for (const std::string& line : Lines(text)) {
    if (line.find(needle) != std::string::npos) return line;
  }
  return "";
}

class ExplainAnalyzeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    scenario_ = TemperatureScenario::Build().MoveValueOrDie();
  }

  Environment& env() { return scenario_->env(); }
  StreamStore& streams() { return scenario_->streams(); }

  std::unique_ptr<TemperatureScenario> scenario_;
};

// The §4 walkthrough query Q1:
//   β_sendMessage(α_text:='Bonjour!'(σ_name≠'Carla'(contacts)))
// contacts holds 3 tuples; the selection drops Carla, so every node above
// it produces exactly 2 rows and the invocation issues 2 service calls.
TEST_F(ExplainAnalyzeTest, AnnotatesQ1WithActualRowsAndTimings) {
  const std::string out =
      ExplainAnalyzePlan(scenario_->Q1(), &env(), &streams());

  const std::string scan = LineWith(out, "contacts");
  EXPECT_NE(scan.find("actual rows=3"), std::string::npos) << out;
  EXPECT_NE(scan.find("time="), std::string::npos) << out;

  const std::string select = LineWith(out, "select[");
  EXPECT_NE(select.find("actual rows=2"), std::string::npos) << out;

  const std::string assign = LineWith(out, "assign[");
  EXPECT_NE(assign.find("actual rows=2"), std::string::npos) << out;

  const std::string invoke = LineWith(out, "invoke[sendMessage]");
  EXPECT_NE(invoke.find("actual rows=2"), std::string::npos) << out;
  EXPECT_NE(invoke.find("invocations=2"), std::string::npos) << out;

  // The run footer: the instant it executed at and the actions the active
  // invocation produced (one sendMessage action per surviving contact).
  EXPECT_NE(out.find("actions: 2"), std::string::npos) << out;

  // ANALYZE *runs* the query: the two messengers were actually invoked.
  EXPECT_GE(env().registry().stats().physical_invocations, 2u);
}

TEST_F(ExplainAnalyzeTest, RepeatedAnalyzeCountsFreshInvocations) {
  // A second ANALYZE at a later instant re-invokes (per-instant memo does
  // not apply across instants).
  ExplainAnalyzeOptions options;
  options.instant = 50;
  const std::string first =
      ExplainAnalyzePlan(scenario_->Q1(), &env(), &streams(), options);
  EXPECT_NE(LineWith(first, "invoke[sendMessage]").find("invocations=2"),
            std::string::npos);

  options.instant = 51;
  const std::string second =
      ExplainAnalyzePlan(scenario_->Q1(), &env(), &streams(), options);
  EXPECT_NE(LineWith(second, "invoke[sendMessage]").find("invocations=2"),
            std::string::npos);
}

TEST_F(ExplainAnalyzeTest, EmptyCollectorRendersNeverExecuted) {
  PlanStats empty(*scenario_->Q1());
  const std::string out =
      RenderPlanWithStats(scenario_->Q1(), env(), &streams(), empty);
  for (const std::string& line : Lines(out)) {
    if (line.empty()) continue;
    EXPECT_NE(line.find("(never executed)"), std::string::npos) << line;
  }
}

TEST_F(ExplainAnalyzeTest, EvaluationFailureIsReportedInline) {
  // A scan of a relation that does not exist: ANALYZE still renders the
  // tree and appends the error instead of failing.
  const PlanPtr bad = Scan("no_such_relation");
  const std::string out = ExplainAnalyzePlan(bad, &env(), &streams());
  EXPECT_NE(out.find("no_such_relation"), std::string::npos);
  EXPECT_NE(out.find("evaluation failed:"), std::string::npos) << out;
}

TEST_F(ExplainAnalyzeTest, NullPlanAndEnvironmentDegradeGracefully) {
  EXPECT_EQ(ExplainAnalyzePlan(nullptr, &env(), &streams()), "(null plan)\n");
  EXPECT_EQ(ExplainAnalyzePlan(scenario_->Q1(), nullptr, &streams()),
            "(no environment)\n");
}

// Plain EXPLAIN must be unaffected by the ANALYZE plumbing: no actual-row
// annotations, no execution.
TEST_F(ExplainAnalyzeTest, PlainExplainDoesNotExecute) {
  const std::uint64_t physical_before =
      env().registry().stats().physical_invocations;
  const std::string out = ExplainPlan(scenario_->Q1(), env(), &streams());
  EXPECT_EQ(out.find("actual rows"), std::string::npos);
  EXPECT_EQ(env().registry().stats().physical_invocations, physical_before);
}

}  // namespace
}  // namespace serena
