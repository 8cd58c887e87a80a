// An interactive PEMS shell: type Serena DDL and Serena Algebra Language
// statements against a live (simulated) pervasive environment.
//
//   $ ./serena_shell
//   serena> PROTOTYPE getTemperature() : (temperature REAL);
//   serena> SERVICE sensor01 IMPLEMENTS getTemperature;
//   serena> EXTENDED RELATION sensors (sensor SERVICE, location STRING,
//           temperature REAL VIRTUAL) USING BINDING PATTERNS (
//           getTemperature[sensor]() : (temperature));
//   serena> INSERT INTO sensors VALUES ('sensor01', 'office');
//   serena> invoke[getTemperature](sensors);
//   serena> \explain invoke[getTemperature](sensors)
//   serena> \register watch invoke[getTemperature](sensors)
//   serena> \tick 3
//   serena> \quit
//
// SERVICE declarations instantiate synthetic (simulated) devices, so a
// DDL-only session is fully executable. Also usable non-interactively:
// `./serena_shell < script.serena`.

#include <unistd.h>

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "algebra/explain.h"
#include "analysis/session.h"
#include "common/string_util.h"
#include "ddl/dump.h"
#include "io/csv.h"
#include "obs/flightrec/postmortem.h"
#include "obs/meta.h"
#include "obs/metrics.h"
#include "obs/stats.h"
#include "optimizer/pipeline.h"
#include "pems/monitor.h"
#include "pems/pems.h"

namespace {

using namespace serena;

void PrintHelp() {
  std::cout <<
      "Statements (end with ';'):\n"
      "  PROTOTYPE name(in...) : (out...) [ACTIVE];\n"
      "  SERVICE ref IMPLEMENTS proto[, proto...];   (synthetic device)\n"
      "  EXTENDED RELATION name (...) [USING BINDING PATTERNS (...)];\n"
      "  EXTENDED STREAM name (...);\n"
      "  INSERT INTO name VALUES (...)[, (...)];\n"
      "  DELETE FROM name [WHERE condition];\n"
      "  DROP RELATION name;   DROP STREAM name;\n"
      "  <algebra expression>;                       (one-shot query)\n"
      "Commands:\n"
      "  \\tables            list relations and streams\n"
      "  \\services          list registered services\n"
      "  \\show NAME         print a relation\n"
      "  \\explain EXPR      show the operator tree with schemas\n"
      "  \\analyze EXPR      EXPLAIN ANALYZE: run EXPR, show actual "
      "rows/timings\n"
      "  \\optimize [--stages=LIST] EXPR\n"
      "                     run the optimizer pipeline and show the chosen\n"
      "                     plan; LIST picks stages (semantic,cost,rules)\n"
      "  \\validate EXPR     static diagnostics (errors + warnings)\n"
      "  \\check [-Werror=CODES] [-no-warn=CODES]\n"
      "                     lint all registered continuous queries\n"
      "  \\register NAME EXPR   register a continuous query\n"
      "  \\unregister NAME   drop a continuous query\n"
      "  \\prepare NAME EXPR    store a :param query template\n"
      "  \\exec NAME k=v ...    bind parameters and run a template\n"
      "  \\tick [N]          advance N logical instants (default 1)\n"
      "  \\stats [json]      invocation / network statistics\n"
      "  \\stats ops         per-operator runtime statistics "
      "(fingerprint, selectivity, memo)\n"
      "  \\stats save [FILE] write the stats store as JSON "
      "(default: $SERENA_STATS_FILE)\n"
      "  \\health            per-query health (lag, error streak, "
      "latency)\n"
      "  \\metrics [prom]    telemetry registry as JSON (or Prometheus "
      "text)\n"
      "  \\flightrec status  flight recorder / watchdog / postmortem "
      "state\n"
      "  \\flightrec dump    write a postmortem bundle now "
      "($SERENA_POSTMORTEM_DIR)\n"
      "  \\dump              environment as a reloadable DDL script\n"
      "  \\save FILE         write the DDL dump to a file\n"
      "  \\load FILE         execute a DDL script from a file\n"
      "  \\csv NAME          relation as CSV\n"
      "  \\help  \\quit\n";
}

bool IsDdl(const std::string& text) {
  std::istringstream in(text);
  std::string head;
  in >> head;
  const std::string lower = ToLower(head);
  return lower == "prototype" || lower == "service" || lower == "extended" ||
         lower == "insert" || lower == "delete" || lower == "drop";
}

/// Reads relation `name` as a one-shot scan would: a sys_* meta-relation
/// is refreshed first.
Result<const XRelation*> ReadRelation(Pems& pems, const std::string& name) {
  SERENA_RETURN_NOT_OK(pems.queries().executor().RefreshScannedBy(Scan(name)));
  return pems.env().GetRelation(name);
}

void RunStatement(Pems& pems, const std::string& statement) {
  if (IsDdl(statement)) {
    const Status status = pems.tables().ExecuteDdl(statement);
    std::cout << (status.ok() ? "ok" : status.ToString()) << "\n";
    return;
  }
  auto result = pems.queries().ExecuteOneShot(statement);
  if (!result.ok()) {
    std::cout << result.status() << "\n";
    return;
  }
  std::cout << result->relation.ToTableString();
  std::cout << result->relation.size() << " tuple(s)";
  if (!result->actions.empty()) {
    std::cout << ", actions: " << result->actions.ToString();
  }
  std::cout << "\n";
}

void RunCommand(Pems& pems, const std::string& line) {
  std::istringstream in(line);
  std::string command;
  in >> command;
  std::string rest;
  std::getline(in, rest);
  const std::string arg(Trim(rest));

  if (command == "\\help") {
    PrintHelp();
  } else if (command == "\\tables") {
    for (const std::string& name : pems.env().RelationNames()) {
      const XRelation* r = pems.env().GetRelation(name).ValueOrDie();
      std::cout << "  " << name << " (" << r->size() << " tuples, "
                << r->schema().binding_patterns().size()
                << " binding patterns)\n";
    }
    for (const std::string& name : pems.streams().StreamNames()) {
      std::cout << "  " << name << " (stream)\n";
    }
  } else if (command == "\\services") {
    for (const std::string& ref : pems.env().registry().ServiceRefs()) {
      auto service = pems.env().registry().Lookup(ref).ValueOrDie();
      std::cout << "  " << ref << " implements";
      for (const auto& proto : service->prototypes()) {
        std::cout << " " << proto->name();
      }
      std::cout << "\n";
    }
  } else if (command == "\\show") {
    auto relation = ReadRelation(pems, arg);
    if (!relation.ok()) {
      std::cout << relation.status() << "\n";
    } else {
      std::cout << (*relation)->ToTableString();
    }
  } else if (command == "\\explain" || command == "\\optimize") {
    std::string expr = arg;
    optimizer::OptimizerOptions options =
        pems.queries().optimizer_options();
    constexpr std::string_view kStagesFlag = "--stages=";
    if (command == "\\optimize" && expr.rfind(kStagesFlag, 0) == 0) {
      const std::size_t space = expr.find(' ');
      const std::string flag =
          expr.substr(kStagesFlag.size(),
                      (space == std::string::npos ? expr.size() : space) -
                          kStagesFlag.size());
      auto parsed = optimizer::OptimizerOptions::FromStages(flag);
      if (!parsed.ok()) {
        std::cout << parsed.status() << "\n";
        return;
      }
      options = *parsed;
      expr = space == std::string::npos
                 ? ""
                 : std::string(Trim(expr.substr(space + 1)));
    }
    auto plan = ParseAlgebra(expr);
    if (!plan.ok()) {
      std::cout << plan.status() << "\n";
      return;
    }
    PlanPtr shown = *plan;
    if (command == "\\optimize") {
      // The full pipeline: semantic folds (with their EXPLAIN-level
      // equivalence proofs), cost-based enumeration (chosen vs rejected
      // plan costs), classic rules.
      optimizer::Pipeline pipeline(&pems.env(), &pems.streams(), options);
      optimizer::PipelineReport report;
      auto optimized =
          pipeline.Optimize(shown, AnalysisContext::kNeutral, &report);
      if (!optimized.ok()) {
        std::cout << optimized.status() << "\n";
        return;
      }
      std::cout << report.Render();
      shown = *optimized;
    }
    // Annotate each node with the abstract interpreter's proven
    // cardinality bounds and selectivity estimate (docs/ANALYSIS.md,
    // pass 6) — "card=[0, 3] sel=0.33".
    ExplainOptions explain_options;
    const auto static_bounds =
        pems.queries().analysis_session().StaticBoundsAnnotations(
            shown, AnalysisContext::kNeutral);
    explain_options.node_annotations = &static_bounds;
    std::cout << ExplainPlan(shown, pems.env(), &pems.streams(),
                             explain_options);
  } else if (command == "\\analyze") {
    auto plan = ParseAlgebra(arg);
    if (!plan.ok()) {
      std::cout << plan.status() << "\n";
      return;
    }
    // Runs the query (active side effects included) and annotates each
    // node with its actual rows, timings and invocation counts. Like any
    // one-shot, it reads freshly refreshed sys_* meta-relations.
    const Status refreshed = pems.queries().executor().RefreshScannedBy(*plan);
    if (!refreshed.ok()) {
      std::cout << refreshed << "\n";
      return;
    }
    std::cout << ExplainAnalyzePlan(*plan, &pems.env(), &pems.streams());
  } else if (command == "\\validate") {
    auto plan = ParseAlgebra(arg);
    if (!plan.ok()) {
      std::cout << plan.status() << "\n";
      return;
    }
    analysis::Session session(&pems.env(), &pems.streams());
    auto diagnostics = session.AnalyzePlan(*plan);
    if (!diagnostics.ok()) {
      std::cout << diagnostics.status() << "\n";
    } else if (diagnostics->empty()) {
      std::cout << "ok: no findings\n";
    } else {
      for (const Diagnostic& d : *diagnostics) {
        std::cout << "  " << d.ToString() << "\n";
      }
    }
  } else if (command == "\\check") {
    // Re-analyze every registered continuous query plus their
    // feeds/reads graph — the static gate's view, warnings included.
    // Optional args: -Werror=CODES (or bare -Werror) promotes warnings
    // to errors, -no-warn=CODES suppresses codes.
    std::string werror_list;
    std::string no_warn_list;
    {
      std::istringstream args(arg);
      std::string flag;
      while (args >> flag) {
        if (flag == "-Werror" || flag == "--werror") {
          werror_list = "all";
        } else if (flag.rfind("-Werror=", 0) == 0) {
          werror_list = flag.substr(8);
        } else if (flag.rfind("--werror=", 0) == 0) {
          werror_list = flag.substr(9);
        } else if (flag.rfind("-no-warn=", 0) == 0) {
          no_warn_list = flag.substr(9);
        } else if (flag.rfind("--no-warn=", 0) == 0) {
          no_warn_list = flag.substr(10);
        } else {
          std::cout << "unknown \\check option " << flag << "\n";
          return;
        }
      }
    }
    auto severity = analysis::SeverityConfig::Parse(werror_list, no_warn_list);
    if (!severity.ok()) {
      std::cout << severity.status() << "\n";
      return;
    }
    ContinuousExecutor& executor = pems.queries().executor();
    analysis::AnalyzeOptions options;
    options.context = AnalysisContext::kContinuous;
    options.severity = *severity;
    options.source_fed_streams = executor.SourceFedStreams();
    analysis::Session session(&pems.env(), &pems.streams(), options);
    for (const std::string& name : executor.QueryNames()) {
      auto query = executor.GetQuery(name);
      if (!query.ok()) continue;
      session.CommitQuery((*query)->name(), (*query)->plan(),
                          (*query)->feeds());
    }
    std::size_t findings = 0;
    auto diagnostics = session.CheckAll();
    if (!diagnostics.ok()) {
      std::cout << diagnostics.status() << "\n";
      return;
    }
    for (const Diagnostic& d : *diagnostics) {
      std::cout << "  " << d.ToString() << "\n";
      ++findings;
    }
    std::cout << session.query_count() << " quer"
              << (session.query_count() == 1 ? "y" : "ies") << " checked, "
              << findings << " finding(s)\n";
  } else if (command == "\\register") {
    std::istringstream args(arg);
    std::string name;
    args >> name;
    std::string expr;
    std::getline(args, expr);
    const Status status = pems.queries().RegisterContinuous(
        name, Trim(expr),
        [name](Timestamp t, const XRelation& result) {
          if (!result.empty()) {
            std::cout << "[" << name << " @t=" << t << "]\n"
                      << result.ToTableString();
          }
        });
    std::cout << (status.ok() ? "registered" : status.ToString()) << "\n";
  } else if (command == "\\unregister") {
    const Status status = pems.queries().UnregisterContinuous(arg);
    std::cout << (status.ok() ? "unregistered" : status.ToString()) << "\n";
  } else if (command == "\\prepare") {
    std::istringstream args(arg);
    std::string name;
    args >> name;
    std::string expr;
    std::getline(args, expr);
    const Status status = pems.queries().Prepare(name, Trim(expr));
    if (status.ok()) {
      auto params = pems.queries().PreparedParameters(name).ValueOrDie();
      std::cout << "prepared with " << params.size() << " parameter(s)";
      for (const std::string& p : params) std::cout << " :" << p;
      std::cout << "\n";
    } else {
      std::cout << status << "\n";
    }
  } else if (command == "\\exec") {
    std::istringstream args(arg);
    std::string name;
    args >> name;
    std::map<std::string, Value> bindings;
    std::string pair;
    while (args >> pair) {
      const std::size_t eq = pair.find('=');
      if (eq == std::string::npos) {
        std::cout << "expected k=v, got " << pair << "\n";
        return;
      }
      // Values are typed like algebra literals; bare words are strings.
      const std::string raw = pair.substr(eq + 1);
      Value value = Value::String(raw);
      if (raw == "true" || raw == "false") {
        value = Value::Bool(raw == "true");
      } else if (raw.find_first_not_of("-0123456789.") ==
                 std::string::npos) {
        value = raw.find('.') == std::string::npos
                    ? Value::Int(std::atoll(raw.c_str()))
                    : Value::Real(std::atof(raw.c_str()));
      }
      bindings.emplace(pair.substr(0, eq), std::move(value));
    }
    auto result = pems.queries().ExecutePrepared(name, bindings);
    if (!result.ok()) {
      std::cout << result.status() << "\n";
    } else {
      std::cout << result->relation.ToTableString();
      if (!result->actions.empty()) {
        std::cout << "actions: " << result->actions.ToString() << "\n";
      }
    }
  } else if (command == "\\tick") {
    const int n = arg.empty() ? 1 : std::atoi(arg.c_str());
    const Timestamp now = pems.Run(n);
    std::cout << "t=" << now << "\n";
  } else if (command == "\\stats") {
    if (arg == "json") {
      std::cout << SnapshotMetrics(pems).ToJson() << "\n";
    } else if (arg == "ops") {
      // The runtime statistics store: cross-run per-operator aggregates
      // keyed by stable fingerprint (also queryable as
      // sys_operator_stats).
      const auto operators = obs::StatsStore::Global().Snapshot();
      if (operators.empty()) {
        std::cout << "no operator statistics yet (run some queries)\n";
      }
      for (const obs::OperatorStats& op : operators) {
        std::cout << "  " << op.fingerprint << " " << op.label
                  << ": evals " << op.evals << ", rows in/out "
                  << op.rows_in << "/" << op.rows_out << ", sel "
                  << op.selectivity() << ", time "
                  << static_cast<double>(op.wall_ns) / 1e6 << "ms";
        if (op.invocations > 0) {
          std::cout << ", invocations " << op.invocations << " (memo "
                    << op.memo_hit_rate() * 100 << "%)";
        }
        if (op.errors > 0) std::cout << ", errors " << op.errors;
        std::cout << "\n";
      }
      for (const obs::BetaLatencyProfile& beta :
           obs::StatsStore::Global().BetaProfiles()) {
        std::cout << "  β " << beta.prototype << ": " << beta.count
                  << " physical calls, mean " << beta.mean_ns / 1e6
                  << "ms, p99 " << static_cast<double>(beta.p99_ns) / 1e6
                  << "ms, memo " << beta.memo_hit_rate() * 100 << "%\n";
      }
    } else if (arg == "save" || arg.rfind("save ", 0) == 0) {
      const std::string path(Trim(arg.substr(4)));
      if (!path.empty()) {
        const Status status = obs::StatsStore::Global().SaveToFile(path);
        std::cout << (status.ok() ? "stats saved to " + path
                                  : status.ToString())
                  << "\n";
      } else if (obs::StatsStore::Global().MaybeSaveEnvFile()) {
        std::cout << "stats saved to $SERENA_STATS_FILE\n";
      } else {
        std::cout << "nothing saved (set SERENA_STATS_FILE or pass a "
                     "path)\n";
      }
    } else {
      std::cout << SnapshotMetrics(pems).ToString();
    }
  } else if (command == "\\health") {
    const auto snapshots = pems.queries().executor().health().Snapshots();
    if (snapshots.empty()) {
      std::cout << "no continuous queries registered\n";
    }
    for (const QueryHealth::QuerySnapshot& q : snapshots) {
      std::cout << "  " << q.name << ": last instant "
                << q.last_completed_instant << ", lag " << q.lag
                << ", streak " << q.error_streak << ", errors "
                << q.total_errors << ", steps " << q.steps << ", p50 "
                << q.p50_step_ns / 1000.0 << "us, p99 "
                << q.p99_step_ns / 1000.0 << "us, rows in/out per step "
                << q.rows_in_rate << "/" << q.rows_out_rate << "\n";
    }
  } else if (command == "\\metrics") {
    if (arg == "prom") {
      // Prometheus text exposition, same as SERENA_METRICS_FILE dumps.
      std::cout << obs::MetricsRegistry::Global().DumpPrometheus();
    } else {
      // The raw process-wide registry (see docs/OBSERVABILITY.md).
      std::cout << obs::MetricsRegistry::Global().ToJson() << "\n";
    }
  } else if (command == "\\flightrec") {
    if (arg == "dump") {
      auto bundle = obs::flightrec::Postmortem::Global().WriteBundle("manual");
      if (bundle.ok()) {
        std::cout << "postmortem bundle written to " << *bundle << "\n";
      } else {
        std::cout << bundle.status() << "\n";
      }
    } else {
      // \flightrec status (the default): the recorder's journal health,
      // the watchdog's trip state and the postmortem configuration.
      const obs::flightrec::FlightRecorder* recorder = pems.flight_recorder();
      if (recorder == nullptr) {
        std::cout << "recorder: not attached (set SERENA_FLIGHTREC_DIR)\n";
      } else {
        const obs::flightrec::Journal& journal = recorder->journal();
        std::cout << "recorder: journaling to " << journal.dir() << "\n"
                  << "  segments " << journal.segment_count() << ", bytes "
                  << journal.bytes_written() << ", ticks " << journal.ticks()
                  << ", dropped " << journal.dropped_ticks() << "\n";
      }
      const obs::flightrec::TickWatchdog* watchdog = pems.watchdog();
      if (watchdog == nullptr) {
        std::cout << "watchdog: off (set SERENA_WATCHDOG_MS)\n";
      } else {
        std::cout << "watchdog: threshold " << watchdog->threshold_ms()
                  << "ms, trips " << watchdog->trips() << "\n";
      }
      auto& postmortem = obs::flightrec::Postmortem::Global();
      if (!postmortem.configured()) {
        std::cout << "postmortem: off (set SERENA_POSTMORTEM_DIR)\n";
      } else {
        std::cout << "postmortem: configured, bundles written "
                  << postmortem.bundles_written() << "\n";
      }
    }
  } else if (command == "\\dump") {
    std::cout << DumpEnvironment(pems.env(), &pems.streams());
  } else if (command == "\\save") {
    std::ofstream out(arg);
    if (!out) {
      std::cout << "cannot write " << arg << "\n";
    } else {
      out << DumpEnvironment(pems.env(), &pems.streams());
      std::cout << "saved to " << arg << "\n";
    }
  } else if (command == "\\load") {
    std::ifstream in(arg);
    if (!in) {
      std::cout << "cannot read " << arg << "\n";
    } else {
      std::stringstream buffer;
      buffer << in.rdbuf();
      const Status status = pems.tables().ExecuteDdl(buffer.str());
      std::cout << (status.ok() ? "loaded" : status.ToString()) << "\n";
    }
  } else if (command == "\\csv") {
    auto relation = ReadRelation(pems, arg);
    if (!relation.ok()) {
      std::cout << relation.status() << "\n";
    } else {
      auto csv = ToCsv(**relation);
      std::cout << (csv.ok() ? *csv : csv.status().ToString());
    }
  } else {
    std::cout << "unknown command " << command << " (try \\help)\n";
  }
}

}  // namespace

int main() {
  auto pems = Pems::Create().MoveValueOrDie();
  // The shell's PEMS observes itself: the sys_* meta-relations are
  // queryable like any other relation and refreshed whenever a query
  // reads them (see docs/OBSERVABILITY.md).
  const Status meta_status = obs::RegisterMetaRelations(
      &pems->env(), &pems->queries().executor());
  if (!meta_status.ok()) {
    std::cerr << "meta-relations unavailable: " << meta_status << "\n";
  }
  const bool interactive = isatty(0);
  if (interactive) {
    std::cout << "Serena PEMS shell. \\help for help, \\quit to exit.\n";
  }

  std::string buffer;
  std::string line;
  while (true) {
    if (interactive) std::cout << (buffer.empty() ? "serena> " : "   ...> ");
    if (!std::getline(std::cin, line)) break;
    const std::string trimmed(Trim(line));
    if (trimmed.empty()) continue;
    // Comment lines, as in `.serena` scripts (see SplitScript).
    if (trimmed[0] == '#' || trimmed.rfind("--", 0) == 0) continue;

    if (buffer.empty() && trimmed[0] == '\\') {
      if (trimmed == "\\quit" || trimmed == "\\q") break;
      RunCommand(*pems, trimmed);
      continue;
    }
    buffer += line;
    buffer += '\n';
    // Statements are ';'-terminated.
    const std::string_view current = Trim(buffer);
    if (!current.empty() && current.back() == ';') {
      std::string statement(current);
      if (!IsDdl(statement)) {
        statement.pop_back();  // Algebra expressions carry no ';'.
      }
      RunStatement(*pems, statement);
      buffer.clear();
    }
  }
  return 0;
}
