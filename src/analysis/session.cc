#include "analysis/session.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "analysis/absint.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "obs/metrics.h"

namespace serena {
namespace analysis {

namespace {

Status ParseCodeList(std::string_view list, std::set<DiagCode>* out,
                     bool* all) {
  std::size_t start = 0;
  while (start <= list.size()) {
    std::size_t comma = list.find(',', start);
    if (comma == std::string_view::npos) comma = list.size();
    const std::string token(Trim(list.substr(start, comma - start)));
    start = comma + 1;
    if (token.empty()) continue;
    if (all != nullptr && (ToLower(token) == "all" || token == "*")) {
      *all = true;
      continue;
    }
    const std::optional<DiagCode> code = DiagCodeFromId(token);
    if (!code.has_value()) {
      return Status::InvalidArgument("unknown diagnostic code '", token,
                                     "' (expected SERxxx)");
    }
    out->insert(*code);
  }
  return Status::OK();
}

/// Removes `index` from `stream`'s entry in `index_of`, dropping the
/// entry once no query is left on the stream.
void EraseIndex(const std::string& stream, std::size_t index,
                std::map<std::string, std::vector<std::size_t>>* index_of) {
  const auto it = index_of->find(stream);
  if (it == index_of->end()) return;
  std::erase(it->second, index);
  if (it->second.empty()) index_of->erase(it);
}

void CountQueries(const char* counter, std::size_t n) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  if (metrics.enabled() && n > 0) metrics.GetCounter(counter).Increment(n);
}

}  // namespace

Result<SeverityConfig> SeverityConfig::Parse(std::string_view werror_list,
                                             std::string_view no_warn_list) {
  SeverityConfig config;
  SERENA_RETURN_NOT_OK(
      ParseCodeList(werror_list, &config.promote, &config.werror_all));
  SERENA_RETURN_NOT_OK(
      ParseCodeList(no_warn_list, &config.suppress, /*all=*/nullptr));
  return config;
}

SeverityConfig SeverityConfig::FromEnv() {
  const char* werror = std::getenv("SERENA_WERROR");
  const char* no_warn = std::getenv("SERENA_NO_WARN");
  auto config = Parse(werror == nullptr ? "" : werror,
                      no_warn == nullptr ? "" : no_warn);
  if (!config.ok()) {
    SERENA_LOG(Warning) << "ignoring SERENA_WERROR/SERENA_NO_WARN: "
                        << config.status();
    return {};
  }
  return *config;
}

void ApplySeverity(const SeverityConfig& config,
                   std::vector<Diagnostic>* diagnostics) {
  if (config.empty()) return;
  auto out = diagnostics->begin();
  for (Diagnostic& diagnostic : *diagnostics) {
    if (!diagnostic.is_error()) {
      if (config.suppress.count(diagnostic.code) > 0) continue;
      if (config.werror_all || config.promote.count(diagnostic.code) > 0) {
        diagnostic.severity = Diagnostic::Severity::kError;
      }
    }
    // Guard against self-move: when nothing has been suppressed yet,
    // `out` still aliases `diagnostic` and moving would clear it.
    if (&*out != &diagnostic) *out = std::move(diagnostic);
    ++out;
  }
  diagnostics->erase(out, diagnostics->end());
}

Session::Session(const Environment* env, const StreamStore* streams,
                 AnalyzeOptions options)
    : env_(env), streams_(streams), options_(std::move(options)) {}

std::vector<Diagnostic> Session::Finalize(
    std::vector<Diagnostic> diagnostics) const {
  ApplySeverity(options_.severity, &diagnostics);
  if (!options_.include_warnings) {
    diagnostics.erase(
        std::remove_if(diagnostics.begin(), diagnostics.end(),
                       [](const Diagnostic& d) { return !d.is_error(); }),
        diagnostics.end());
  }
  return diagnostics;
}

Result<std::vector<Diagnostic>> Session::AnalyzePlan(
    const PlanPtr& plan) const {
  return AnalyzePlan(plan, options_.context);
}

Result<std::vector<Diagnostic>> Session::AnalyzePlan(
    const PlanPtr& plan, AnalysisContext context) const {
  AnalyzerOptions analyzer_options;
  analyzer_options.context = context;
  // The analyzer must see warnings whenever severity config could
  // promote one — filtering happens in Finalize, after promotion.
  analyzer_options.include_warnings =
      options_.include_warnings || !options_.severity.empty();
  analyzer_options.unbounded_window_threshold =
      options_.unbounded_window_threshold;
  SERENA_ASSIGN_OR_RETURN(
      std::vector<Diagnostic> diagnostics,
      serena::AnalyzePlan(plan, *env_, streams_, analyzer_options));
  return Finalize(std::move(diagnostics));
}

const Session::QueryFacts* Session::Find(const std::string& name) const {
  for (const QueryFacts& facts : queries_) {
    if (facts.name == name) return &facts;
  }
  return nullptr;
}

void Session::CommitQuery(const std::string& name, const PlanPtr& plan,
                          std::vector<std::string> feeds) {
  RemoveQuery(name);
  QueryFacts facts;
  facts.name = name;
  facts.plan = plan;
  facts.feeds = std::move(feeds);
  facts.reads = CollectWindowReads(plan);
  const std::size_t index = queries_.size();
  queries_.push_back(std::move(facts));
  for (const std::string& stream : queries_[index].feeds) {
    feeders_of_[stream].push_back(index);
  }
  for (const std::string& stream : queries_[index].reads) {
    readers_of_[stream].push_back(index);
  }
}

void Session::RemoveQuery(const std::string& name) {
  const auto it = std::find_if(
      queries_.begin(), queries_.end(),
      [&name](const QueryFacts& facts) { return facts.name == name; });
  if (it == queries_.end()) return;
  const std::size_t index = static_cast<std::size_t>(it - queries_.begin());
  // Drop the query from its own streams, then shift the later queries'
  // indices down by one; no other stream entry changes.
  for (const std::string& stream : it->feeds) {
    EraseIndex(stream, index, &feeders_of_);
  }
  for (const std::string& stream : it->reads) {
    EraseIndex(stream, index, &readers_of_);
  }
  queries_.erase(it);
  for (auto* streams : {&feeders_of_, &readers_of_}) {
    for (auto& [stream, indices] : *streams) {
      for (std::size_t& i : indices) {
        if (i > index) --i;
      }
    }
  }
}

void Session::Clear() {
  queries_.clear();
  feeders_of_.clear();
  readers_of_.clear();
}

std::vector<std::string> Session::QueryNames() const {
  std::vector<std::string> names;
  names.reserve(queries_.size());
  for (const QueryFacts& facts : queries_) names.push_back(facts.name);
  return names;
}

Result<std::vector<Diagnostic>> Session::LintRegistration(
    const std::string& name, const PlanPtr& plan,
    const std::vector<std::string>& feeds) const {
  SERENA_ASSIGN_OR_RETURN(
      std::vector<Diagnostic> diagnostics,
      AnalyzePlan(plan, AnalysisContext::kContinuous));
  for (Diagnostic& diagnostic : diagnostics) {
    if (diagnostic.query.empty()) diagnostic.query = name;
  }
  CountQueries("serena.analyze.registrations", 1);

  std::vector<Diagnostic> frontier;
  const std::vector<std::string> reads = CollectWindowReads(plan);
  const std::set<std::string> feed_set(feeds.begin(), feeds.end());

  // Writer/writer conflicts (SER042): only the candidate's feeds can
  // introduce one — the committed set is conflict-free by invariant.
  for (const std::string& stream : feeds) {
    const auto feeders = feeders_of_.find(stream);
    if (feeders == feeders_of_.end()) continue;
    const std::string& producer = queries_[feeders->second.front()].name;
    if (producer != name) {
      frontier.push_back(Diagnostic{
          DiagCode::kWriterConflict, Diagnostic::Severity::kError,
          /*node=*/{},
          "queries '" + producer + "' and '" + name +
              "' both feed derived stream '" + stream +
              "': readers would observe a scheduling-dependent merge",
          "give each writer its own stream, or union the plans into one "
          "query",
          /*query=*/name});
    }
  }

  // Dangling sources (SER041): only the candidate's own reads need the
  // check — committed queries were checked at their registration, and a
  // new producer can only *cure* old warnings, never create one.
  const std::set<std::string> source_fed(options_.source_fed_streams.begin(),
                                         options_.source_fed_streams.end());
  for (const std::string& stream : reads) {
    if (feeders_of_.count(stream) > 0 || feed_set.count(stream) > 0 ||
        source_fed.count(stream) > 0) {
      continue;
    }
    frontier.push_back(Diagnostic{
        DiagCode::kDanglingSource, Diagnostic::Severity::kWarning,
        "window(" + stream + ")",
        "no registered query or declared source feeds stream '" + stream +
            "': this window will stay empty",
        "register a producer first, or declare the source with "
        "AddSource(source, {\"" + stream + "\"})",
        /*query=*/name});
  }

  // Cycles (SER040): any new cycle must pass through the candidate, so
  // a DFS following producer -> reader edges from the candidate's feeds
  // suffices — it visits only the dependency frontier, not the whole
  // set. Self-loops (candidate reads what it feeds) fall out naturally.
  const std::set<std::string> read_set(reads.begin(), reads.end());
  std::vector<bool> visited(queries_.size(), false);
  std::vector<std::size_t> path;
  std::size_t frontier_visits = 0;
  std::string cycle;

  // Downstream of `streams_fed`: committed readers, plus the candidate
  // itself when it reads one of them (closing the cycle).
  auto visit = [&](auto&& self, const std::vector<std::string>& streams_fed)
      -> bool {
    for (const std::string& stream : streams_fed) {
      if (read_set.count(stream) > 0) {
        // Back at the candidate: render candidate -> path... -> candidate.
        cycle = name;
        for (const std::size_t node : path) {
          cycle += " -> " + queries_[node].name;
        }
        cycle += " -> " + name;
        return true;
      }
      const auto it = readers_of_.find(stream);
      if (it == readers_of_.end()) continue;
      for (const std::size_t reader : it->second) {
        if (visited[reader]) continue;
        visited[reader] = true;
        ++frontier_visits;
        path.push_back(reader);
        if (self(self, queries_[reader].feeds)) return true;
        path.pop_back();
      }
    }
    return false;
  };
  if (visit(visit, feeds)) {
    frontier.push_back(Diagnostic{
        DiagCode::kQueryCycle, Diagnostic::Severity::kError,
        /*node=*/{},
        "dependency cycle between continuous queries: " + cycle +
            " (each tick has no valid evaluation order)",
        "break the cycle by splitting the feedback path into its own "
        "stream fed by a source",
        /*query=*/name});
  }
  CountQueries("serena.analyze.frontier_queries", frontier_visits);

  frontier = Finalize(std::move(frontier));
  diagnostics.insert(diagnostics.end(),
                     std::make_move_iterator(frontier.begin()),
                     std::make_move_iterator(frontier.end()));
  return diagnostics;
}

Result<std::vector<Diagnostic>> Session::LintQuerySet() const {
  std::vector<QuerySetEntry> entries;
  entries.reserve(queries_.size());
  for (const QueryFacts& facts : queries_) {
    entries.push_back(QuerySetEntry{facts.name, facts.plan, facts.feeds});
  }
  QuerySetOptions set_options;
  set_options.source_fed_streams = options_.source_fed_streams;
  set_options.include_warnings =
      options_.include_warnings || !options_.severity.empty();
  SERENA_ASSIGN_OR_RETURN(std::vector<Diagnostic> diagnostics,
                          AnalyzeQuerySet(entries, set_options));
  return Finalize(std::move(diagnostics));
}

std::unordered_map<const PlanNode*, std::string>
Session::StaticBoundsAnnotations(const PlanPtr& plan,
                                 AnalysisContext context) const {
  std::unordered_map<const PlanNode*, std::string> annotations;
  if (plan == nullptr || env_ == nullptr) return annotations;
  absint::AbsintOptions options;
  options.context = context;
  const Result<absint::AbsintResult> result =
      absint::Interpret(plan, *env_, streams_, options);
  if (!result.ok()) return annotations;
  annotations.reserve(result->bounds.size());
  for (const auto& [node, bounds] : result->bounds) {
    annotations.emplace(node, bounds.ToString());
  }
  return annotations;
}

Result<std::vector<Diagnostic>> Session::CheckAll() const {
  std::vector<Diagnostic> all;
  for (const QueryFacts& facts : queries_) {
    SERENA_ASSIGN_OR_RETURN(
        std::vector<Diagnostic> diagnostics,
        AnalyzePlan(facts.plan, AnalysisContext::kContinuous));
    for (Diagnostic& diagnostic : diagnostics) {
      if (diagnostic.query.empty()) diagnostic.query = facts.name;
      all.push_back(std::move(diagnostic));
    }
  }
  SERENA_ASSIGN_OR_RETURN(std::vector<Diagnostic> set_diagnostics,
                          LintQuerySet());
  all.insert(all.end(), std::make_move_iterator(set_diagnostics.begin()),
             std::make_move_iterator(set_diagnostics.end()));
  return all;
}

}  // namespace analysis
}  // namespace serena
