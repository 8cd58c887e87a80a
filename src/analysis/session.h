#ifndef SERENA_ANALYSIS_SESSION_H_
#define SERENA_ANALYSIS_SESSION_H_

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/diagnostics.h"
#include "analysis/query_set.h"

namespace serena {
namespace analysis {

/// Per-code severity overrides (ROADMAP's `-Werror=SER030` item):
/// warnings can be promoted to errors or suppressed entirely. Errors are
/// never demoted — the analyzer's errors describe plans that cannot
/// evaluate, and no configuration makes them evaluable.
struct SeverityConfig {
  /// Promote *every* warning (the classic bare `--werror`).
  bool werror_all = false;
  /// Warnings with these codes become errors.
  std::set<DiagCode> promote;
  /// Warnings with these codes are dropped.
  std::set<DiagCode> suppress;

  bool empty() const {
    return !werror_all && promote.empty() && suppress.empty();
  }

  /// Parses comma-separated code lists ("SER030,SER052"; case-insensitive;
  /// empty strings allowed). `werror_list` may also be "all" / "*" for
  /// blanket promotion. Unknown codes are an InvalidArgument error so
  /// typos in CI configs fail loudly.
  static Result<SeverityConfig> Parse(std::string_view werror_list,
                                      std::string_view no_warn_list);

  /// Reads `SERENA_WERROR` / `SERENA_NO_WARN` (same syntax as `Parse`).
  /// Malformed values are ignored with their error logged — the analyzer
  /// must never become unusable through a bad environment variable.
  static SeverityConfig FromEnv();
};

/// Applies `config` to `diagnostics` in place: suppressed warnings are
/// removed, promoted ones flip to errors. Errors pass through untouched.
void ApplySeverity(const SeverityConfig& config,
                   std::vector<Diagnostic>* diagnostics);

/// The single options struct every analyzer caller configures. One
/// instance describes everything the three former entry points (the
/// QueryProcessor gate, the shell's \check/\validate, serena_lint's
/// runner) used to wire up separately.
struct AnalyzeOptions {
  /// Default destination for plans analyzed through this session;
  /// `Session::AnalyzePlan(plan, context)` overrides per call.
  AnalysisContext context = AnalysisContext::kNeutral;
  /// With false, warnings are filtered from the output *after* severity
  /// promotion — a promoted warning still surfaces as an error (the
  /// gate's configuration).
  bool include_warnings = true;
  /// Forwarded to the analyzer's SER051 check.
  Timestamp unbounded_window_threshold = 1'000'000;
  /// Streams fed by executor sources rather than queries (suppresses
  /// SER041 for them).
  std::vector<std::string> source_fed_streams;
  SeverityConfig severity;
};

/// The unified analysis facade: one object owning the analyzer
/// configuration *and* the per-query facts cache that makes cross-query
/// linting incremental.
///
/// Single-plan analysis (`AnalyzePlan`) is stateless — a thin wrapper
/// applying the session's options and severity config so every caller
/// produces identically ordered diagnostics.
///
/// Cross-query analysis is stateful: `CommitQuery` caches each
/// registered query's facts (plan, fed streams, window reads), and
/// `LintRegistration` checks a *candidate* against the committed set by
/// touching only the candidate plus its feeds/reads frontier — writer
/// conflicts via the producer index, dangling sources via the
/// candidate's own reads, and cycles via a DFS that only explores paths
/// through the candidate (the committed set is cycle-free by
/// invariant). Registration therefore stays O(new query) at thousands
/// of standing queries where the old gate re-linted everything.
///
/// Metrics (when the registry is enabled):
///   serena.analyze.plans            plans analyzed (one per AnalyzePlan)
///   serena.analyze.registrations    LintRegistration calls
///   serena.analyze.frontier_queries committed queries visited by the
///                                   incremental lint (the O(new query)
///                                   claim is this counter staying flat
///                                   as the set grows)
class Session {
 public:
  Session(const Environment* env, const StreamStore* streams,
          AnalyzeOptions options = {});

  const AnalyzeOptions& options() const { return options_; }
  AnalyzeOptions& mutable_options() { return options_; }

  /// Analyzes one plan with the session options (severity applied,
  /// warnings filtered per `include_warnings`).
  Result<std::vector<Diagnostic>> AnalyzePlan(const PlanPtr& plan) const;
  Result<std::vector<Diagnostic>> AnalyzePlan(const PlanPtr& plan,
                                              AnalysisContext context) const;

  /// Full registration check for a candidate continuous query: plan
  /// analysis (continuous context) plus the incremental frontier lint
  /// against the committed set. Does *not* commit — call `CommitQuery`
  /// once the registration actually succeeded.
  Result<std::vector<Diagnostic>> LintRegistration(
      const std::string& name, const PlanPtr& plan,
      const std::vector<std::string>& feeds) const;

  /// Caches the facts of a successfully registered query. Replaces any
  /// previous entry under the same name.
  void CommitQuery(const std::string& name, const PlanPtr& plan,
                   std::vector<std::string> feeds);
  void RemoveQuery(const std::string& name);
  void Clear();

  std::size_t query_count() const { return queries_.size(); }
  /// Committed query names, in registration order.
  std::vector<std::string> QueryNames() const;

  /// The non-incremental cross-query lint over every committed query
  /// (SER040/SER041/SER042) — what the shell's \check and the script
  /// linter's end-of-script pass run. Severity config applies.
  Result<std::vector<Diagnostic>> LintQuerySet() const;

  /// Re-analyzes every committed plan (continuous context) and appends
  /// the full set lint — the shell's \check. Diagnostics carry the
  /// query name; ordering is registration order, set findings last.
  Result<std::vector<Diagnostic>> CheckAll() const;

  /// Runs the abstract interpreter (docs/ANALYSIS.md, pass 6) over `plan`
  /// and renders each node's proven cardinality bounds plus selectivity
  /// estimate ("card=[0, 3] sel=0.33") keyed by node address — the map
  /// `ExplainOptions::node_annotations` consumes. Degrades to an empty
  /// map on any failure: EXPLAIN must always work.
  std::unordered_map<const PlanNode*, std::string> StaticBoundsAnnotations(
      const PlanPtr& plan, AnalysisContext context) const;

 private:
  struct QueryFacts {
    std::string name;
    PlanPtr plan;
    std::vector<std::string> feeds;
    /// Streams the plan reads through Window leaves (cached — computing
    /// them is the per-query work the incremental lint avoids).
    std::vector<std::string> reads;
  };

  /// Severity + warning filtering shared by all public entry points.
  std::vector<Diagnostic> Finalize(std::vector<Diagnostic> diagnostics) const;

  const QueryFacts* Find(const std::string& name) const;

  const Environment* env_;
  const StreamStore* streams_;
  AnalyzeOptions options_;

  /// Committed facts in registration order (diagnostics ordering of the
  /// full lint must match the executor's registration order).
  std::vector<QueryFacts> queries_;
  /// stream -> indices into queries_ of the queries feeding it,
  /// ascending. The first is the stream's producer; more than one only
  /// when a registration skipped the lint (SER042).
  std::map<std::string, std::vector<std::size_t>> feeders_of_;
  /// stream -> indices of queries windowing over it, ascending.
  std::map<std::string, std::vector<std::size_t>> readers_of_;
};

}  // namespace analysis
}  // namespace serena

#endif  // SERENA_ANALYSIS_SESSION_H_
