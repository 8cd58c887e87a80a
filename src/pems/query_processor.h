#ifndef SERENA_PEMS_QUERY_PROCESSOR_H_
#define SERENA_PEMS_QUERY_PROCESSOR_H_

#include <map>
#include <string>
#include <vector>

#include <set>

#include "algebra/parameters.h"
#include "analysis/session.h"
#include "ddl/algebra_parser.h"
#include "optimizer/pipeline.h"
#include "stream/executor.h"

namespace serena {

namespace obs {
namespace flightrec {
class FlightRecorder;
}  // namespace flightrec
}  // namespace obs

/// The Query Processor (§5.1, Figure 1): registers queries written in the
/// Serena Algebra Language and executes them — one-shot or continuous —
/// after logical optimization through the rewriter. It also maintains
/// *service discovery queries*: X-Relations that continuously mirror the
/// set of available services implementing a given prototype.
class QueryProcessor {
 public:
  QueryProcessor(Environment* env, StreamStore* streams);
  ~QueryProcessor();

  QueryProcessor(const QueryProcessor&) = delete;
  QueryProcessor& operator=(const QueryProcessor&) = delete;

  /// Toggle logical optimization (§3.3 rewriting) before execution.
  void set_optimize(bool optimize) { optimize_ = optimize; }

  /// The optimizer pipeline configuration: stage toggles (semantic /
  /// cost / rules), estimator constants and enumeration limits. Starts
  /// from the defaults (every stage on).
  void set_optimizer_options(optimizer::OptimizerOptions options) {
    pipeline_.set_options(std::move(options));
  }
  const optimizer::OptimizerOptions& optimizer_options() const {
    return pipeline_.options();
  }

  /// Toggle the static-analysis gate. When on (the default), every plan
  /// is analyzed before execution or registration and rejected with the
  /// coded diagnostics (docs/ANALYSIS.md) if any *error* is found —
  /// before any service invocation can fire a side effect. Warnings
  /// never block. The initial value honors `SERENA_ANALYZE` (`off`, `0`
  /// or `false` disable the gate — the escape hatch for ill-formed-plan
  /// archaeology).
  void set_analyze(bool analyze) { analyze_ = analyze; }
  bool analyze() const { return analyze_; }

  /// Parses, optimizes and executes a one-shot query at the current
  /// instant. The sys_* meta-relations it scans are refreshed first
  /// (`ContinuousExecutor::RefreshScannedBy`).
  Result<QueryResult> ExecuteOneShot(std::string_view algebra);

  /// Parses and stores a parameterized query template under `name`
  /// (prepared-statement pattern; parameters are `:name` placeholders).
  Status Prepare(const std::string& name, std::string_view algebra);

  /// Binds `parameters` into a prepared template, optimizes and executes
  /// (refreshing scanned meta-relations like `ExecuteOneShot`).
  Result<QueryResult> ExecutePrepared(
      const std::string& name,
      const std::map<std::string, Value>& parameters);

  /// Parameter names a prepared template requires.
  Result<std::set<std::string>> PreparedParameters(
      const std::string& name) const;

  /// Parses, optimizes and registers a continuous query.
  Status RegisterContinuous(const std::string& name,
                            std::string_view algebra,
                            ContinuousQuery::Sink sink = nullptr);
  Status UnregisterContinuous(const std::string& name);
  Result<ContinuousQueryPtr> GetContinuous(const std::string& name) const;

  /// Registers a continuous query whose per-instant results are appended
  /// to the named stream — a *derived stream*, composing continuous
  /// queries: the result of one standing query is an XD-Relation that
  /// other queries window over (§4.1's closure property made concrete).
  ///
  /// Creates the stream on first use (schema inferred from the query);
  /// if it exists, its attribute sequence must match the query's output
  /// (modulo realness — stream schemas store the real projection).
  Status RegisterContinuousInto(const std::string& name,
                                std::string_view algebra,
                                const std::string& stream);

  /// Creates (or adopts) X-Relation `relation`(service SERVICE) and keeps
  /// it synchronized with the registry: one tuple per available service
  /// implementing `prototype` (§5.1's "service discovery queries").
  Status RegisterDiscoveryQuery(const std::string& relation,
                                const std::string& prototype);

  /// The continuous executor driving registered queries; sources (stream
  /// feeders) are added here.
  ContinuousExecutor& executor() { return executor_; }

  /// The analysis session backing the gate: the per-query facts cache
  /// that keeps registration linting O(new query), plus the severity
  /// configuration (seeded from `SERENA_WERROR` / `SERENA_NO_WARN`).
  /// The shell's \check and tests read it; gate callers never need to.
  analysis::Session& analysis_session() { return session_; }
  const analysis::Session& analysis_session() const { return session_; }

  /// Advances one instant (delegates to the executor).
  Timestamp Tick() { return executor_.Tick(); }

  /// Flight recorder notified of query (un)registrations with the
  /// original algebra text (set by `FlightRecorder::Attach`; nullptr
  /// detaches). Not owned.
  void set_recorder(obs::flightrec::FlightRecorder* recorder) {
    recorder_ = recorder;
  }

 private:
  Status SyncDiscoveryRelation(const std::string& relation,
                               const std::string& prototype);

  /// The static-analysis gate for one plan: InvalidArgument carrying the
  /// rendered coded errors when the analyzer rejects it; OK otherwise
  /// (or when the gate is off).
  Status GatePlan(const PlanPtr& plan, AnalysisContext context) const;

  /// The cross-query gate: incremental frontier lint of the candidate
  /// (`name`, `plan`, `feeds`) against the session's committed facts —
  /// cycles, writer/writer conflicts — before it reaches the executor.
  Status GateRegistration(const std::string& name, const PlanPtr& plan,
                          const std::vector<std::string>& feeds);

  /// Runs the optimizer pipeline (semantic folds → cost-based
  /// enumeration → classic rules, per `optimizer_options()`); identity
  /// when `optimize_` is off. `context` feeds the pipeline's abstract
  /// interpreter (diagnostics may use at-analysis-time facts in a
  /// one-shot context).
  Result<PlanPtr> OptimizePlan(PlanPtr plan, AnalysisContext context) const;

  Environment* env_;
  StreamStore* streams_;
  ContinuousExecutor executor_;
  optimizer::Pipeline pipeline_;
  analysis::Session session_;
  bool optimize_ = true;
  bool analyze_ = true;
  // relation name -> prototype it mirrors.
  std::map<std::string, std::string> discovery_queries_;
  // Prepared query templates by name.
  std::map<std::string, PlanPtr> prepared_;
  std::size_t registry_listener_token_ = 0;
  bool has_listener_ = false;
  obs::flightrec::FlightRecorder* recorder_ = nullptr;
};

}  // namespace serena

#endif  // SERENA_PEMS_QUERY_PROCESSOR_H_
