#include "pems/query_processor.h"

#include <algorithm>
#include <cstdlib>

#include "common/logging.h"
#include "common/string_util.h"
#include "obs/export.h"
#include "obs/flightrec/recorder.h"
#include "obs/stats.h"

namespace serena {

namespace {

/// `SERENA_ANALYZE=off|0|false` disables the gate process-wide — the
/// escape hatch for deliberately executing ill-formed plans.
bool AnalyzeEnabledByEnv() {
  const char* value = std::getenv("SERENA_ANALYZE");
  if (value == nullptr) return true;
  const std::string lower = ToLower(value);
  return !(lower == "off" || lower == "0" || lower == "false");
}

/// The gate's session configuration: errors only (warnings never block
/// execution — unless severity config promotes them), severity from the
/// environment.
analysis::AnalyzeOptions GateOptions() {
  analysis::AnalyzeOptions options;
  options.include_warnings = false;
  options.severity = analysis::SeverityConfig::FromEnv();
  return options;
}

}  // namespace

QueryProcessor::QueryProcessor(Environment* env, StreamStore* streams)
    : env_(env),
      streams_(streams),
      executor_(env, streams),
      pipeline_(env, streams, optimizer::OptimizerOptions{}),
      session_(env, streams, GateOptions()),
      analyze_(AnalyzeEnabledByEnv()) {}

QueryProcessor::~QueryProcessor() {
  if (has_listener_) {
    env_->registry().RemoveListener(registry_listener_token_);
  }
  // Clean-shutdown flushes: the periodic SERENA_METRICS_FILE writer is
  // rate-limited, so the final tick's counters may never have hit disk;
  // the stats store only persists on demand. Both are no-ops unless
  // their environment variable is set.
  obs::FlushMetricsFile();
  obs::StatsStore::Global().MaybeSaveEnvFile();
}

Status QueryProcessor::GatePlan(const PlanPtr& plan,
                                AnalysisContext context) const {
  if (!analyze_) return Status::OK();
  SERENA_ASSIGN_OR_RETURN(std::vector<Diagnostic> diagnostics,
                          session_.AnalyzePlan(plan, context));
  if (IsValid(diagnostics)) return Status::OK();
  return Status::InvalidArgument("plan rejected by static analysis:\n",
                                 RenderDiagnostics(diagnostics));
}

Status QueryProcessor::GateRegistration(
    const std::string& name, const PlanPtr& plan,
    const std::vector<std::string>& feeds) {
  if (!analyze_) return Status::OK();
  // Sources may have been added since the last registration; the lint
  // needs the current list to not misreport SER041.
  session_.mutable_options().source_fed_streams =
      executor_.SourceFedStreams();
  SERENA_ASSIGN_OR_RETURN(std::vector<Diagnostic> diagnostics,
                          session_.LintRegistration(name, plan, feeds));
  if (IsValid(diagnostics)) return Status::OK();
  return Status::InvalidArgument("continuous query '", name,
                                 "' rejected by static analysis:\n",
                                 RenderDiagnostics(diagnostics));
}

Result<PlanPtr> QueryProcessor::OptimizePlan(PlanPtr plan,
                                             AnalysisContext context) const {
  if (!optimize_) return plan;
  return pipeline_.Optimize(plan, context);
}

Result<QueryResult> QueryProcessor::ExecuteOneShot(
    std::string_view algebra) {
  SERENA_ASSIGN_OR_RETURN(PlanPtr plan, ParseAlgebra(algebra));
  // Fresh sys_* telemetry, one snapshot for analysis and evaluation.
  SERENA_RETURN_NOT_OK(executor_.RefreshScannedBy(plan));
  SERENA_RETURN_NOT_OK(GatePlan(plan, AnalysisContext::kOneShot));
  SERENA_ASSIGN_OR_RETURN(
      plan, OptimizePlan(std::move(plan), AnalysisContext::kOneShot));
  return Execute(plan, env_, streams_);
}

Status QueryProcessor::Prepare(const std::string& name,
                               std::string_view algebra) {
  SERENA_ASSIGN_OR_RETURN(PlanPtr plan, ParseAlgebra(algebra));
  if (!prepared_.emplace(name, std::move(plan)).second) {
    return Status::AlreadyExists("prepared query '", name,
                                 "' already exists");
  }
  return Status::OK();
}

Result<QueryResult> QueryProcessor::ExecutePrepared(
    const std::string& name,
    const std::map<std::string, Value>& parameters) {
  const auto it = prepared_.find(name);
  if (it == prepared_.end()) {
    return Status::NotFound("prepared query '", name, "' does not exist");
  }
  SERENA_ASSIGN_OR_RETURN(PlanPtr bound,
                          BindParameters(it->second, parameters));
  SERENA_RETURN_NOT_OK(executor_.RefreshScannedBy(bound));
  // The gate runs on the *bound* plan: templates legitimately carry
  // unbound parameters until here.
  SERENA_RETURN_NOT_OK(GatePlan(bound, AnalysisContext::kOneShot));
  SERENA_ASSIGN_OR_RETURN(
      bound, OptimizePlan(std::move(bound), AnalysisContext::kOneShot));
  return Execute(bound, env_, streams_);
}

Result<std::set<std::string>> QueryProcessor::PreparedParameters(
    const std::string& name) const {
  const auto it = prepared_.find(name);
  if (it == prepared_.end()) {
    return Status::NotFound("prepared query '", name, "' does not exist");
  }
  return CollectParameters(it->second);
}

Status QueryProcessor::RegisterContinuous(const std::string& name,
                                          std::string_view algebra,
                                          ContinuousQuery::Sink sink) {
  SERENA_ASSIGN_OR_RETURN(PlanPtr plan, ParseAlgebra(algebra));
  SERENA_RETURN_NOT_OK(GatePlan(plan, AnalysisContext::kContinuous));
  SERENA_ASSIGN_OR_RETURN(
      plan, OptimizePlan(std::move(plan), AnalysisContext::kContinuous));
  SERENA_RETURN_NOT_OK(GateRegistration(name, plan, /*feeds=*/{}));
  auto query = std::make_shared<ContinuousQuery>(name, plan);
  if (sink) query->set_sink(std::move(sink));
  SERENA_RETURN_NOT_OK(executor_.Register(std::move(query)));
  session_.CommitQuery(name, plan, /*feeds=*/{});
  if (recorder_ != nullptr) {
    recorder_->RecordRegister(name, std::string(algebra));
  }
  return Status::OK();
}

Status QueryProcessor::UnregisterContinuous(const std::string& name) {
  SERENA_RETURN_NOT_OK(executor_.Unregister(name));
  session_.RemoveQuery(name);
  if (recorder_ != nullptr) recorder_->RecordUnregister(name);
  return Status::OK();
}

Status QueryProcessor::RegisterContinuousInto(const std::string& name,
                                              std::string_view algebra,
                                              const std::string& stream) {
  if (streams_ == nullptr) {
    return Status::FailedPrecondition("no stream store configured");
  }
  SERENA_ASSIGN_OR_RETURN(PlanPtr plan, ParseAlgebra(algebra));
  SERENA_RETURN_NOT_OK(GatePlan(plan, AnalysisContext::kContinuous));
  SERENA_ASSIGN_OR_RETURN(
      plan, OptimizePlan(std::move(plan), AnalysisContext::kContinuous));
  SERENA_ASSIGN_OR_RETURN(ExtendedSchemaPtr result_schema,
                          plan->InferSchema(*env_, streams_));

  if (!streams_->HasStream(stream)) {
    // Derive the stream schema from the query: only the real attributes
    // carry values, so the derived stream stores exactly those.
    std::vector<Attribute> attributes;
    for (const Attribute& attr : result_schema->attributes()) {
      if (attr.is_real()) attributes.push_back(attr);
    }
    SERENA_ASSIGN_OR_RETURN(
        ExtendedSchemaPtr stream_schema,
        ExtendedSchema::Create(stream, std::move(attributes)));
    SERENA_RETURN_NOT_OK(streams_->AddStream(std::move(stream_schema)));
  } else {
    SERENA_ASSIGN_OR_RETURN(const XDRelation* existing,
                            streams_->GetStream(stream));
    // The query's real output must line up with the stream's schema.
    std::vector<Attribute> real_attrs;
    for (const Attribute& attr : result_schema->attributes()) {
      if (attr.is_real()) real_attrs.push_back(attr);
    }
    if (real_attrs != existing->schema().attributes()) {
      return Status::FailedPrecondition(
          "derived stream '", stream,
          "' has a schema incompatible with query '", name, "'");
    }
  }

  // The cross-query gate runs after the stream-schema compatibility
  // check above (whose FailedPrecondition callers rely on) but before
  // anything reaches the executor.
  SERENA_RETURN_NOT_OK(GateRegistration(name, plan, {stream}));

  auto query = std::make_shared<ContinuousQuery>(name, plan);
  // Declare the sink's target stream so the executor schedules consumers
  // of `stream` after this producer within each tick.
  query->set_feeds({stream});
  StreamStore* streams = streams_;
  query->set_sink([streams, stream](Timestamp t, const XRelation& result) {
    auto target = streams->GetStream(stream);
    if (!target.ok()) return;
    for (const Tuple& tuple : result.tuples()) {
      const Status status = (*target)->Append(t, tuple);
      if (!status.ok()) {
        SERENA_LOG(Warning) << "derived stream '" << stream
                            << "' append failed: " << status;
      }
    }
  });
  SERENA_RETURN_NOT_OK(executor_.Register(std::move(query)));
  session_.CommitQuery(name, plan, {stream});
  if (recorder_ != nullptr) {
    recorder_->RecordRegisterInto(name, std::string(algebra), stream);
  }
  return Status::OK();
}

Result<ContinuousQueryPtr> QueryProcessor::GetContinuous(
    const std::string& name) const {
  return executor_.GetQuery(name);
}

Status QueryProcessor::RegisterDiscoveryQuery(const std::string& relation,
                                              const std::string& prototype) {
  SERENA_ASSIGN_OR_RETURN(PrototypePtr proto,
                          env_->GetPrototype(prototype));
  if (!env_->HasRelation(relation)) {
    // Shape the discovery relation so it is directly queryable: the
    // service reference plus the prototype's parameters as virtual
    // attributes, bound by `prototype[service]` — like the `cameras`
    // XD-Relation the paper's Query Processor maintains (§5.1).
    std::vector<Attribute> attributes = {{"service", DataType::kService}};
    for (const Attribute& attr : proto->input().attributes()) {
      if (attr.name == "service") {
        return Status::InvalidArgument(
            "prototype parameter 'service' collides with the discovery "
            "relation's reference attribute");
      }
      attributes.emplace_back(attr.name, attr.type, AttributeKind::kVirtual);
    }
    for (const Attribute& attr : proto->output().attributes()) {
      attributes.emplace_back(attr.name, attr.type, AttributeKind::kVirtual);
    }
    SERENA_ASSIGN_OR_RETURN(
        ExtendedSchemaPtr schema,
        ExtendedSchema::Create(relation, std::move(attributes),
                               {BindingPattern(proto, "service")}));
    SERENA_RETURN_NOT_OK(env_->AddRelation(std::move(schema)));
  }
  discovery_queries_[relation] = prototype;
  SERENA_RETURN_NOT_OK(SyncDiscoveryRelation(relation, prototype));

  if (!has_listener_) {
    registry_listener_token_ = env_->registry().AddListener(
        [this](const std::string& /*ref*/, bool /*registered*/) {
          for (const auto& [rel, proto] : discovery_queries_) {
            const Status status = SyncDiscoveryRelation(rel, proto);
            if (!status.ok()) {
              SERENA_LOG(Warning)
                  << "discovery sync for '" << rel << "' failed: " << status;
            }
          }
        });
    has_listener_ = true;
  }
  return Status::OK();
}

Status QueryProcessor::SyncDiscoveryRelation(const std::string& relation,
                                             const std::string& prototype) {
  SERENA_ASSIGN_OR_RETURN(XRelation * target,
                          env_->GetMutableRelation(relation));
  const auto coord = target->schema().CoordinateOf("service");
  if (!coord.has_value()) {
    return Status::FailedPrecondition(
        "discovery relation '", relation,
        "' has no real 'service' attribute");
  }
  const std::vector<std::string> available =
      env_->registry().ServicesImplementing(prototype);

  // Remove rows for departed services.
  std::vector<Tuple> stale;
  for (const Tuple& t : target->tuples()) {
    const std::string& ref = t[*coord].string_value();
    if (std::find(available.begin(), available.end(), ref) ==
        available.end()) {
      stale.push_back(t);
    }
  }
  for (const Tuple& t : stale) target->Erase(t);

  // Add rows for newly available services (single-attribute schema).
  if (target->schema().real_arity() == 1) {
    for (const std::string& ref : available) {
      Tuple row{Value::String(ref)};
      if (!target->Contains(row)) target->InsertUnchecked(std::move(row));
    }
  }
  return Status::OK();
}

}  // namespace serena
