#include "obs/meta.h"

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "obs/flightrec/journal.h"
#include "obs/metrics.h"
#include "obs/stats.h"
#include "obs/trace.h"
#include "schema/extended_schema.h"
#include "stream/executor.h"
#include "stream/query_health.h"
#include "types/tuple.h"
#include "xrel/environment.h"
#include "xrel/xrelation.h"

namespace serena {
namespace obs {

namespace {

Result<ExtendedSchemaPtr> MetricsSchema() {
  return ExtendedSchema::Create(
      kSysMetricsRelation, {{"metric", DataType::kString},
                            {"kind", DataType::kString},
                            {"value", DataType::kReal}});
}

Result<ExtendedSchemaPtr> SpansSchema() {
  return ExtendedSchema::Create(
      kSysSpansRelation, {{"name", DataType::kString},
                          {"detail", DataType::kString},
                          {"instant", DataType::kInt},
                          {"trace_id", DataType::kInt},
                          {"span_id", DataType::kInt},
                          {"parent_id", DataType::kInt},
                          {"link_span_id", DataType::kInt},
                          {"thread_index", DataType::kInt},
                          {"start_ns", DataType::kInt},
                          {"duration_ns", DataType::kInt}});
}

Result<ExtendedSchemaPtr> QueryHealthSchema() {
  return ExtendedSchema::Create(
      kSysQueryHealthRelation, {{"name", DataType::kString},
                                {"last_instant", DataType::kInt},
                                {"lag", DataType::kInt},
                                {"streak", DataType::kInt},
                                {"errors", DataType::kInt},
                                {"steps", DataType::kInt},
                                {"p50_step_ns", DataType::kInt},
                                {"p99_step_ns", DataType::kInt},
                                {"rows_in_rate", DataType::kReal},
                                {"rows_out_rate", DataType::kReal}});
}

Result<ExtendedSchemaPtr> OperatorStatsSchema() {
  return ExtendedSchema::Create(
      kSysOperatorStatsRelation, {{"fingerprint", DataType::kString},
                                  {"op_kind", DataType::kString},
                                  {"label", DataType::kString},
                                  {"prototype", DataType::kString},
                                  {"evals", DataType::kInt},
                                  {"rows_in", DataType::kInt},
                                  {"rows_out", DataType::kInt},
                                  {"wall_ns", DataType::kInt},
                                  {"invocations", DataType::kInt},
                                  {"memo_hits", DataType::kInt},
                                  {"errors", DataType::kInt},
                                  {"selectivity", DataType::kReal},
                                  {"memo_hit_rate", DataType::kReal}});
}

Result<ExtendedSchemaPtr> FlightrecSchema() {
  return ExtendedSchema::Create(
      kSysFlightrecRelation, {{"segments", DataType::kInt},
                              {"bytes", DataType::kInt},
                              {"ticks", DataType::kInt},
                              {"dropped_ticks", DataType::kInt},
                              {"active", DataType::kInt}});
}

Value IntValue(std::uint64_t v) {
  return Value::Int(static_cast<std::int64_t>(v));
}

Status RefreshMetrics(Environment* env) {
  SERENA_ASSIGN_OR_RETURN(const XRelation* existing,
                          env->GetRelation(kSysMetricsRelation));
  XRelation relation(existing->schema_ptr());
  const MetricsRegistry& metrics = MetricsRegistry::Global();
  for (const std::string& name : metrics.CounterNames()) {
    const Counter* counter = metrics.FindCounter(name);
    if (counter == nullptr) continue;
    relation.InsertUnchecked(
        Tuple{Value::String(name), Value::String("counter"),
              Value::Real(static_cast<double>(counter->value()))});
  }
  for (const std::string& name : metrics.GaugeNames()) {
    const Gauge* gauge = metrics.FindGauge(name);
    if (gauge == nullptr) continue;
    relation.InsertUnchecked(
        Tuple{Value::String(name), Value::String("gauge"),
              Value::Real(static_cast<double>(gauge->value()))});
  }
  for (const std::string& name : metrics.HistogramNames()) {
    const Histogram* histogram = metrics.FindHistogram(name);
    if (histogram == nullptr) continue;
    const HistogramSnapshot snapshot = histogram->Snapshot();
    const std::pair<const char*, double> facets[] = {
        {".count", static_cast<double>(snapshot.count)},
        {".mean", snapshot.mean()},
        {".p50", static_cast<double>(snapshot.ValueAtPercentile(50))},
        {".p99", static_cast<double>(snapshot.ValueAtPercentile(99))},
        {".max", static_cast<double>(snapshot.max)},
    };
    for (const auto& [suffix, value] : facets) {
      relation.InsertUnchecked(Tuple{Value::String(name + suffix),
                                     Value::String("histogram"),
                                     Value::Real(value)});
    }
  }
  return env->PutRelation(std::move(relation));
}

Status RefreshSpans(Environment* env) {
  SERENA_ASSIGN_OR_RETURN(const XRelation* existing,
                          env->GetRelation(kSysSpansRelation));
  XRelation relation(existing->schema_ptr());
  for (const SpanRecord& span : TraceBuffer::Global().Snapshot()) {
    relation.InsertUnchecked(
        Tuple{Value::String(span.name), Value::String(span.detail),
              Value::Int(span.instant), IntValue(span.trace_id),
              IntValue(span.span_id), IntValue(span.parent_id),
              IntValue(span.link_span_id), IntValue(span.thread_index),
              IntValue(span.start_ns), IntValue(span.duration_ns)});
  }
  return env->PutRelation(std::move(relation));
}

/// Columns of a `sys_query_health` row (`QueryHealthSchema`).
constexpr std::size_t kHealthColumns = 10;

/// Writes `query`'s statistics into its `sys_query_health` row, whose
/// first value is the query's name.
void WriteHealthRow(const QueryHealth::QuerySnapshot& query, Tuple* row) {
  (*row)[1] = Value::Int(query.last_completed_instant);
  (*row)[2] = Value::Int(query.lag);
  (*row)[3] = IntValue(query.error_streak);
  (*row)[4] = IntValue(query.total_errors);
  (*row)[5] = IntValue(query.steps);
  (*row)[6] = IntValue(query.p50_step_ns);
  (*row)[7] = IntValue(query.p99_step_ns);
  (*row)[8] = Value::Real(query.rows_in_rate);
  (*row)[9] = Value::Real(query.rows_out_rate);
}

Status RefreshQueryHealth(Environment* env, const QueryHealth* health) {
  SERENA_ASSIGN_OR_RETURN(XRelation * existing,
                          env->GetMutableRelation(kSysQueryHealthRelation));
  // The same queries as at the last refresh (rows in name order): their
  // rows are overwritten in place and re-indexed, with no tuple built.
  if (health != nullptr) {
    std::size_t row = 0;
    bool same = true;
    health->ForEach([&](const QueryHealth::QuerySnapshot& query) {
      if (!same) return;
      if (row == existing->size() ||
          !existing->tuples()[row][0].is_string() ||
          existing->tuples()[row][0].string_value() != query.name) {
        same = false;
        return;
      }
      WriteHealthRow(query, &existing->MutableTupleAt(row++));
    });
    if (same && row == existing->size()) {
      existing->Reindex();
      return Status::OK();
    }
  }
  // A query registered or unregistered since: rebuild every row.
  XRelation relation(existing->schema_ptr());
  if (health != nullptr) {
    // Rows straight from the per-query records, in name order.
    relation.Reserve(health->size());
    health->ForEach([&relation](const QueryHealth::QuerySnapshot& query) {
      Tuple row{std::vector<Value>(kHealthColumns)};
      row[0] = Value::String(query.name);
      WriteHealthRow(query, &row);
      relation.InsertUnchecked(std::move(row));
    });
  }
  return env->PutRelation(std::move(relation));
}

Status RefreshOperatorStats(Environment* env) {
  SERENA_ASSIGN_OR_RETURN(const XRelation* existing,
                          env->GetRelation(kSysOperatorStatsRelation));
  XRelation relation(existing->schema_ptr());
  for (const OperatorStats& op : StatsStore::Global().Snapshot()) {
    relation.InsertUnchecked(
        Tuple{Value::String(op.fingerprint), Value::String(op.kind),
              Value::String(op.label), Value::String(op.prototype),
              IntValue(op.evals), IntValue(op.rows_in),
              IntValue(op.rows_out), IntValue(op.wall_ns),
              IntValue(op.invocations), IntValue(op.memo_hits),
              IntValue(op.errors), Value::Real(op.selectivity()),
              Value::Real(op.memo_hit_rate())});
  }
  return env->PutRelation(std::move(relation));
}

Status RefreshFlightrec(Environment* env) {
  SERENA_ASSIGN_OR_RETURN(const XRelation* existing,
                          env->GetRelation(kSysFlightrecRelation));
  XRelation relation(existing->schema_ptr());
  const flightrec::JournalHealth health = flightrec::GlobalJournalHealth();
  relation.InsertUnchecked(Tuple{IntValue(health.segments),
                                 IntValue(health.bytes), IntValue(health.ticks),
                                 IntValue(health.dropped_ticks),
                                 Value::Int(health.active ? 1 : 0)});
  return env->PutRelation(std::move(relation));
}

}  // namespace

Status RefreshMetaRelations(Environment* env, const QueryHealth* health,
                            const std::set<std::string>& relations) {
  if (env == nullptr) return Status::InvalidArgument("null environment");
  for (const std::string& name : relations) {
    // Most scanned relations are ordinary ones: test the name first.
    if (name.rfind("sys_", 0) != 0 || !env->HasRelation(name)) continue;
    if (name == kSysMetricsRelation) {
      SERENA_RETURN_NOT_OK(RefreshMetrics(env));
    } else if (name == kSysSpansRelation) {
      SERENA_RETURN_NOT_OK(RefreshSpans(env));
    } else if (name == kSysQueryHealthRelation) {
      SERENA_RETURN_NOT_OK(RefreshQueryHealth(env, health));
    } else if (name == kSysOperatorStatsRelation) {
      SERENA_RETURN_NOT_OK(RefreshOperatorStats(env));
    } else if (name == kSysFlightrecRelation) {
      SERENA_RETURN_NOT_OK(RefreshFlightrec(env));
    }
  }
  return Status::OK();
}

Status RefreshMetaRelations(Environment* env, const QueryHealth* health) {
  return RefreshMetaRelations(
      env, health,
      {kSysMetricsRelation, kSysSpansRelation, kSysQueryHealthRelation,
       kSysOperatorStatsRelation, kSysFlightrecRelation});
}

Status RegisterMetaRelations(Environment* env,
                             ContinuousExecutor* executor) {
  if (env == nullptr) return Status::InvalidArgument("null environment");
  if (!env->HasRelation(kSysMetricsRelation)) {
    SERENA_ASSIGN_OR_RETURN(ExtendedSchemaPtr schema, MetricsSchema());
    SERENA_RETURN_NOT_OK(env->AddRelation(std::move(schema)));
  }
  if (!env->HasRelation(kSysSpansRelation)) {
    SERENA_ASSIGN_OR_RETURN(ExtendedSchemaPtr schema, SpansSchema());
    SERENA_RETURN_NOT_OK(env->AddRelation(std::move(schema)));
  }
  if (!env->HasRelation(kSysQueryHealthRelation)) {
    SERENA_ASSIGN_OR_RETURN(ExtendedSchemaPtr schema, QueryHealthSchema());
    SERENA_RETURN_NOT_OK(env->AddRelation(std::move(schema)));
  }
  if (!env->HasRelation(kSysOperatorStatsRelation)) {
    SERENA_ASSIGN_OR_RETURN(ExtendedSchemaPtr schema, OperatorStatsSchema());
    SERENA_RETURN_NOT_OK(env->AddRelation(std::move(schema)));
  }
  if (!env->HasRelation(kSysFlightrecRelation)) {
    SERENA_ASSIGN_OR_RETURN(ExtendedSchemaPtr schema, FlightrecSchema());
    SERENA_RETURN_NOT_OK(env->AddRelation(std::move(schema)));
  }
  SERENA_RETURN_NOT_OK(RefreshMetaRelations(
      env, executor != nullptr ? &executor->health() : nullptr));
  if (executor != nullptr) {
    // The executor runs the refresher serially before any query steps,
    // over the relations its standing queries scan, so every query of a
    // tick sees one consistent telemetry snapshot (taken at tick start; a
    // query's view of sys_* therefore describes the state as of the
    // previous tick's end). One-shots call it for what they scan.
    executor->set_refresher(
        [env, executor](const std::set<std::string>& relations) {
          return RefreshMetaRelations(env, &executor->health(), relations);
        });
  }
  return Status::OK();
}

}  // namespace obs
}  // namespace serena
