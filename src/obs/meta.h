#ifndef SERENA_OBS_META_H_
#define SERENA_OBS_META_H_

#include <set>
#include <string>

#include "common/result.h"

namespace serena {

class ContinuousExecutor;
class Environment;
class QueryHealth;

namespace obs {

/// Names of the built-in meta-relations ("the PEMS observing itself"):
/// virtual X-Relations whose contents are refreshed from telemetry
/// snapshots when something reads them — at the start of every executor
/// tick for those a standing query scans, just before evaluation for
/// those a one-shot scans — so ordinary Serena queries can monitor the
/// runtime, e.g. `select[streak >= 3](sys_query_health)`.
inline constexpr char kSysMetricsRelation[] = "sys_metrics";
inline constexpr char kSysSpansRelation[] = "sys_spans";
inline constexpr char kSysQueryHealthRelation[] = "sys_query_health";
inline constexpr char kSysOperatorStatsRelation[] = "sys_operator_stats";
inline constexpr char kSysFlightrecRelation[] = "sys_flightrec";

/// Creates the five meta-relations in `env` (skipping ones that already
/// exist), fills them once, and installs the executor's refresher
/// (`ContinuousExecutor::set_refresher`): each tick, before any query
/// steps, it rebuilds the meta-relations the standing queries scan, and
/// `ContinuousExecutor::RefreshScannedBy` rebuilds those a one-shot plan
/// scans. A meta-relation nothing reads is left as last refreshed.
/// Schemas:
///
///   sys_metrics(metric STRING, kind STRING, value REAL)
///     — one row per counter/gauge; histograms expand to `.count`,
///       `.mean`, `.p50`, `.p99`, `.max` rows.
///   sys_spans(name STRING, detail STRING, instant INTEGER,
///             trace_id INTEGER, span_id INTEGER, parent_id INTEGER,
///             link_span_id INTEGER, thread_index INTEGER,
///             start_ns INTEGER, duration_ns INTEGER)
///     — the trace ring, oldest to newest (empty while tracing is off).
///   sys_query_health(name STRING, last_instant INTEGER, lag INTEGER,
///                    streak INTEGER, errors INTEGER, steps INTEGER,
///                    p50_step_ns INTEGER, p99_step_ns INTEGER,
///                    rows_in_rate REAL, rows_out_rate REAL)
///     — one row per registered continuous query.
///   sys_operator_stats(fingerprint STRING, op_kind STRING, label STRING,
///                      prototype STRING, evals INTEGER, rows_in INTEGER,
///                      rows_out INTEGER, wall_ns INTEGER,
///                      invocations INTEGER, memo_hits INTEGER,
///                      errors INTEGER, selectivity REAL,
///                      memo_hit_rate REAL)
///     — one row per distinct plan operator observed by the runtime
///       statistics store (see obs/stats.h), keyed by stable fingerprint.
///   sys_flightrec(segments INTEGER, bytes INTEGER, ticks INTEGER,
///                 dropped_ticks INTEGER, active INTEGER)
///     — one row: the flight-recorder journal health aggregated over
///       every journal open in this process (all zeros/inactive while
///       no recorder is attached — see src/obs/flightrec/).
///
/// Opt-in: call it once after constructing the PEMS (the shell does).
/// Fails when a same-named attribute elsewhere in `env` has a conflicting
/// type (URSA).
Status RegisterMetaRelations(Environment* env, ContinuousExecutor* executor);

/// Rebuilds the meta-relations named in `relations` from the current
/// telemetry snapshots (global metrics registry + trace buffer + stats
/// store + journal health + `health`, which may be null). Other names,
/// and meta-relations missing from `env`, are skipped. This is the
/// executor refresher `RegisterMetaRelations` installs.
Status RefreshMetaRelations(Environment* env, const QueryHealth* health,
                            const std::set<std::string>& relations);

/// Rebuilds every meta-relation present in `env`, read or not.
Status RefreshMetaRelations(Environment* env, const QueryHealth* health);

}  // namespace obs
}  // namespace serena

#endif  // SERENA_OBS_META_H_
