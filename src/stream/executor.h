#ifndef SERENA_STREAM_EXECUTOR_H_
#define SERENA_STREAM_EXECUTOR_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "stream/continuous_query.h"
#include "stream/query_health.h"

namespace serena {

/// The continuous-query executor: drives the environment's logical clock
/// and, at every tick, first refreshes the computed relations its queries
/// read (see `set_refresher`), then runs the registered *sources*
/// (callbacks that feed streams — e.g. sensor pumps, RSS pollers), then
/// steps every registered continuous query, then prunes stream history no
/// window can reach anymore.
///
/// Queries can be registered and unregistered while the executor runs —
/// this is how the PEMS executes standing queries over a changing
/// environment (§5.1).
///
/// Parallel ticking: independent queries of one tick are stepped
/// concurrently on the configured pool. Queries are *dependent* when one
/// feeds (see `ContinuousQuery::set_feeds`) a stream another reads or
/// feeds; the executor schedules dependents into later barrier levels, in
/// registration order, so a derived-stream pipeline observes exactly the
/// serial executor's per-tick order. With a serial pool
/// (`SERENA_THREADS=0`) every query steps inline in registration order —
/// the pre-parallel behavior.
/// Hook points inside one executor tick. Every callback runs on the
/// executor's (serial) tick thread, never from a pool worker: OnQueryStep
/// fires during the post-step merge loop, in registration order, after
/// every step of the tick has finished. Implemented by the flight
/// recorder (journaling), its replay comparator, and the tick watchdog.
class TickObserver {
 public:
  virtual ~TickObserver() = default;
  /// The clock has advanced to `now`; sources have not yet run.
  virtual void OnTickBegin(Timestamp now) {}
  /// All sources have fed their streams for `now`; no query has stepped.
  virtual void OnSourcesDone(Timestamp now) {}
  /// One query's step outcome. `rows` is the step result (nullptr when
  /// the step failed); `query.last_failed_tuples()` and
  /// `query.action_log()` are current for this instant.
  virtual void OnQueryStep(Timestamp now, const ContinuousQuery& query,
                           const Status& status, const XRelation* rows) {}
  /// Steps merged and stream history pruned; the tick is complete.
  virtual void OnTickEnd(Timestamp now) {}
};

class ContinuousExecutor {
 public:
  /// A source feeds streams for the given instant (returns an error to
  /// surface a feeding failure; the executor keeps going).
  using Source = std::function<Status(Timestamp)>;

  ContinuousExecutor(Environment* env, StreamStore* streams)
      : env_(env), streams_(streams) {}

  ContinuousExecutor(const ContinuousExecutor&) = delete;
  ContinuousExecutor& operator=(const ContinuousExecutor&) = delete;

  /// Registers a stream-feeding source, returning its token. Sources
  /// always run serially, in token order, before any query steps.
  /// `feeds` names the streams the source appends to — declaring them
  /// lets the cross-query lint (SER041) know the streams have a
  /// producer; an empty list is allowed but leaves windows over the
  /// source's streams looking dangling to the analyzer.
  std::size_t AddSource(Source source);
  std::size_t AddSource(Source source, std::vector<std::string> feeds);
  void RemoveSource(std::size_t token);

  /// Streams any registered source declared it feeds, sorted and
  /// deduplicated.
  std::vector<std::string> SourceFedStreams() const;

  /// Recomputes relations derived from live state — the sys_*
  /// meta-relations (obs/meta.h) — given the names of relations about to
  /// be read; names it does not compute are skipped.
  using Refresher =
      std::function<Status(const std::set<std::string>& relations)>;

  /// Installs the refresher, replacing any previous one. Each tick runs
  /// it before any source over the relations the registered queries
  /// scan, so every query of the tick reads one snapshot taken at tick
  /// start and relations no standing query reads cost nothing.
  void set_refresher(Refresher refresher) {
    refresher_ = std::move(refresher);
  }

  /// Runs the refresher (if any) over the relations `plan` scans. One-shot
  /// paths call this before they analyze and evaluate a plan, so they
  /// read fresh telemetry rather than the last tick's snapshot.
  Status RefreshScannedBy(const PlanPtr& plan) const;

  /// Registers a continuous query under its name. Dependent queries are
  /// evaluated in registration order each tick, so upstream stages of a
  /// derived-stream pipeline should be registered before their consumers.
  /// The query's feeds and windows are read here, once: set its feeds
  /// before registering it. Costs O(the query's streams); unregistering
  /// re-places the remaining queries in one linear pass.
  Status Register(ContinuousQueryPtr query);
  Status Unregister(const std::string& name);
  Result<ContinuousQueryPtr> GetQuery(const std::string& name) const;
  std::vector<std::string> QueryNames() const;

  /// Pool for stepping independent queries concurrently (nullptr = the
  /// shared pool). Not to be changed while a Tick is in flight.
  void set_pool(ThreadPool* pool) { pool_ = pool; }

  /// Attaches / detaches a tick observer (not while a Tick is in flight;
  /// the executor does not own it). Observers are notified in attach
  /// order. When any observer is attached, step results are retained
  /// until the end of the tick so OnQueryStep can see them.
  void AddTickObserver(TickObserver* observer);
  void RemoveTickObserver(TickObserver* observer);

  /// Advances the clock one instant and evaluates sources + queries.
  /// Individual query failures are recorded (see `last_errors`) but do not
  /// stop other queries.
  Timestamp Tick();

  /// Runs `n` ticks.
  Timestamp Run(int n);

  /// Errors collected during the most recent tick (query name → status).
  const std::map<std::string, Status>& last_errors() const {
    return last_errors_;
  }

  /// Total query-step failures since construction. Unlike `last_errors`
  /// (which is wiped every tick), this counter is monotonic, so failures
  /// between two dashboard snapshots are never silently lost.
  std::uint64_t total_query_errors() const { return total_query_errors_; }

  /// Total ticks driven through this executor.
  std::uint64_t total_ticks() const { return total_ticks_; }

  /// Total stream entries pruned from history across all ticks.
  std::uint64_t total_pruned_tuples() const { return total_pruned_tuples_; }

  /// Extra instants of stream history retained beyond what the widest
  /// registered window needs (default 16) — keeps recent history around
  /// for inspection and late-registered queries while still bounding
  /// memory.
  void set_prune_slack(Timestamp slack) { prune_slack_ = slack; }
  Timestamp prune_slack() const { return prune_slack_; }

  /// Per-query health signals (lag, error streaks, step latency, tuple
  /// rates), maintained across ticks for every registered query.
  const QueryHealth& health() const { return health_; }
  QueryHealth& health() { return health_; }

  /// The widest windows the registered queries place on one stream: how
  /// much history the executor's pruning must keep.
  struct WindowDemand {
    Timestamp max_period = 0;    ///< Widest time window on the stream.
    std::size_t max_rows = 0;    ///< Largest row window on the stream.

    bool operator==(const WindowDemand&) const = default;
  };

  /// A read-only copy of the dependency schedule.
  struct ScheduleSnapshot {
    /// Query names per barrier level, in step order within each level.
    std::vector<std::vector<std::string>> levels;
    /// Per stream, the widest windows any registered query reads it
    /// through.
    std::map<std::string, WindowDemand> window_demand;
  };
  ScheduleSnapshot Schedule() const;

 private:
  /// One stream a query's plan windows over, with the widest windows the
  /// plan places on it.
  struct StreamRead {
    std::uint32_t stream;  ///< Interned id (see InternStream).
    WindowDemand demand;
  };

  /// One registered query plus its scheduling facts, derived once at
  /// registration time.
  struct Entry {
    ContinuousQueryPtr query;
    /// Streams the query's plan reads through Window nodes.
    std::vector<StreamRead> reads;
    /// Interned ids of the streams the query feeds.
    std::vector<std::uint32_t> feeds;
    /// Relations the query's plan scans.
    std::vector<std::string> scans;
  };

  /// Walks `plan`'s leaves: widens `demands` (when non-null) by its
  /// windows and adds the relations it scans to `scans` (when non-null).
  static void CollectLeaves(const PlanPtr& plan,
                            std::map<std::string, WindowDemand>* demands,
                            std::set<std::string>* scans);

  /// The small id of stream `name`, assigned on first sight.
  std::uint32_t InternStream(const std::string& name);

  /// Appends `entries_[index]`, which must be last in registration order
  /// among the placed entries, to the schedule level the per-stream
  /// maxima dictate, then raises the maxima by it. O(reads + feeds).
  void Place(std::size_t index);

  /// Re-places every entry and recomputes `window_demand_` from the
  /// cached facts: one linear pass, run when a query leaves.
  void RebuildSchedule();

  struct SourceEntry {
    Source source;
    std::vector<std::string> feeds;
  };

  Environment* env_;
  StreamStore* streams_;
  ThreadPool* pool_ = nullptr;
  std::size_t next_source_token_ = 0;
  std::map<std::size_t, SourceEntry> sources_;
  // Registration order; within a schedule level this is evaluation order
  // under a serial pool.
  std::vector<Entry> entries_;
  // Barrier levels of entry indices: level k only starts once level k-1
  // finished; entries within one level are mutually independent.
  std::vector<std::vector<std::size_t>> schedule_;
  // Name -> index into entries_.
  std::unordered_map<std::string, std::size_t> entry_index_;
  // Interned stream names: id -> name, and name -> id.
  std::vector<std::string> stream_names_;
  std::unordered_map<std::string, std::uint32_t> stream_ids_;
  // Per stream id, one past the highest level of any placed query that
  // feeds (reads) the stream; 0 when none does.
  std::vector<std::size_t> feeder_top_;
  std::vector<std::size_t> reader_top_;
  // Widest window any registered query places on each stream, maintained
  // at (un)registration instead of re-walking every plan per tick.
  std::map<std::string, WindowDemand> window_demand_;
  // Relations any registered query scans, with the number of queries
  // scanning each: registration updates them in O(new query).
  std::set<std::string> scanned_relations_;
  std::map<std::string, std::size_t> scan_counts_;
  Refresher refresher_;
  std::map<std::string, Status> last_errors_;
  std::vector<TickObserver*> tick_observers_;
  QueryHealth health_;
  std::uint64_t total_query_errors_ = 0;
  std::uint64_t total_ticks_ = 0;
  std::uint64_t total_pruned_tuples_ = 0;
  Timestamp prune_slack_ = 16;
};

}  // namespace serena

#endif  // SERENA_STREAM_EXECUTOR_H_
