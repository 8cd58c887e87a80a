#ifndef SERENA_STREAM_CONTINUOUS_QUERY_H_
#define SERENA_STREAM_CONTINUOUS_QUERY_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "algebra/plan.h"
#include "stream/query_runtime.h"

namespace serena {

/// One entry in a standing query's audit trail: when which action fired.
struct LoggedAction {
  Timestamp instant;
  Action action;
};

/// The recent part of a standing query's timestamped audit trail of active
/// invocations, in firing order (every occurrence, no deduplication).
///
/// Entries are addressed by their offset in the whole trail: `size()`
/// counts every action ever appended, and `log[i]` is valid for `i` in
/// [`first_index()`, `size()`). Iteration covers the retained entries.
/// Appending drops the oldest entries beyond `kRetained`, but never one
/// stamped with the instant being appended, so the current instant's
/// actions are always complete. The complete trail is the flight
/// recorder's journal, which records each step's actions.
class ActionLog {
 public:
  /// Entries of earlier instants kept beside the current instant's.
  static constexpr std::size_t kRetained = 1024;

  void Append(Timestamp instant, Action action);

  /// Actions appended since the query was registered.
  std::size_t size() const { return dropped_ + entries_.size(); }
  bool empty() const { return size() == 0; }

  /// Offset of the oldest retained entry.
  std::size_t first_index() const { return dropped_; }

  /// Offset of the first entry of the trailing run stamped `instant`
  /// (`size()` when the last entry has another instant).
  std::size_t InstantStart(Timestamp instant) const;

  /// The entry at offset `index`, for `first_index() <= index < size()`.
  const LoggedAction& operator[](std::size_t index) const {
    return entries_[index - dropped_];
  }

  auto begin() const { return entries_.begin(); }
  auto end() const { return entries_.end(); }
  auto rbegin() const { return entries_.rbegin(); }
  auto rend() const { return entries_.rend(); }

 private:
  std::deque<LoggedAction> entries_;
  std::size_t dropped_ = 0;
};

/// A registered continuous query (§4): a Serena plan evaluated once per
/// instant with delta-aware semantics — the Streaming operator emits
/// per-instant insertions/deletions and the invocation operator only
/// invokes services for newly inserted tuples (§4.2).
///
/// A query whose outermost operator is Streaming produces an infinite
/// XD-Relation (a stream of deltas, like Q4's photo stream); otherwise it
/// produces a finite XD-Relation whose instantaneous value is the step
/// result (like Q3).
class ContinuousQuery {
 public:
  /// Called after each step with the instant and the step's result.
  using Sink = std::function<void(Timestamp, const XRelation&)>;

  /// Builds the query's runtime record: its plan's node ordinals and
  /// statistics-store slots are resolved here, once.
  ContinuousQuery(std::string name, PlanPtr plan)
      : name_(std::move(name)),
        plan_(std::move(plan)),
        runtime_(std::make_shared<QueryRuntime>(plan_)) {}

  const std::string& name() const { return name_; }
  const PlanPtr& plan() const { return plan_; }

  /// The record every step writes: the last step's per-node statistics
  /// and the query's health (shared with the executor's `QueryHealth`).
  const std::shared_ptr<QueryRuntime>& runtime() const { return runtime_; }

  void set_sink(Sink sink) { sink_ = std::move(sink); }

  /// Streams this query's sink writes into (derived-stream pipelines,
  /// §5.1). The executor reads these declarations when the query is
  /// registered, to schedule dependent queries after their producers
  /// within one tick; a query whose sink feeds a stream without
  /// declaring it here may race with concurrent readers of that stream
  /// under a parallel executor.
  void set_feeds(std::vector<std::string> feeds) {
    feeds_ = std::move(feeds);
  }
  const std::vector<std::string>& feeds() const { return feeds_; }

  /// Evaluates one instant. Invocation failures skip the affected tuple
  /// (a vanished sensor must not kill a standing query). Actions of this
  /// step are appended to `accumulated_actions`. `pool` is used for
  /// concurrent physical service calls (nullptr = the shared pool); the
  /// step result is deterministic regardless.
  Result<XRelation> Step(Environment* env, StreamStore* streams,
                         Timestamp instant, ThreadPool* pool = nullptr);

  /// All actions (active invocations) the query has triggered since
  /// registration (Def. 8, accumulated over instants). Being a *set*,
  /// identical actions at different instants collapse — see `action_log`
  /// for the timestamped trace.
  const ActionSet& accumulated_actions() const {
    return accumulated_actions_;
  }

  /// The timestamped audit trail of active invocations, bounded to its
  /// recent part (see `ActionLog`).
  const ActionLog& action_log() const { return action_log_; }

  /// Number of completed steps.
  std::uint64_t steps() const { return steps_; }

  /// Rows that entered the plan's leaves (scans + windows) during the
  /// last step — every evaluation of each distinct leaf node, as the
  /// statistics store records them — and rows the last step emitted:
  /// the tuples-in/out feed of the query's health, metrics on or off.
  std::uint64_t last_rows_in() const { return last_rows_in_; }
  std::uint64_t last_rows_out() const { return last_rows_out_; }

  /// Input tuples whose service invocation failed during the last step
  /// (skipped under kSkipTuple and retried next instant, §4.2). The
  /// flight recorder journals these so replay can compare retry sets.
  const std::vector<Tuple>& last_failed_tuples() const {
    return last_failed_tuples_;
  }

  /// Drops all per-node state (the query behaves as freshly registered).
  void ResetState() { state_.Clear(); }

 private:
  std::string name_;
  PlanPtr plan_;
  std::vector<std::string> feeds_;
  Sink sink_;
  NodeStateStore state_;
  ActionSet accumulated_actions_;
  ActionLog action_log_;
  std::vector<Tuple> last_failed_tuples_;
  std::uint64_t steps_ = 0;
  std::shared_ptr<QueryRuntime> runtime_;
  std::uint64_t last_rows_in_ = 0;
  std::uint64_t last_rows_out_ = 0;
};

using ContinuousQueryPtr = std::shared_ptr<ContinuousQuery>;

}  // namespace serena

#endif  // SERENA_STREAM_CONTINUOUS_QUERY_H_
