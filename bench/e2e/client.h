#ifndef SERENA_BENCH_E2E_CLIENT_H_
#define SERENA_BENCH_E2E_CLIENT_H_

// The benchmark's only door into the PEMS. Every call a workload or the
// round loop makes goes through `Client`, which times it from outside, counts
// it as attempted or failed, and — per round configuration — traces it
// into layer spans or folds its outputs into the verify digest. The
// program itself carries no benchmark instrumentation.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "pems/pems.h"

namespace serena::e2e {

/// Monotonic nanoseconds (steady_clock).
std::uint64_t NowNs();

/// splitmix64's finalizer: a well-mixed 64-bit hash of `x`.
std::uint64_t Mix(std::uint64_t x);

/// One recorded span. `trace_id` is the instant for tick spans and the
/// operation sequence number for console spans.
struct Span {
  const char* name = "";  ///< A string literal: "<layer>.<what>".
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root.
  std::int64_t trace_id = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t thread = 0;
};

/// Per-name span totals: inclusive time, and self time (the span minus
/// the part of its interval its children cover). `Tracer::Totals` also
/// keys each span by "<name>@<parent name>".
struct SpanTotals {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};

/// In-memory span store for a traced round, plus the tick-phase observer:
///   sources: OnTickBegin → OnSourcesDone
///   steps:   OnSourcesDone → first OnQueryStep
///   merge:   first → last OnQueryStep
///   prune:   last OnQueryStep → OnTickEnd
///   post:    OnTickEnd → Tick() return
/// Spans are written out as Chrome trace_event JSON when the round ends.
class Tracer : public TickObserver {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  std::uint64_t NewId() { return next_id_.fetch_add(1) + 1; }

  /// Thread-safe: device handlers record from pool workers.
  void Record(Span span);

  /// The span device handlers parent under right now (the tick's steps
  /// span, or a console operation's execute span).
  void set_device_parent(std::uint64_t id, std::int64_t trace_id) {
    device_parent_.store(id);
    device_trace_.store(trace_id);
  }
  std::uint64_t device_parent() const { return device_parent_.load(); }
  std::int64_t device_trace() const { return device_trace_.load(); }

  /// Brackets one `Pems::Tick()` call; the observer callbacks fill in the
  /// phase boundaries in between.
  void BeginTick(Timestamp instant, std::uint64_t start_ns);
  void EndTick(std::uint64_t end_ns);
  /// The sources span of the tick in flight (the pump's parent).
  std::uint64_t sources_id() const { return sources_id_; }

  void OnTickBegin(Timestamp now) override;
  void OnSourcesDone(Timestamp now) override;
  void OnQueryStep(Timestamp now, const ContinuousQuery& query,
                   const Status& status, const XRelation* rows) override;
  void OnTickEnd(Timestamp now) override;

  std::map<std::string, SpanTotals> Totals() const;
  Status WriteChromeJson(const std::string& path) const;

 private:
  std::atomic<std::uint64_t> next_id_{0};
  std::atomic<std::uint64_t> device_parent_{0};
  std::atomic<std::int64_t> device_trace_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;

  // Phase marks of the tick in flight (tick thread only).
  Timestamp instant_ = 0;
  std::uint64_t tick_id_ = 0, sources_id_ = 0, steps_id_ = 0;
  std::uint64_t call_ns_ = 0, begin_ns_ = 0, sources_done_ns_ = 0;
  std::uint64_t first_step_ns_ = 0, last_step_ns_ = 0, end_ns_ = 0;
};

/// Per-instant fingerprint of everything observable: every standing
/// query's rows, status and actions, every one-shot result, and every
/// operation status, folded in registration and operation order. Rows and
/// actions are canonicalised (rendered, sorted), so two engine
/// configurations that agree on Def. 8/9 agree here.
class Digest : public TickObserver {
 public:
  void OnQueryStep(Timestamp now, const ContinuousQuery& query,
                   const Status& status, const XRelation* rows) override;
  void AddRelation(const std::string& label, const XRelation& relation,
                   const ActionSet* actions);
  void AddStatus(const std::string& label, const Status& status);
  /// Closes the current instant and returns its digest.
  std::uint64_t EndInstant();

 private:
  void Fold(const std::string& text);
  std::uint64_t state_ = 0;
};

/// Latency samples of one round, in nanoseconds.
struct Samples {
  std::vector<std::uint64_t> tick;
  std::vector<std::uint64_t> oneshot;
  std::vector<std::uint64_t> reg;
  std::vector<std::uint64_t> unreg;
  std::vector<std::uint64_t> write;
  // Per console visit: the mean of the visit's one-shots (one per
  // template family) and of its writes (one INSERT, one DELETE). Their
  // median never falls on the boundary between two families' costs.
  std::vector<std::uint64_t> oneshot_visit;
  std::vector<std::uint64_t> write_visit;
  // Layer samples (filled in traced rounds only).
  std::vector<std::uint64_t> parse;
  std::vector<std::uint64_t> analyze;
  std::vector<std::uint64_t> lint;
  std::vector<std::uint64_t> optimize;
  std::vector<std::uint64_t> execute;
  std::uint64_t optimize_runs = 0;
  std::uint64_t optimize_changed = 0;
  std::uint64_t fragments = 0;
  // Serial per-query step times (rounds run with `record_steps`).
  std::vector<std::uint64_t> step;
};

class Client {
 public:
  /// `tracer` and `digest` are optional (nullptr) and not owned.
  Client(Pems* pems, Tracer* tracer, Digest* digest, bool record_steps);
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  Pems& pems() { return *pems_; }
  Tracer* tracer() { return tracer_; }

  Status Ddl(const std::string& ddl);
  Status Register(const std::string& name, const std::string& algebra);
  Status RegisterInto(const std::string& name, const std::string& algebra,
                      const std::string& stream);
  Status Unregister(const std::string& name);
  Status OneShot(const std::string& algebra);
  /// One instant. `pump_done_ns` is when the last source finished (the
  /// pump reports it), the start of the serial step intervals.
  void Tick();
  void set_pump_done_ns(std::uint64_t ns) { pump_done_ns_ = ns; }

  /// While recording, operation latencies land in `samples()`.
  void set_recording(bool on) { recording_ = on; }
  Samples& samples() { return samples_; }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  /// Rows delivered to the sinks of plainly registered queries.
  std::uint64_t result_rows() const;
  /// Time spent inside DDL / registration calls since construction.
  std::uint64_t ddl_ns() const { return ddl_ns_; }
  std::uint64_t register_ns() const { return register_ns_; }

 private:
  /// Per-query sink state. Only its own query's step touches it, so
  /// concurrent steps never share one.
  struct Slot {
    std::uint64_t rows = 0;
    std::uint64_t step_end_ns = 0;
  };

  /// Counts one operation; in verify rounds also digests its status.
  Status Count(const char* kind, const std::string& subject, Status status);
  /// A traced console operation: the root span its layer spans hang off.
  struct TracedOp {
    std::uint64_t root;
    std::int64_t op;
    std::uint64_t start_ns;
  };
  /// Runs `call`, appends its latency to `samples` (unless null) and
  /// records it as span `name` under `op` (with id `id`, or a fresh one).
  template <typename Call>
  auto Layer(const TracedOp& op, const char* name,
             std::vector<std::uint64_t>* samples, Call&& call,
             std::uint64_t id = 0);
  /// ParseAlgebra → Session::AnalyzePlan (the gate) → Pipeline::Optimize.
  Result<PlanPtr> TracedPlan(const TracedOp& op, const std::string& algebra,
                             AnalysisContext context);
  Status TracedRegister(const std::string& name, const std::string& algebra,
                        ContinuousQuery::Sink sink);
  Result<QueryResult> TracedOneShot(const std::string& algebra);
  void Sample(std::vector<std::uint64_t>* into, std::uint64_t ns) {
    if (recording_) into->push_back(ns);
  }

  Pems* pems_;
  Tracer* tracer_;
  Digest* digest_;
  bool record_steps_;
  bool recording_ = false;
  Samples samples_;
  std::map<std::string, std::shared_ptr<Slot>> slots_;
  std::uint64_t retired_rows_ = 0;
  std::uint64_t standing_ = 0;  ///< Registered standing queries.
  std::unique_ptr<optimizer::Pipeline> pipeline_;  ///< Traced rounds only.
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t ddl_ns_ = 0;
  std::uint64_t register_ns_ = 0;
  std::uint64_t pump_done_ns_ = 0;
  std::int64_t next_op_ = 0;
};

}  // namespace serena::e2e

#endif  // SERENA_BENCH_E2E_CLIENT_H_
