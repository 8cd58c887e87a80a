#include "obs/flightrec/replay.h"

#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "algebra/vectorized.h"
#include "common/thread_pool.h"
#include "obs/json.h"
#include "pems/pems.h"

namespace serena {
namespace obs {
namespace flightrec {

namespace {

std::string Clip(const std::string& text, std::size_t limit = 200) {
  if (text.size() <= limit) return text;
  return text.substr(0, limit) + "…(+" +
         std::to_string(text.size() - limit) + " bytes)";
}

std::string TuplesToJson(const std::vector<Tuple>& tuples) {
  std::string out = "[";
  for (std::size_t i = 0; i < tuples.size(); ++i) {
    if (i > 0) out += ",";
    out += TupleToJson(tuples[i]);
  }
  out += "]";
  return out;
}

std::string StringsToJson(const std::vector<std::string>& items) {
  JsonWriter writer;
  writer.BeginArray();
  for (const std::string& item : items) writer.Value(item);
  writer.EndArray();
  return writer.TakeString();
}

std::string ArrivalsToJson(const std::vector<ArrivalRecord>& arrivals) {
  std::string out = "[";
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    if (i > 0) out += ",";
    out += "{\"stream\":\"" + arrivals[i].stream +
           "\",\"tuples\":" + TuplesToJson(arrivals[i].tuples) + "}";
  }
  out += "]";
  return out;
}

/// Inverts `Status::ToString` ("<CodeName>: <message>") so the replay
/// feed fails invocations with the exact status the live run produced —
/// byte-identical down to the step error rendering.
Status StatusFromRendering(const std::string& rendered) {
  if (rendered == "Ok" || rendered.empty()) return Status::OK();
  std::string code_name = rendered;
  std::string message;
  const std::size_t colon = rendered.find(": ");
  if (colon != std::string::npos) {
    code_name = rendered.substr(0, colon);
    message = rendered.substr(colon + 2);
  }
  static constexpr StatusCode kCodes[] = {
      StatusCode::kInvalidArgument, StatusCode::kNotFound,
      StatusCode::kAlreadyExists,   StatusCode::kFailedPrecondition,
      StatusCode::kOutOfRange,      StatusCode::kTypeMismatch,
      StatusCode::kParseError,      StatusCode::kUnimplemented,
      StatusCode::kUnavailable,     StatusCode::kTimeout,
      StatusCode::kInternal,
  };
  for (const StatusCode code : kCodes) {
    if (code_name == StatusCodeToString(code)) {
      return Status(code, std::move(message));
    }
  }
  return Status(StatusCode::kInternal, rendered);
}

std::string InvocationKey(const std::string& prototype,
                          const std::string& service_ref,
                          const Tuple& input) {
  std::string key = prototype;
  key += '\0';
  key += service_ref;
  key += '\0';
  key += TupleToJson(input);
  return key;
}

/// Per-tick feed shared with the executor source and the registry
/// replay feed (heap-allocated: the lambdas outlive the replay loop's
/// stack frame inside `Pems`).
struct TickFeedState {
  const std::vector<ArrivalRecord>* arrivals = nullptr;
  std::unordered_map<std::string, const InvocationRecord*> invocations;
};

/// Mirrors `FlightRecorder`'s capture logic and byte-compares against
/// the recorded tick, emitting one `Divergence` per disagreeing aspect.
class ReplayComparer : public TickObserver {
 public:
  ReplayComparer(const StreamStore* streams, std::vector<Divergence>* out)
      : streams_(streams), out_(out) {}

  /// nullptr skips comparison for the next tick (still replayed).
  void set_expected(const TickRecord* expected) { expected_ = expected; }

  void OnTickBegin(Timestamp now) override {
    (void)now;
    outputs_seen_ = 0;
  }

  void OnSourcesDone(Timestamp now) override {
    if (expected_ == nullptr) return;
    std::vector<ArrivalRecord> replayed;
    for (const std::string& name : streams_->StreamNames()) {
      auto stream = streams_->GetStream(name);
      if (!stream.ok()) continue;
      ArrivalRecord arrival;
      arrival.stream = name;
      arrival.tuples = (*stream)->InsertedDuring(now - 1, now);
      if (!arrival.tuples.empty()) replayed.push_back(std::move(arrival));
    }
    const std::string recorded_json = ArrivalsToJson(expected_->arrivals);
    const std::string replayed_json = ArrivalsToJson(replayed);
    if (recorded_json != replayed_json) {
      Report(now, "arrivals", "", recorded_json, replayed_json);
    }
  }

  void OnQueryStep(Timestamp now, const ContinuousQuery& query,
                   const Status& status, const XRelation* rows) override {
    if (expected_ == nullptr) return;
    const std::size_t index = outputs_seen_++;
    if (index >= expected_->outputs.size()) {
      Report(now, "extra-query-output", query.name(), "(absent)",
             status.ToString());
      return;
    }
    const QueryOutputRecord& recorded = expected_->outputs[index];
    if (recorded.query != query.name()) {
      Report(now, "query-order", query.name(), recorded.query, query.name());
      return;  // Further field comparisons would be apples-to-oranges.
    }
    const std::string recorded_status =
        recorded.ok ? std::string("Ok") : recorded.error;
    const std::string replayed_status = status.ToString();
    if (recorded_status != replayed_status) {
      Report(now, "query-status", query.name(), recorded_status,
             replayed_status);
    }
    const std::string recorded_rows = TuplesToJson(recorded.rows);
    const std::string replayed_rows =
        rows != nullptr ? TuplesToJson(rows->tuples()) : "[]";
    if (recorded_rows != replayed_rows) {
      Report(now, "query-rows", query.name(), recorded_rows, replayed_rows);
    }
    const std::string recorded_failed = TuplesToJson(recorded.failed_tuples);
    const std::string replayed_failed =
        TuplesToJson(query.last_failed_tuples());
    if (recorded_failed != replayed_failed) {
      Report(now, "failed-tuples", query.name(), recorded_failed,
             replayed_failed);
    }
    std::vector<std::string> actions;
    const ActionLog& log = query.action_log();
    for (std::size_t i = log.InstantStart(now); i < log.size(); ++i) {
      actions.push_back(log[i].action.ToString());
    }
    const std::string recorded_actions = StringsToJson(recorded.actions);
    const std::string replayed_actions = StringsToJson(actions);
    if (recorded_actions != replayed_actions) {
      Report(now, "actions", query.name(), recorded_actions,
             replayed_actions);
    }
  }

  void OnTickEnd(Timestamp now) override {
    if (expected_ == nullptr) return;
    if (outputs_seen_ < expected_->outputs.size()) {
      Report(now, "missing-query-output",
             expected_->outputs[outputs_seen_].query,
             std::to_string(expected_->outputs.size()) + " outputs",
             std::to_string(outputs_seen_) + " outputs");
    }
  }

 private:
  void Report(Timestamp instant, const char* kind,
              const std::string& subject, const std::string& recorded,
              const std::string& replayed) {
    Divergence divergence;
    divergence.instant = instant;
    divergence.kind = kind;
    divergence.subject = subject;
    divergence.recorded = Clip(recorded);
    divergence.replayed = Clip(replayed);
    out_->push_back(std::move(divergence));
  }

  const StreamStore* streams_;
  std::vector<Divergence>* out_;
  const TickRecord* expected_ = nullptr;
  std::size_t outputs_seen_ = 0;
};

/// Restores the process-wide vectorization overrides on scope exit.
struct VecOverrideGuard {
  ~VecOverrideGuard() {
    vec::SetEnabledForTesting(std::nullopt);
    vec::SetBatchSizeForTesting(std::nullopt);
  }
};

Status ApplyEvent(Pems* pems, const CatalogEvent& event) {
  switch (event.kind) {
    case CatalogEvent::Kind::kDdl:
      return pems->tables().ExecuteDdl(event.text);
    case CatalogEvent::Kind::kServiceDown: {
      // Lease expiry may already have removed it on a replayed path.
      Status status = pems->env().registry().Unregister(event.name);
      if (status.code() == StatusCode::kNotFound) return Status::OK();
      return status;
    }
    case CatalogEvent::Kind::kRegister:
      return pems->queries().RegisterContinuous(event.name, event.text);
    case CatalogEvent::Kind::kRegisterInto:
      return pems->queries().RegisterContinuousInto(event.name, event.text,
                                                    event.stream);
    case CatalogEvent::Kind::kUnregister:
      return pems->queries().UnregisterContinuous(event.name);
  }
  return Status::Internal("unknown catalog event kind");
}

}  // namespace

std::string Divergence::ToString() const {
  std::string out = "instant " + std::to_string(instant) + " [" + kind + "]";
  if (!subject.empty()) out += " " + subject;
  out += "\n  recorded: " + recorded;
  out += "\n  replayed: " + replayed;
  return out;
}

Result<ReplayReport> ReplayJournal(const LoadedJournal& journal,
                                   const ReplayOptions& options) {
  ReplayReport report;
  VecOverrideGuard vec_guard;

  // One Pems carries across contiguous segments: state that persists
  // across ticks but is not in the header snapshot — memoized virtual
  // attributes of extended relations above all — must survive segment
  // rotation exactly as it did in the recording. A fresh Pems is built
  // only at the start and across a retention gap.
  std::unique_ptr<Pems> pems;
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<ReplayComparer> comparer;
  auto state = std::make_shared<TickFeedState>();
  const auto teardown = [&] {
    if (pems != nullptr) {
      pems->queries().executor().RemoveTickObserver(comparer.get());
      pems->env().registry().set_replay_feed(nullptr);
    }
    pems.reset();
    comparer.reset();
    pool.reset();
  };

  for (const Segment& segment : journal.segments) {
    const SegmentHeader& header = segment.header;
    const bool vectorize = options.vectorize.value_or(header.config.vectorize);
    int threads = options.threads.value_or(header.config.threads);
    if (threads < 0) threads = 0;
    vec::SetEnabledForTesting(vectorize);
    vec::SetBatchSizeForTesting(header.config.batch_size);
    report.vectorize = vectorize;
    report.threads = threads;

    const bool contiguous =
        pems != nullptr && header.start_instant == pems->env().clock().now();
    if (!contiguous) {
      teardown();
      Pems::Options pems_options;
      pems_options.env_observability = false;
      SERENA_ASSIGN_OR_RETURN(pems, Pems::Create(pems_options));
      pool = std::make_unique<ThreadPool>(static_cast<std::size_t>(threads));
      pems->queries().executor().set_pool(pool.get());

      // Rebuild the recorded environment: catalog, then stream history
      // up to the segment's start instant, then the clock itself.
      SERENA_RETURN_NOT_OK(pems->tables().ExecuteDdl(header.ddl));
      for (const StreamHistory& history : header.stream_history) {
        SERENA_ASSIGN_OR_RETURN(XDRelation * stream,
                                pems->streams().GetStream(history.stream));
        for (const StreamHistoryEntry& entry : history.entries) {
          SERENA_RETURN_NOT_OK(stream->Append(entry.instant, entry.tuple));
        }
      }
      pems->env().clock().Advance(header.start_instant -
                                  pems->env().clock().now());

      StreamStore* streams = &pems->streams();
      pems->queries().executor().AddSource(
          [state, streams](Timestamp now) -> Status {
            if (state->arrivals == nullptr) return Status::OK();
            for (const ArrivalRecord& arrival : *state->arrivals) {
              SERENA_ASSIGN_OR_RETURN(XDRelation * stream,
                                      streams->GetStream(arrival.stream));
              for (const Tuple& tuple : arrival.tuples) {
                SERENA_RETURN_NOT_OK(stream->Append(now, tuple));
              }
            }
            return Status::OK();
          },
          header.source_feeds);
      pems->env().registry().set_replay_feed(
          [state](const std::string& prototype,
                  const std::string& service_ref, const Tuple& input,
                  Timestamp now) -> Result<TupleRows> {
            (void)now;
            const auto it = state->invocations.find(
                InvocationKey(prototype, service_ref, input));
            if (it == state->invocations.end()) {
              return Status::Unavailable("invocation not in journal: ",
                                         prototype, " via ", service_ref);
            }
            const InvocationRecord& record = *it->second;
            if (!record.ok) return StatusFromRendering(record.error);
            return TupleRows(
                std::make_shared<const std::vector<Tuple>>(record.rows));
          });

      // Re-register in recorded order: the executor steps dependent
      // queries in registration order, so order is part of the
      // semantics. (On a contiguous segment the queries are still
      // registered — the header list is a snapshot, not a delta.)
      for (const QueryDecl& decl : header.queries) {
        if (decl.into_stream.empty()) {
          SERENA_RETURN_NOT_OK(
              pems->queries().RegisterContinuous(decl.name, decl.algebra));
        } else {
          SERENA_RETURN_NOT_OK(pems->queries().RegisterContinuousInto(
              decl.name, decl.algebra, decl.into_stream));
        }
      }

      comparer = std::make_unique<ReplayComparer>(&pems->streams(),
                                                  &report.divergences);
      pems->queries().executor().AddTickObserver(comparer.get());
    }

    Status walk = Status::OK();
    for (const SegmentEntry& entry : segment.entries) {
      if (entry.kind == SegmentEntry::Kind::kEvent) {
        walk = ApplyEvent(pems.get(), entry.event);
        if (!walk.ok()) break;
        continue;
      }
      const TickRecord& tick = entry.tick;
      if (tick.instant != pems->env().clock().now() + 1) {
        walk = Status::Internal(
            "journal tick at instant ", tick.instant,
            " but the replay clock is at ", pems->env().clock().now(),
            " (corrupt or truncated segment '", segment.path, "')");
        break;
      }
      const bool compare = tick.instant >= options.from_instant &&
                           tick.instant <= options.to_instant;
      comparer->set_expected(compare ? &tick : nullptr);
      state->arrivals = &tick.arrivals;
      state->invocations.clear();
      for (const InvocationRecord& record : tick.invocations) {
        state->invocations.emplace(
            InvocationKey(record.prototype, record.service_ref, record.input),
            &record);
      }
      pems->Tick();
      ++report.ticks_replayed;
      if (compare) ++report.ticks_compared;
    }
    if (!walk.ok()) {
      teardown();
      return walk;
    }
    ++report.segments_replayed;
  }
  teardown();
  return report;
}

}  // namespace flightrec
}  // namespace obs
}  // namespace serena
