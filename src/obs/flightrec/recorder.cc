#include "obs/flightrec/recorder.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <unordered_map>
#include <utility>

#include "algebra/vectorized.h"
#include "analysis/lint_runner.h"
#include "common/string_util.h"
#include "ddl/dump.h"
#include "pems/query_processor.h"
#include "pems/table_manager.h"
#include "service/service_registry.h"
#include "stream/stream_store.h"
#include "xrel/environment.h"

namespace serena {
namespace obs {
namespace flightrec {

namespace {

std::string LowerHead(std::string_view statement, std::size_t word) {
  std::string_view rest = Trim(statement);
  std::string head;
  for (std::size_t i = 0; i <= word; ++i) {
    std::size_t end = 0;
    while (end < rest.size() &&
           !std::isspace(static_cast<unsigned char>(rest[end]))) {
      ++end;
    }
    head.assign(rest.substr(0, end));
    while (end < rest.size() &&
           std::isspace(static_cast<unsigned char>(rest[end]))) {
      ++end;
    }
    rest.remove_prefix(end);
  }
  std::transform(head.begin(), head.end(), head.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return head;
}

/// Service lifecycle is journaled through the registry listener (which
/// also sees Deploy/announce arrivals and crash/lease expiries, not just
/// DDL), so SERVICE / DROP SERVICE statements are stripped here to avoid
/// applying them twice on replay.
std::string StripServiceStatements(const std::string& ddl) {
  std::string kept;
  for (const std::string& statement : SplitScript(ddl)) {
    const std::string head = LowerHead(statement, 0);
    if (head == "service") continue;
    if (head == "drop" && LowerHead(statement, 1) == "service") continue;
    if (!kept.empty()) kept += "\n";
    kept += statement;
  }
  return kept;
}

int EffectiveThreads() {
  const char* threads = std::getenv("SERENA_THREADS");
  if (threads == nullptr || *threads == '\0') return 0;
  return static_cast<int>(std::strtol(threads, nullptr, 10));
}

}  // namespace

FlightRecorder::FlightRecorder(Environment* env, StreamStore* streams,
                               ExtendedTableManager* tables,
                               QueryProcessor* processor)
    : env_(env), streams_(streams), tables_(tables), processor_(processor) {}

Result<std::unique_ptr<FlightRecorder>> FlightRecorder::Attach(
    Environment* env, StreamStore* streams, ExtendedTableManager* tables,
    QueryProcessor* processor, Options options) {
  if (env == nullptr || streams == nullptr || tables == nullptr ||
      processor == nullptr) {
    return Status::InvalidArgument(
        "flight recorder needs env, streams, tables and query processor");
  }
  std::unique_ptr<FlightRecorder> recorder(
      new FlightRecorder(env, streams, tables, processor));
  FlightRecorder* self = recorder.get();
  SERENA_ASSIGN_OR_RETURN(
      recorder->journal_,
      Journal::Open(std::move(options.journal),
                    [self] { return self->BuildHeader(); }));

  processor->executor().AddTickObserver(self);
  processor->set_recorder(self);
  tables->set_ddl_listener(
      [self](const std::string& ddl) { self->OnDdl(ddl); });
  recorder->registry_listener_token_ = env->registry().AddListener(
      [self](const std::string& service_ref, bool registered) {
        self->OnServiceChange(service_ref, registered);
      });
  env->registry().set_invocation_observer(
      [self](const std::string& prototype, const std::string& service_ref,
             const Tuple& input, Timestamp now, const Status& status,
             const TupleRows& rows) {
        if (!self->in_tick_.load(std::memory_order_acquire)) return;
        InvocationRecord record;
        record.prototype = prototype;
        record.service_ref = service_ref;
        record.input = input;
        record.ok = status.ok();
        if (status.ok() && rows != nullptr) {
          record.rows = *rows;
        } else {
          record.error = status.ToString();
        }
        (void)now;  // The enclosing TickRecord carries the instant.
        std::lock_guard<std::mutex> lock(self->invocations_mu_);
        self->pending_invocations_.push_back(std::move(record));
      });
  return recorder;
}

FlightRecorder::~FlightRecorder() {
  processor_->executor().RemoveTickObserver(this);
  processor_->set_recorder(nullptr);
  tables_->set_ddl_listener(nullptr);
  env_->registry().RemoveListener(registry_listener_token_);
  env_->registry().set_invocation_observer(nullptr);
}

SegmentHeader FlightRecorder::BuildHeader() const {
  SegmentHeader header;
  header.config.threads = EffectiveThreads();
  header.config.batch_size = vec::BatchSize();
  header.config.vectorize = vec::Enabled();
  header.start_instant = env_->clock().now();
  header.ddl = DumpEnvironment(*env_, streams_);
  header.queries = registered_queries_;
  for (const std::string& name : streams_->StreamNames()) {
    auto stream = streams_->GetStream(name);
    if (!stream.ok()) continue;
    StreamHistory history;
    history.stream = name;
    for (auto& [instant, tuple] : (*stream)->Entries()) {
      history.entries.push_back(
          StreamHistoryEntry{instant, std::move(tuple)});
    }
    if (!history.entries.empty()) {
      header.stream_history.push_back(std::move(history));
    }
  }
  header.source_feeds = processor_->executor().SourceFedStreams();
  return header;
}

void FlightRecorder::AppendEvent(const CatalogEvent& event) {
  // Never from inside a tick: catalog changes happen between ticks, and
  // the journal line order must keep events outside tick boundaries.
  journal_->AppendEvent(event);
}

void FlightRecorder::OnDdl(const std::string& ddl) {
  const std::string stripped = StripServiceStatements(ddl);
  if (Trim(stripped).empty()) return;
  CatalogEvent event;
  event.kind = CatalogEvent::Kind::kDdl;
  event.text = stripped;
  AppendEvent(event);
}

void FlightRecorder::OnServiceChange(const std::string& service_ref,
                                     bool registered) {
  CatalogEvent event;
  event.name = service_ref;
  if (registered) {
    // Re-arrival DDL: replay re-creates the service synthetically (the
    // same stand-ins `SerenaCatalog` builds for SERVICE declarations).
    auto service = env_->registry().Lookup(service_ref);
    if (!service.ok()) return;
    std::string prototypes;
    for (const auto& prototype : (*service)->prototypes()) {
      if (!prototypes.empty()) prototypes += ", ";
      prototypes += prototype->name();
    }
    event.kind = CatalogEvent::Kind::kDdl;
    event.text = "SERVICE " + service_ref + " IMPLEMENTS " + prototypes + ";";
  } else {
    event.kind = CatalogEvent::Kind::kServiceDown;
  }
  AppendEvent(event);
}

void FlightRecorder::RecordRegister(const std::string& name,
                                    const std::string& algebra) {
  registered_queries_.push_back(QueryDecl{name, algebra, ""});
  CatalogEvent event;
  event.kind = CatalogEvent::Kind::kRegister;
  event.name = name;
  event.text = algebra;
  AppendEvent(event);
}

void FlightRecorder::RecordRegisterInto(const std::string& name,
                                        const std::string& algebra,
                                        const std::string& stream) {
  registered_queries_.push_back(QueryDecl{name, algebra, stream});
  CatalogEvent event;
  event.kind = CatalogEvent::Kind::kRegisterInto;
  event.name = name;
  event.text = algebra;
  event.stream = stream;
  AppendEvent(event);
}

void FlightRecorder::RecordUnregister(const std::string& name) {
  registered_queries_.erase(
      std::remove_if(registered_queries_.begin(), registered_queries_.end(),
                     [&name](const QueryDecl& decl) {
                       return decl.name == name;
                     }),
      registered_queries_.end());
  CatalogEvent event;
  event.kind = CatalogEvent::Kind::kUnregister;
  event.name = name;
  AppendEvent(event);
}

void FlightRecorder::OnTickBegin(Timestamp now) {
  current_ = TickRecord{};
  current_.instant = now;
  {
    std::lock_guard<std::mutex> lock(invocations_mu_);
    pending_invocations_.clear();
  }
  in_tick_.store(true, std::memory_order_release);
}

void FlightRecorder::OnSourcesDone(Timestamp now) {
  // Tuples at instant `now` so far are exactly the source arrivals:
  // query-sink appends at `now` only happen during the steps, later in
  // the tick.
  for (const std::string& name : streams_->StreamNames()) {
    auto stream = streams_->GetStream(name);
    if (!stream.ok()) continue;
    ArrivalRecord arrival;
    arrival.stream = name;
    arrival.tuples = (*stream)->InsertedDuring(now - 1, now);
    if (!arrival.tuples.empty()) {
      current_.arrivals.push_back(std::move(arrival));
    }
  }
}

void FlightRecorder::OnQueryStep(Timestamp now, const ContinuousQuery& query,
                                 const Status& status,
                                 const XRelation* rows) {
  QueryOutputRecord output;
  output.query = query.name();
  output.ok = status.ok();
  if (!status.ok()) output.error = status.ToString();
  if (rows != nullptr) output.rows = rows->tuples();
  output.failed_tuples = query.last_failed_tuples();
  // This step's actions: the tail of the audit trail stamped `now`.
  const ActionLog& log = query.action_log();
  for (std::size_t i = log.InstantStart(now); i < log.size(); ++i) {
    output.actions.push_back(log[i].action.ToString());
  }
  current_.outputs.push_back(std::move(output));
}

void FlightRecorder::OnTickEnd(Timestamp now) {
  in_tick_.store(false, std::memory_order_release);
  std::vector<InvocationRecord> raw;
  {
    std::lock_guard<std::mutex> lock(invocations_mu_);
    raw.swap(pending_invocations_);
  }
  // One record per (prototype, service, input) key: §3.2 makes repeats
  // identical, and a key that failed then succeeded (single-flight
  // retry) keeps the success — that is what any replayed invocation of
  // the key should observe. Sorting makes the journal byte-deterministic
  // across thread counts.
  std::unordered_map<std::string, std::size_t> by_key;
  std::vector<InvocationRecord> deduped;
  for (InvocationRecord& record : raw) {
    const std::string key = record.prototype + '\0' + record.service_ref +
                            '\0' + TupleToJson(record.input);
    const auto it = by_key.find(key);
    if (it == by_key.end()) {
      by_key.emplace(key, deduped.size());
      deduped.push_back(std::move(record));
    } else if (record.ok || !deduped[it->second].ok) {
      deduped[it->second] = std::move(record);
    }
  }
  std::sort(deduped.begin(), deduped.end(),
            [](const InvocationRecord& a, const InvocationRecord& b) {
              if (a.prototype != b.prototype) return a.prototype < b.prototype;
              if (a.service_ref != b.service_ref) {
                return a.service_ref < b.service_ref;
              }
              return a.input < b.input;
            });
  current_.invocations = std::move(deduped);
  current_.instant = now;
  journal_->AppendTick(current_);
  current_ = TickRecord{};
}

}  // namespace flightrec
}  // namespace obs
}  // namespace serena
