#include "obs/flightrec/journal.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <mutex>
#include <sstream>
#include <vector>

#include "common/string_util.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace serena {
namespace obs {
namespace flightrec {

namespace {

// --- Value codec ----------------------------------------------------------

constexpr char kHexDigits[] = "0123456789abcdef";

void AppendValueJson(JsonWriter* json, const Value& value) {
  json->BeginObject();
  if (value.is_bool()) {
    json->Key("b").Value(value.bool_value());
  } else if (value.is_int()) {
    // Int64 as a decimal string: the JSON reader holds numbers as
    // doubles, which would corrupt magnitudes beyond 2^53.
    json->Key("i").Value(std::to_string(value.int_value()));
  } else if (value.is_real()) {
    // JSON has no non-finite numbers: NaN and ±inf travel as strings.
    const double real = value.real_value();
    if (std::isnan(real)) {
      json->Key("r").Value("nan");
    } else if (std::isinf(real)) {
      json->Key("r").Value(real > 0 ? "inf" : "-inf");
    } else {
      json->Key("r").Value(real);
    }
  } else if (value.is_string()) {
    json->Key("s").Value(value.string_value());
  } else {
    std::string hex;
    hex.reserve(value.blob_value().size() * 2);
    for (const std::uint8_t byte : value.blob_value()) {
      hex.push_back(kHexDigits[byte >> 4]);
      hex.push_back(kHexDigits[byte & 0xf]);
    }
    json->Key("x").Value(hex);
  }
  json->EndObject();
}

Result<Value> ValueFromJson(const JsonValue& doc) {
  if (!doc.is_object() || doc.members().size() != 1) {
    return Status::InvalidArgument("journal value is not a one-key object");
  }
  const auto& [tag, payload] = doc.members()[0];
  if (tag == "b" && payload.is_bool()) {
    return Value::Bool(payload.bool_value());
  }
  if (tag == "i" && payload.is_string()) {
    errno = 0;
    char* end = nullptr;
    const long long parsed = std::strtoll(payload.string().c_str(), &end, 10);
    if (errno != 0 || end == nullptr || *end != '\0') {
      return Status::InvalidArgument("journal int literal '", payload.string(),
                                     "' is malformed");
    }
    return Value::Int(static_cast<std::int64_t>(parsed));
  }
  if (tag == "r" && payload.is_number()) {
    return Value::Real(payload.number());
  }
  if (tag == "r" && payload.is_string()) {
    const std::string& text = payload.string();
    constexpr double kInf = std::numeric_limits<double>::infinity();
    if (text == "nan") return Value::Real(std::nan(""));
    if (text == "inf") return Value::Real(kInf);
    if (text == "-inf") return Value::Real(-kInf);
    return Status::InvalidArgument("journal real literal '", text,
                                   "' is malformed");
  }
  if (tag == "r" && payload.is_null()) {
    // Journals written before non-finite reals were spelled out stored
    // them as null; they replay as 0.0, as they always did.
    return Value::Real(0.0);
  }
  if (tag == "s" && payload.is_string()) {
    return Value::String(payload.string());
  }
  if (tag == "x" && payload.is_string()) {
    const std::string& hex = payload.string();
    if (hex.size() % 2 != 0) {
      return Status::InvalidArgument("journal blob has odd hex length");
    }
    Blob blob;
    blob.reserve(hex.size() / 2);
    auto nibble = [](char c) -> int {
      if (c >= '0' && c <= '9') return c - '0';
      if (c >= 'a' && c <= 'f') return c - 'a' + 10;
      return -1;
    };
    for (std::size_t i = 0; i < hex.size(); i += 2) {
      const int hi = nibble(hex[i]);
      const int lo = nibble(hex[i + 1]);
      if (hi < 0 || lo < 0) {
        return Status::InvalidArgument("journal blob has non-hex digit");
      }
      blob.push_back(static_cast<std::uint8_t>((hi << 4) | lo));
    }
    return Value::BlobValue(std::move(blob));
  }
  return Status::InvalidArgument("journal value has unknown tag '", tag, "'");
}

void AppendTupleJson(JsonWriter* json, const Tuple& tuple) {
  json->BeginArray();
  for (const Value& value : tuple.values()) AppendValueJson(json, value);
  json->EndArray();
}

Result<Tuple> TupleFromJsonValue(const JsonValue& doc) {
  if (!doc.is_array()) {
    return Status::InvalidArgument("journal tuple is not an array");
  }
  std::vector<Value> values;
  values.reserve(doc.array().size());
  for (const JsonValue& element : doc.array()) {
    SERENA_ASSIGN_OR_RETURN(Value value, ValueFromJson(element));
    values.push_back(std::move(value));
  }
  return Tuple(std::move(values));
}

void AppendTupleListJson(JsonWriter* json, std::string_view key,
                         const std::vector<Tuple>& tuples) {
  json->Key(key).BeginArray();
  for (const Tuple& tuple : tuples) AppendTupleJson(json, tuple);
  json->EndArray();
}

Result<std::vector<Tuple>> TupleListFromJson(const JsonValue& parent,
                                             std::string_view key) {
  std::vector<Tuple> tuples;
  const JsonValue* list = parent.Find(key);
  if (list == nullptr) return tuples;
  if (!list->is_array()) {
    return Status::InvalidArgument("journal field '", std::string(key),
                                   "' is not an array");
  }
  tuples.reserve(list->array().size());
  for (const JsonValue& element : list->array()) {
    SERENA_ASSIGN_OR_RETURN(Tuple tuple, TupleFromJsonValue(element));
    tuples.push_back(std::move(tuple));
  }
  return tuples;
}

std::string EventKindName(CatalogEvent::Kind kind) {
  switch (kind) {
    case CatalogEvent::Kind::kDdl: return "ddl";
    case CatalogEvent::Kind::kRegister: return "register";
    case CatalogEvent::Kind::kRegisterInto: return "register_into";
    case CatalogEvent::Kind::kUnregister: return "unregister";
    case CatalogEvent::Kind::kServiceDown: return "service_down";
  }
  return "ddl";
}

Result<CatalogEvent::Kind> EventKindFromName(std::string_view name) {
  if (name == "ddl") return CatalogEvent::Kind::kDdl;
  if (name == "register") return CatalogEvent::Kind::kRegister;
  if (name == "register_into") return CatalogEvent::Kind::kRegisterInto;
  if (name == "unregister") return CatalogEvent::Kind::kUnregister;
  if (name == "service_down") return CatalogEvent::Kind::kServiceDown;
  return Status::InvalidArgument("unknown journal event kind '",
                                 std::string(name), "'");
}

Result<Timestamp> InstantFrom(const JsonValue& doc, std::string_view key) {
  const JsonValue* field = doc.Find(key);
  if (field == nullptr || !field->is_number()) {
    return Status::InvalidArgument("journal document lacks numeric '",
                                   std::string(key), "'");
  }
  return static_cast<Timestamp>(field->number());
}

// --- Global health --------------------------------------------------------

struct GlobalCounters {
  std::mutex mu;
  std::vector<const Journal*> journals;
  /// Lifetime totals survive journal destruction (a closed recording
  /// still counts toward the process's tick/drop totals).
  std::atomic<std::uint64_t> retired_ticks{0};
  std::atomic<std::uint64_t> retired_dropped{0};
};

GlobalCounters& Counters() {
  static GlobalCounters* counters = new GlobalCounters();
  return *counters;
}

}  // namespace

std::string TupleToJson(const Tuple& tuple) {
  JsonWriter json;
  AppendTupleJson(&json, tuple);
  return json.TakeString();
}

Result<Tuple> TupleFromJson(std::string_view json) {
  SERENA_ASSIGN_OR_RETURN(JsonValue doc, ParseJson(json));
  return TupleFromJsonValue(doc);
}

std::string TickToJson(const TickRecord& tick) {
  JsonWriter json;
  json.BeginObject();
  json.Key("type").Value("tick");
  json.Key("instant").Value(static_cast<std::int64_t>(tick.instant));
  json.Key("arrivals").BeginArray();
  for (const ArrivalRecord& arrival : tick.arrivals) {
    json.BeginObject();
    json.Key("stream").Value(arrival.stream);
    AppendTupleListJson(&json, "tuples", arrival.tuples);
    json.EndObject();
  }
  json.EndArray();
  json.Key("invocations").BeginArray();
  for (const InvocationRecord& invocation : tick.invocations) {
    json.BeginObject();
    json.Key("prototype").Value(invocation.prototype);
    json.Key("service").Value(invocation.service_ref);
    json.Key("input");
    AppendTupleJson(&json, invocation.input);
    json.Key("ok").Value(invocation.ok);
    if (invocation.ok) {
      AppendTupleListJson(&json, "rows", invocation.rows);
    } else {
      json.Key("error").Value(invocation.error);
    }
    json.EndObject();
  }
  json.EndArray();
  json.Key("outputs").BeginArray();
  for (const QueryOutputRecord& output : tick.outputs) {
    json.BeginObject();
    json.Key("query").Value(output.query);
    json.Key("ok").Value(output.ok);
    if (!output.ok) json.Key("error").Value(output.error);
    AppendTupleListJson(&json, "rows", output.rows);
    AppendTupleListJson(&json, "failed_tuples", output.failed_tuples);
    json.Key("actions").BeginArray();
    for (const std::string& action : output.actions) json.Value(action);
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return json.TakeString();
}

std::string EventToJson(const CatalogEvent& event) {
  JsonWriter json;
  json.BeginObject();
  json.Key("type").Value("event");
  json.Key("kind").Value(EventKindName(event.kind));
  json.Key("name").Value(event.name);
  json.Key("text").Value(event.text);
  json.Key("stream").Value(event.stream);
  json.EndObject();
  return json.TakeString();
}

std::string HeaderToJson(const SegmentHeader& header) {
  JsonWriter json;
  json.BeginObject();
  json.Key("type").Value("header");
  json.Key("schema_version").Value(header.schema_version);
  json.Key("config").BeginObject();
  json.Key("threads").Value(header.config.threads);
  json.Key("batch_size").Value(header.config.batch_size);
  json.Key("vectorize").Value(header.config.vectorize);
  json.EndObject();
  json.Key("start_instant")
      .Value(static_cast<std::int64_t>(header.start_instant));
  json.Key("ddl").Value(header.ddl);
  json.Key("queries").BeginArray();
  for (const QueryDecl& query : header.queries) {
    json.BeginObject();
    json.Key("name").Value(query.name);
    json.Key("algebra").Value(query.algebra);
    json.Key("into").Value(query.into_stream);
    json.EndObject();
  }
  json.EndArray();
  json.Key("stream_history").BeginArray();
  for (const StreamHistory& history : header.stream_history) {
    json.BeginObject();
    json.Key("stream").Value(history.stream);
    json.Key("entries").BeginArray();
    for (const StreamHistoryEntry& entry : history.entries) {
      json.BeginObject();
      json.Key("t").Value(static_cast<std::int64_t>(entry.instant));
      json.Key("tuple");
      AppendTupleJson(&json, entry.tuple);
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();
  json.Key("source_feeds").BeginArray();
  for (const std::string& stream : header.source_feeds) json.Value(stream);
  json.EndArray();
  json.EndObject();
  return json.TakeString();
}

JournalHealth GlobalJournalHealth() {
  GlobalCounters& counters = Counters();
  JournalHealth health;
  health.ticks = counters.retired_ticks.load(std::memory_order_relaxed);
  health.dropped_ticks =
      counters.retired_dropped.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(counters.mu);
  for (const Journal* journal : counters.journals) {
    health.segments += journal->segment_count();
    health.bytes += journal->bytes_written();
    health.ticks += journal->ticks();
    health.dropped_ticks += journal->dropped_ticks();
  }
  health.active = !counters.journals.empty();
  return health;
}

// --- Journal writer -------------------------------------------------------

struct Journal::Impl {
  std::ofstream out;
};

Journal::Journal(Options options, HeaderFn header_fn)
    : options_(std::move(options)),
      header_fn_(std::move(header_fn)),
      impl_(std::make_unique<Impl>()) {}

Journal::~Journal() {
  GlobalCounters& counters = Counters();
  counters.retired_ticks.fetch_add(ticks_, std::memory_order_relaxed);
  counters.retired_dropped.fetch_add(dropped_ticks_,
                                     std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(counters.mu);
  counters.journals.erase(std::remove(counters.journals.begin(),
                                      counters.journals.end(), this),
                          counters.journals.end());
}

Result<std::unique_ptr<Journal>> Journal::Open(Options options,
                                               HeaderFn header_fn) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("flight recorder journal needs a dir");
  }
  if (!header_fn) {
    return Status::InvalidArgument("flight recorder journal needs a header "
                                   "provider");
  }
  if (options.max_segment_ticks == 0) options.max_segment_ticks = 1;
  if (options.max_segments == 0) options.max_segments = 1;
  std::error_code ec;
  std::filesystem::create_directories(options.dir, ec);
  if (ec) {
    return Status::Internal("cannot create journal dir '", options.dir,
                            "': ", ec.message());
  }
  std::unique_ptr<Journal> journal(
      new Journal(std::move(options), std::move(header_fn)));
  SERENA_RETURN_NOT_OK(journal->OpenSegment());
  {
    GlobalCounters& counters = Counters();
    std::lock_guard<std::mutex> lock(counters.mu);
    counters.journals.push_back(journal.get());
  }
  return journal;
}

Status Journal::OpenSegment() {
  char name[32];
  std::snprintf(name, sizeof(name), "segment-%06llu.jsonl",
                static_cast<unsigned long long>(next_segment_index_++));
  const std::string path =
      (std::filesystem::path(options_.dir) / name).string();
  impl_->out.close();
  impl_->out.open(path, std::ios::binary | std::ios::trunc);
  if (!impl_->out) {
    return Status::Internal("cannot open journal segment '", path, "'");
  }
  segment_paths_.push_back(path);
  current_segment_ticks_ = 0;

  // Retention: drop the oldest segments beyond the budget. Each segment
  // is self-contained, so deleting old ones only shortens the replayable
  // window, never corrupts it.
  while (segment_paths_.size() > options_.max_segments) {
    std::error_code ec;
    std::filesystem::remove(segment_paths_.front(), ec);
    segment_paths_.erase(segment_paths_.begin());
  }

  const Status header = WriteLine(HeaderToJson(header_fn_()));
  UpdateInstruments();
  return header;
}

Status Journal::WriteLine(const std::string& line) {
  impl_->out << line << '\n';
  impl_->out.flush();
  if (!impl_->out) {
    return Status::Internal("journal write failed in '", options_.dir, "'");
  }
  bytes_written_ += line.size() + 1;
  return Status::OK();
}

Status Journal::AppendEvent(const CatalogEvent& event) {
  const Status status = WriteLine(EventToJson(event));
  UpdateInstruments();
  return status;
}

Status Journal::AppendTick(const TickRecord& tick) {
  // Retry a rotation an earlier append could not complete (e.g. the
  // directory vanished): the current stream is dead, so writing into it
  // would silently lose the tick.
  if (current_segment_ticks_ >= options_.max_segment_ticks) {
    const Status rotated = OpenSegment();
    if (!rotated.ok()) {
      ++dropped_ticks_;
      UpdateInstruments();
      return Status::OK();
    }
  }
  if (WriteLine(TickToJson(tick)).ok()) {
    ++ticks_;
    ++current_segment_ticks_;
  } else {
    ++dropped_ticks_;
    UpdateInstruments();
    return Status::OK();
  }
  // Rotate eagerly at the tick boundary, not lazily on the next append:
  // the new segment's header snapshot (clock, stream history, relation
  // contents) must describe the state *between* ticks. Deferring the
  // rotation would snapshot after the next tick already ran, and replay
  // would re-apply that tick on top of its own effects. A failed
  // rotation leaves `current_segment_ticks_` at the budget, so the next
  // append retries it above.
  if (current_segment_ticks_ >= options_.max_segment_ticks) {
    const Status rotated = OpenSegment();
    (void)rotated;
  }
  UpdateInstruments();
  return Status::OK();
}

void Journal::UpdateInstruments() {
  MetricsRegistry& metrics = MetricsRegistry::Global();
  if (!metrics.enabled()) return;
  const JournalHealth health = GlobalJournalHealth();
  static Gauge* segments = &metrics.GetGauge("serena.flightrec.segments");
  static Gauge* bytes = &metrics.GetGauge("serena.flightrec.bytes");
  static Gauge* ticks = &metrics.GetGauge("serena.flightrec.ticks");
  static Gauge* dropped =
      &metrics.GetGauge("serena.flightrec.dropped_ticks");
  segments->Set(static_cast<std::int64_t>(health.segments));
  bytes->Set(static_cast<std::int64_t>(health.bytes));
  ticks->Set(static_cast<std::int64_t>(health.ticks));
  dropped->Set(static_cast<std::int64_t>(health.dropped_ticks));
}

// --- Reader ---------------------------------------------------------------

namespace {

Result<SegmentHeader> HeaderFromJson(const JsonValue& doc) {
  SegmentHeader header;
  header.schema_version =
      static_cast<int>(doc.NumberOr("schema_version", 1));
  if (const JsonValue* config = doc.Find("config")) {
    header.config.threads = static_cast<int>(config->NumberOr("threads", 0));
    header.config.batch_size =
        static_cast<std::uint64_t>(config->NumberOr("batch_size", 0));
    const JsonValue* vectorize = config->Find("vectorize");
    header.config.vectorize =
        vectorize != nullptr && vectorize->is_bool() &&
        vectorize->bool_value();
  }
  SERENA_ASSIGN_OR_RETURN(header.start_instant,
                          InstantFrom(doc, "start_instant"));
  header.ddl = doc.StringOr("ddl", "");
  if (const JsonValue* queries = doc.Find("queries");
      queries != nullptr && queries->is_array()) {
    for (const JsonValue& entry : queries->array()) {
      QueryDecl decl;
      decl.name = entry.StringOr("name", "");
      decl.algebra = entry.StringOr("algebra", "");
      decl.into_stream = entry.StringOr("into", "");
      header.queries.push_back(std::move(decl));
    }
  }
  if (const JsonValue* streams = doc.Find("stream_history");
      streams != nullptr && streams->is_array()) {
    for (const JsonValue& entry : streams->array()) {
      StreamHistory history;
      history.stream = entry.StringOr("stream", "");
      if (const JsonValue* entries = entry.Find("entries");
          entries != nullptr && entries->is_array()) {
        for (const JsonValue& item : entries->array()) {
          StreamHistoryEntry history_entry;
          SERENA_ASSIGN_OR_RETURN(history_entry.instant,
                                  InstantFrom(item, "t"));
          const JsonValue* tuple = item.Find("tuple");
          if (tuple == nullptr) {
            return Status::InvalidArgument(
                "journal stream-history entry lacks a tuple");
          }
          SERENA_ASSIGN_OR_RETURN(history_entry.tuple,
                                  TupleFromJsonValue(*tuple));
          history.entries.push_back(std::move(history_entry));
        }
      }
      header.stream_history.push_back(std::move(history));
    }
  }
  if (const JsonValue* feeds = doc.Find("source_feeds");
      feeds != nullptr && feeds->is_array()) {
    for (const JsonValue& entry : feeds->array()) {
      if (entry.is_string()) header.source_feeds.push_back(entry.string());
    }
  }
  return header;
}

Result<CatalogEvent> EventFromJson(const JsonValue& doc) {
  CatalogEvent event;
  SERENA_ASSIGN_OR_RETURN(event.kind,
                          EventKindFromName(doc.StringOr("kind", "")));
  event.name = doc.StringOr("name", "");
  event.text = doc.StringOr("text", "");
  event.stream = doc.StringOr("stream", "");
  return event;
}

Result<TickRecord> TickFromJson(const JsonValue& doc) {
  TickRecord tick;
  SERENA_ASSIGN_OR_RETURN(tick.instant, InstantFrom(doc, "instant"));
  if (const JsonValue* arrivals = doc.Find("arrivals");
      arrivals != nullptr && arrivals->is_array()) {
    for (const JsonValue& entry : arrivals->array()) {
      ArrivalRecord arrival;
      arrival.stream = entry.StringOr("stream", "");
      SERENA_ASSIGN_OR_RETURN(arrival.tuples,
                              TupleListFromJson(entry, "tuples"));
      tick.arrivals.push_back(std::move(arrival));
    }
  }
  if (const JsonValue* invocations = doc.Find("invocations");
      invocations != nullptr && invocations->is_array()) {
    for (const JsonValue& entry : invocations->array()) {
      InvocationRecord invocation;
      invocation.prototype = entry.StringOr("prototype", "");
      invocation.service_ref = entry.StringOr("service", "");
      const JsonValue* input = entry.Find("input");
      if (input == nullptr) {
        return Status::InvalidArgument(
            "journal invocation lacks an input tuple");
      }
      SERENA_ASSIGN_OR_RETURN(invocation.input, TupleFromJsonValue(*input));
      const JsonValue* ok = entry.Find("ok");
      invocation.ok = ok == nullptr || !ok->is_bool() || ok->bool_value();
      if (invocation.ok) {
        SERENA_ASSIGN_OR_RETURN(invocation.rows,
                                TupleListFromJson(entry, "rows"));
      } else {
        invocation.error = entry.StringOr("error", "");
      }
      tick.invocations.push_back(std::move(invocation));
    }
  }
  if (const JsonValue* outputs = doc.Find("outputs");
      outputs != nullptr && outputs->is_array()) {
    for (const JsonValue& entry : outputs->array()) {
      QueryOutputRecord output;
      output.query = entry.StringOr("query", "");
      const JsonValue* ok = entry.Find("ok");
      output.ok = ok == nullptr || !ok->is_bool() || ok->bool_value();
      output.error = entry.StringOr("error", "");
      SERENA_ASSIGN_OR_RETURN(output.rows, TupleListFromJson(entry, "rows"));
      SERENA_ASSIGN_OR_RETURN(output.failed_tuples,
                              TupleListFromJson(entry, "failed_tuples"));
      if (const JsonValue* actions = entry.Find("actions");
          actions != nullptr && actions->is_array()) {
        for (const JsonValue& action : actions->array()) {
          if (action.is_string()) output.actions.push_back(action.string());
        }
      }
      tick.outputs.push_back(std::move(output));
    }
  }
  return tick;
}

}  // namespace

Timestamp LoadedJournal::first_instant() const {
  for (const Segment& segment : segments) {
    for (const SegmentEntry& entry : segment.entries) {
      if (entry.kind == SegmentEntry::Kind::kTick) return entry.tick.instant;
    }
  }
  return -1;
}

Timestamp LoadedJournal::last_instant() const {
  Timestamp last = -1;
  for (const Segment& segment : segments) {
    for (const SegmentEntry& entry : segment.entries) {
      if (entry.kind == SegmentEntry::Kind::kTick) last = entry.tick.instant;
    }
  }
  return last;
}

std::uint64_t LoadedJournal::tick_count() const {
  std::uint64_t count = 0;
  for (const Segment& segment : segments) {
    for (const SegmentEntry& entry : segment.entries) {
      if (entry.kind == SegmentEntry::Kind::kTick) ++count;
    }
  }
  return count;
}

Result<Segment> LoadSegmentFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open journal segment '", path, "'");
  Segment segment;
  segment.path = path;
  std::string line;
  bool saw_header = false;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (Trim(line).empty()) continue;
    auto parsed = ParseJson(line);
    if (!parsed.ok()) {
      return Status::InvalidArgument("journal segment '", path, "' line ",
                                     std::to_string(line_number), ": ",
                                     parsed.status().message());
    }
    const JsonValue& doc = parsed.ValueOrDie();
    const std::string type = doc.StringOr("type", "");
    if (type == "header") {
      if (saw_header) {
        return Status::InvalidArgument("journal segment '", path,
                                       "' has multiple headers");
      }
      SERENA_ASSIGN_OR_RETURN(segment.header, HeaderFromJson(doc));
      saw_header = true;
    } else if (type == "event") {
      SegmentEntry entry;
      entry.kind = SegmentEntry::Kind::kEvent;
      SERENA_ASSIGN_OR_RETURN(entry.event, EventFromJson(doc));
      segment.entries.push_back(std::move(entry));
    } else if (type == "tick") {
      SegmentEntry entry;
      entry.kind = SegmentEntry::Kind::kTick;
      SERENA_ASSIGN_OR_RETURN(entry.tick, TickFromJson(doc));
      segment.entries.push_back(std::move(entry));
    } else {
      return Status::InvalidArgument("journal segment '", path, "' line ",
                                     std::to_string(line_number),
                                     " has unknown type '", type, "'");
    }
  }
  if (!saw_header) {
    return Status::InvalidArgument("journal segment '", path,
                                   "' has no header");
  }
  return segment;
}

Result<LoadedJournal> LoadJournal(const std::string& dir) {
  std::error_code ec;
  std::vector<std::string> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string filename = entry.path().filename().string();
    if (filename.rfind("segment-", 0) == 0 &&
        entry.path().extension() == ".jsonl") {
      paths.push_back(entry.path().string());
    }
  }
  if (ec) {
    return Status::NotFound("cannot read journal dir '", dir, "': ",
                            ec.message());
  }
  if (paths.empty()) {
    return Status::NotFound("no journal segments in '", dir, "'");
  }
  std::sort(paths.begin(), paths.end());
  LoadedJournal journal;
  for (const std::string& path : paths) {
    SERENA_ASSIGN_OR_RETURN(Segment segment, LoadSegmentFile(path));
    journal.segments.push_back(std::move(segment));
  }
  return journal;
}

}  // namespace flightrec
}  // namespace obs
}  // namespace serena
