// Flight-recorder journal tests (docs/OBSERVABILITY.md): the JSON codec
// must round-trip every runtime value exactly, segments must rotate and
// retire on the configured budgets without ever failing the executor,
// and an attached recorder must journal everything replay needs —
// header snapshot, arrivals, query outputs, catalog events.

#include "obs/flightrec/journal.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "obs/flightrec/recorder.h"
#include "pems/pems.h"
#include "types/tuple.h"

namespace serena {
namespace obs {
namespace flightrec {
namespace {

std::string TempDir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / ("serena_flightrec_" + name);
  std::filesystem::remove_all(dir);
  return dir.string();
}

TEST(FlightrecCodecTest, TupleRoundTripsEveryValueType) {
  const Tuple tuple(std::vector<Value>{
      Value::Bool(true), Value::Bool(false),
      Value::Int(std::numeric_limits<std::int64_t>::min()),
      Value::Int(std::numeric_limits<std::int64_t>::max()), Value::Int(0),
      Value::Real(3.25), Value::Real(-0.0), Value::String(""),
      Value::String("with \"quotes\", a \\ and a\nnewline"),
      Value::BlobValue(Blob{0x00, 0x7f, 0xff})});
  const std::string json = TupleToJson(tuple);
  auto back = TupleFromJson(json);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  // Byte-identical re-encoding is the replay comparison contract.
  EXPECT_EQ(TupleToJson(back.ValueOrDie()), json);
}

TEST(FlightrecCodecTest, NonFiniteRealsRoundTrip) {
  const double inf = std::numeric_limits<double>::infinity();
  const Tuple tuple(std::vector<Value>{Value::Real(inf), Value::Real(-inf),
                                       Value::Real(std::nan(""))});
  const std::string json = TupleToJson(tuple);
  auto back = TupleFromJson(json);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(TupleToJson(back.ValueOrDie()), json);
  EXPECT_EQ(back->at(0), Value::Real(inf));
  EXPECT_EQ(back->at(1), Value::Real(-inf));
  EXPECT_TRUE(back->at(2).is_real() && std::isnan(back->at(2).real_value()));
  // Journals that stored non-finite reals as null still load, as 0.0.
  auto legacy = TupleFromJson("[{\"r\": null}]");
  ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
  EXPECT_EQ(legacy->at(0), Value::Real(0.0));
  EXPECT_FALSE(TupleFromJson("[{\"r\": \"infinity\"}]").ok());
}

TEST(FlightrecCodecTest, TupleFromJsonRejectsGarbage) {
  EXPECT_FALSE(TupleFromJson("not json").ok());
  EXPECT_FALSE(TupleFromJson("{\"q\": 1}").ok());
}

TEST(FlightrecJournalTest, HeaderEventAndTickRoundTrip) {
  const std::string dir = TempDir("roundtrip");

  SegmentHeader header;
  header.start_instant = 41;
  header.ddl = "EXTENDED STREAM s (x INT);";
  header.config.threads = 2;
  header.config.batch_size = 512;
  header.config.vectorize = true;
  header.queries.push_back(
      QueryDecl{"q1", "select[x > 0](window[2](s))", ""});
  header.queries.push_back(QueryDecl{"q2", "window[1](s)", "derived"});
  StreamHistory history;
  history.stream = "s";
  history.entries.push_back(
      StreamHistoryEntry{40, Tuple(std::vector<Value>{Value::Int(7)})});
  header.stream_history.push_back(std::move(history));
  header.source_feeds = {"s"};

  Journal::Options options;
  options.dir = dir;
  auto journal =
      Journal::Open(options, [header] { return header; }).MoveValueOrDie();

  CatalogEvent event;
  event.kind = CatalogEvent::Kind::kRegister;
  event.name = "q3";
  event.text = "window[1](s)";
  ASSERT_TRUE(journal->AppendEvent(event).ok());

  TickRecord tick;
  tick.instant = 42;
  tick.arrivals.push_back(ArrivalRecord{
      "s",
      {Tuple(std::vector<Value>{Value::Int(1)}),
       Tuple(std::vector<Value>{Value::Int(2)})}});
  InvocationRecord invocation;
  invocation.prototype = "getTemperature";
  invocation.service_ref = "sensor01";
  invocation.input = Tuple(std::vector<Value>{Value::String("roof")});
  invocation.ok = false;
  invocation.error = "Unavailable: sensor offline";
  tick.invocations.push_back(invocation);
  QueryOutputRecord output;
  output.query = "q1";
  output.rows = {Tuple(std::vector<Value>{Value::Int(1)})};
  output.failed_tuples = {Tuple(std::vector<Value>{Value::Int(2)})};
  output.actions = {"notify(roof)"};
  tick.outputs.push_back(output);
  ASSERT_TRUE(journal->AppendTick(tick).ok());
  EXPECT_EQ(journal->ticks(), 1u);
  EXPECT_EQ(journal->dropped_ticks(), 0u);
  journal.reset();

  auto loaded = LoadJournal(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->segments.size(), 1u);
  const Segment& segment = loaded->segments[0];
  EXPECT_EQ(segment.header.start_instant, 41);
  EXPECT_EQ(segment.header.ddl, header.ddl);
  EXPECT_EQ(segment.header.config.threads, 2);
  EXPECT_EQ(segment.header.config.batch_size, 512u);
  EXPECT_TRUE(segment.header.config.vectorize);
  ASSERT_EQ(segment.header.queries.size(), 2u);
  EXPECT_EQ(segment.header.queries[0].name, "q1");
  EXPECT_EQ(segment.header.queries[0].algebra, "select[x > 0](window[2](s))");
  EXPECT_EQ(segment.header.queries[1].into_stream, "derived");
  ASSERT_EQ(segment.header.stream_history.size(), 1u);
  EXPECT_EQ(segment.header.stream_history[0].stream, "s");
  ASSERT_EQ(segment.header.stream_history[0].entries.size(), 1u);
  EXPECT_EQ(segment.header.stream_history[0].entries[0].instant, 40);
  ASSERT_EQ(segment.header.source_feeds.size(), 1u);

  ASSERT_EQ(segment.entries.size(), 2u);
  ASSERT_EQ(segment.entries[0].kind, SegmentEntry::Kind::kEvent);
  EXPECT_EQ(segment.entries[0].event.kind, CatalogEvent::Kind::kRegister);
  EXPECT_EQ(segment.entries[0].event.name, "q3");
  EXPECT_EQ(segment.entries[0].event.text, "window[1](s)");
  ASSERT_EQ(segment.entries[1].kind, SegmentEntry::Kind::kTick);
  // Byte-identical tick re-encoding proves every nested field survived.
  EXPECT_EQ(TickToJson(segment.entries[1].tick), TickToJson(tick));

  EXPECT_EQ(loaded->tick_count(), 1u);
  EXPECT_EQ(loaded->first_instant(), 42);
  EXPECT_EQ(loaded->last_instant(), 42);
}

TEST(FlightrecJournalTest, RotationAndRetentionKeepTheBudget) {
  const std::string dir = TempDir("rotation");
  Journal::Options options;
  options.dir = dir;
  options.max_segment_ticks = 2;
  options.max_segments = 3;
  Timestamp next_header_instant = 0;
  auto journal = Journal::Open(options,
                               [&next_header_instant] {
                                 SegmentHeader header;
                                 header.start_instant = next_header_instant++;
                                 return header;
                               })
                     .MoveValueOrDie();
  for (Timestamp instant = 1; instant <= 10; ++instant) {
    TickRecord tick;
    tick.instant = instant;
    ASSERT_TRUE(journal->AppendTick(tick).ok());
  }
  // 10 ticks at 2 per segment: rotation is eager at the tick boundary,
  // so 6 segments were opened (the last holds only its header yet) and
  // 3 are retained on disk.
  EXPECT_EQ(journal->segment_count(), 3u);
  EXPECT_EQ(journal->ticks(), 10u);
  EXPECT_EQ(journal->dropped_ticks(), 0u);
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 3u);
  journal.reset();

  auto loaded = LoadJournal(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->segments.size(), 3u);
  // The oldest retained segment is the fourth one opened; each segment
  // is self-contained, so the replayable window is simply shorter.
  EXPECT_EQ(loaded->segments[0].header.start_instant, 3);
  EXPECT_EQ(loaded->tick_count(), 4u);
  EXPECT_EQ(loaded->first_instant(), 7);
  EXPECT_EQ(loaded->last_instant(), 10);
}

TEST(FlightrecJournalTest, WriteFailureDropsTicksButNeverFails) {
  const std::string dir = TempDir("dropped");
  Journal::Options options;
  options.dir = dir;
  options.max_segment_ticks = 1;  // Rotate on every tick.
  auto journal = Journal::Open(options, [] { return SegmentHeader{}; })
                     .MoveValueOrDie();
  TickRecord tick;
  tick.instant = 1;
  ASSERT_TRUE(journal->AppendTick(tick).ok());
  EXPECT_EQ(journal->dropped_ticks(), 0u);

  // Every further rotation must fail: the directory is gone. (Tick 2
  // still lands — it goes to the already-open, now-unlinked segment —
  // but its boundary rotation fails and every later tick is dropped.)
  std::filesystem::remove_all(dir);
  for (Timestamp instant = 2; instant <= 4; ++instant) {
    tick.instant = instant;
    ASSERT_TRUE(journal->AppendTick(tick).ok());  // Still OK by contract.
  }
  EXPECT_EQ(journal->dropped_ticks(), 2u);
  EXPECT_EQ(journal->ticks(), 2u);
}

TEST(FlightrecJournalTest, GlobalHealthAggregatesOpenJournals) {
  const JournalHealth before = GlobalJournalHealth();
  const std::string dir = TempDir("health");
  Journal::Options options;
  options.dir = dir;
  auto journal = Journal::Open(options, [] { return SegmentHeader{}; })
                     .MoveValueOrDie();
  TickRecord tick;
  tick.instant = 1;
  ASSERT_TRUE(journal->AppendTick(tick).ok());
  tick.instant = 2;
  ASSERT_TRUE(journal->AppendTick(tick).ok());

  const JournalHealth during = GlobalJournalHealth();
  EXPECT_TRUE(during.active);
  EXPECT_EQ(during.ticks, before.ticks + 2);
  EXPECT_EQ(during.segments, before.segments + 1);
  EXPECT_GT(during.bytes, before.bytes);

  journal.reset();
  // Retired counters survive the journal so `sys_flightrec` stays honest
  // about lifetime totals.
  const JournalHealth after = GlobalJournalHealth();
  EXPECT_EQ(after.ticks, before.ticks + 2);
  EXPECT_EQ(after.segments, before.segments);
}

TEST(FlightrecRecorderTest, AttachedRecorderJournalsTicksAndEvents) {
  const std::string dir = TempDir("recorder");
  auto pems = Pems::Create().MoveValueOrDie();
  ASSERT_TRUE(
      pems->tables().ExecuteDdl("EXTENDED STREAM readings (x INT);").ok());
  pems->queries().executor().AddSource(
      [&pems](Timestamp t) -> Status {
        SERENA_ASSIGN_OR_RETURN(XDRelation * xd,
                                pems->streams().GetStream("readings"));
        return xd->Append(t, Tuple(std::vector<Value>{Value::Int(t)}));
      },
      {"readings"});

  FlightRecorder::Options options;
  options.journal.dir = dir;
  ASSERT_TRUE(pems->AttachFlightRecorder(options).ok());
  ASSERT_TRUE(pems->queries()
                  .RegisterContinuous("watch",
                                      "select[x > 0](window[2](readings))")
                  .ok());
  pems->Run(3);
  ASSERT_TRUE(pems->queries().UnregisterContinuous("watch").ok());
  pems.reset();  // Closes the journal.

  auto loaded = LoadJournal(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->segments.size(), 1u);
  const Segment& segment = loaded->segments[0];
  EXPECT_EQ(segment.header.start_instant, 0);
  EXPECT_NE(segment.header.ddl.find("readings"), std::string::npos);
  ASSERT_EQ(segment.header.source_feeds.size(), 1u);
  EXPECT_EQ(segment.header.source_feeds[0], "readings");

  std::size_t registers = 0;
  std::size_t unregisters = 0;
  std::size_t ticks = 0;
  for (const SegmentEntry& entry : segment.entries) {
    if (entry.kind == SegmentEntry::Kind::kEvent) {
      if (entry.event.kind == CatalogEvent::Kind::kRegister) {
        ++registers;
        EXPECT_EQ(entry.event.name, "watch");
        EXPECT_EQ(entry.event.text, "select[x > 0](window[2](readings))");
      } else if (entry.event.kind == CatalogEvent::Kind::kUnregister) {
        ++unregisters;
        EXPECT_EQ(entry.event.name, "watch");
      }
      continue;
    }
    ++ticks;
    const TickRecord& tick = entry.tick;
    ASSERT_EQ(tick.arrivals.size(), 1u);
    EXPECT_EQ(tick.arrivals[0].stream, "readings");
    EXPECT_EQ(tick.arrivals[0].tuples.size(), 1u);
    ASSERT_EQ(tick.outputs.size(), 1u);
    EXPECT_EQ(tick.outputs[0].query, "watch");
    EXPECT_TRUE(tick.outputs[0].ok);
    EXPECT_FALSE(tick.outputs[0].rows.empty());
  }
  EXPECT_EQ(registers, 1u);
  EXPECT_EQ(unregisters, 1u);
  EXPECT_EQ(ticks, 3u);
  EXPECT_EQ(loaded->first_instant(), 1);
  EXPECT_EQ(loaded->last_instant(), 3);
}

}  // namespace
}  // namespace flightrec
}  // namespace obs
}  // namespace serena
