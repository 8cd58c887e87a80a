// Deterministic replay tests (docs/OBSERVABILITY.md): a recorded run —
// stream arrivals, service invocations, windowed band filters — must
// re-execute byte-identically from the journal alone in every execution
// mode ({vectorize on/off} x {serial/pooled}), the tick-range option
// must bound what is compared (not what is replayed), and a tampered
// journal must surface as an explicit divergence, never a silent pass.

#include "obs/flightrec/replay.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "env/sim_services.h"
#include "obs/flightrec/journal.h"
#include "obs/flightrec/recorder.h"
#include "pems/pems.h"
#include "types/tuple.h"

namespace serena {
namespace obs {
namespace flightrec {
namespace {

std::string TempDir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / ("serena_replay_" + name);
  std::filesystem::remove_all(dir);
  return dir.string();
}

void ExpectIdentical(const ReplayReport& report) {
  EXPECT_TRUE(report.identical());
  for (const Divergence& divergence : report.divergences) {
    ADD_FAILURE() << divergence.ToString();
  }
}

/// Records the full workload: a pumped telemetry stream, a windowed
/// band-filter chain, and an `invoke` query against a discovered
/// service. Rotation is forced mid-run so replay crosses a segment
/// boundary (the second segment restarts from its own header snapshot).
void RecordWorkload(const std::string& dir) {
  auto pems = Pems::Create().MoveValueOrDie();
  ASSERT_TRUE(pems->tables()
                  .ExecuteDdl(
                      "PROTOTYPE getTemperature() : (temperature REAL);\n"
                      "EXTENDED STREAM telemetry (load REAL, battery INT);")
                  .ok());
  ASSERT_TRUE(pems->Deploy("node-roof",
                           std::make_shared<TemperatureSensorService>(
                               "sensor01", 20.0, 1))
                  .ok());
  pems->Run(2);  // Discovery settles before the recording starts.
  ASSERT_TRUE(pems->queries()
                  .RegisterDiscoveryQuery("thermometers", "getTemperature")
                  .ok());
  pems->queries().executor().AddSource(
      [&pems](Timestamp t) -> Status {
        SERENA_ASSIGN_OR_RETURN(XDRelation * xd,
                                pems->streams().GetStream("telemetry"));
        for (std::int64_t k = 0; k < 3; ++k) {
          SERENA_RETURN_NOT_OK(xd->Append(
              t, Tuple(std::vector<Value>{
                     Value::Real(static_cast<double>((t * 7 + k * 3) % 100)),
                     Value::Int((t * 5 + k) % 100)})));
        }
        return Status::OK();
      },
      {"telemetry"});

  FlightRecorder::Options options;
  options.journal.dir = dir;
  options.journal.max_segment_ticks = 5;
  ASSERT_TRUE(pems->AttachFlightRecorder(options).ok());
  ASSERT_TRUE(
      pems->queries()
          .RegisterContinuous("alerts",
                              "select[load < 90.0](select[battery > 2](window["
                              "4](telemetry)))")
          .ok());
  ASSERT_TRUE(pems->queries()
                  .RegisterContinuous("temps",
                                      "invoke[getTemperature](thermometers)")
                  .ok());
  pems->Run(8);
}

TEST(FlightrecReplayTest, EveryExecutionModeReplaysByteIdentically) {
  const std::string dir = TempDir("modes");
  RecordWorkload(dir);

  auto journal = LoadJournal(dir);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  ASSERT_EQ(journal->tick_count(), 8u);
  ASSERT_EQ(journal->segments.size(), 2u);

  for (const bool vectorize : {false, true}) {
    for (const int threads : {0, 4}) {
      ReplayOptions options;
      options.vectorize = vectorize;
      options.threads = threads;
      auto report = ReplayJournal(*journal, options);
      ASSERT_TRUE(report.ok())
          << "vectorize=" << vectorize << " threads=" << threads << ": "
          << report.status().ToString();
      SCOPED_TRACE("vectorize=" + std::to_string(vectorize) +
                   " threads=" + std::to_string(threads));
      EXPECT_EQ(report->ticks_replayed, 8u);
      EXPECT_EQ(report->ticks_compared, 8u);
      EXPECT_EQ(report->segments_replayed, 2u);
      ExpectIdentical(*report);
    }
  }
}

TEST(FlightrecReplayTest, NonFiniteRealsReplayByteIdentically) {
  const std::string dir = TempDir("nonfinite");
  {
    auto pems = Pems::Create().MoveValueOrDie();
    ASSERT_TRUE(pems->tables()
                    .ExecuteDdl("EXTENDED STREAM readings (sensor STRING, "
                                "value REAL);")
                    .ok());
    pems->queries().executor().AddSource(
        [&pems](Timestamp t) -> Status {
          SERENA_ASSIGN_OR_RETURN(XDRelation * xd,
                                  pems->streams().GetStream("readings"));
          const double inf = std::numeric_limits<double>::infinity();
          const double values[] = {inf, -inf, std::nan(""), 1.5};
          for (std::int64_t k = 0; k < 4; ++k) {
            SERENA_RETURN_NOT_OK(xd->Append(
                t, Tuple(std::vector<Value>{
                       Value::String("s" + std::to_string(k)),
                       Value::Real(values[(t + k) % 4])})));
          }
          return Status::OK();
        },
        {"readings"});
    FlightRecorder::Options options;
    options.journal.dir = dir;
    ASSERT_TRUE(pems->AttachFlightRecorder(options).ok());
    // Replaying NaN or +inf as any finite value below 2.0 changes which
    // rows pass; the window's rows carry every non-finite value out.
    ASSERT_TRUE(pems->queries()
                    .RegisterContinuous(
                        "low", "select[value < 2.0](window[2](readings))")
                    .ok());
    ASSERT_TRUE(
        pems->queries().RegisterContinuous("all", "window[1](readings)").ok());
    pems->Run(4);
  }

  auto journal = LoadJournal(dir);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  ASSERT_EQ(journal->tick_count(), 4u);
  for (const bool vectorize : {false, true}) {
    SCOPED_TRACE("vectorize=" + std::to_string(vectorize));
    ReplayOptions options;
    options.vectorize = vectorize;
    auto report = ReplayJournal(*journal, options);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->ticks_compared, 4u);
    ExpectIdentical(*report);
  }
}

TEST(FlightrecReplayTest, TickRangeBoundsComparisonNotReplay) {
  const std::string dir = TempDir("range");
  RecordWorkload(dir);

  auto journal = LoadJournal(dir);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  ReplayOptions options;
  options.from_instant = journal->last_instant() - 1;
  options.to_instant = journal->last_instant();
  auto report = ReplayJournal(*journal, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // Earlier ticks still execute (they rebuild window state); only the
  // requested range is byte-compared.
  EXPECT_EQ(report->ticks_replayed, 8u);
  EXPECT_EQ(report->ticks_compared, 2u);
  ExpectIdentical(*report);
}

TEST(FlightrecReplayTest, TamperedRecordingIsReportedAsDivergence) {
  const std::string dir = TempDir("tamper");
  RecordWorkload(dir);

  auto journal = LoadJournal(dir);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  // Corrupt the last recorded tick: drop the band-filter query's rows.
  bool tampered = false;
  for (auto segment = journal->segments.rbegin();
       !tampered && segment != journal->segments.rend(); ++segment) {
    for (auto entry = segment->entries.rbegin();
         entry != segment->entries.rend(); ++entry) {
      if (entry->kind != SegmentEntry::Kind::kTick) continue;
      for (QueryOutputRecord& output : entry->tick.outputs) {
        if (output.query != "alerts" || output.rows.empty()) continue;
        output.rows.clear();
        tampered = true;
        break;
      }
      if (tampered) break;
    }
  }
  ASSERT_TRUE(tampered) << "no recorded rows to tamper with";

  auto report = ReplayJournal(*journal);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->identical());
  bool found = false;
  for (const Divergence& divergence : report->divergences) {
    if (divergence.kind == "query-rows" && divergence.subject == "alerts") {
      found = true;
    }
  }
  EXPECT_TRUE(found) << "expected a query-rows divergence for 'alerts'";
}

}  // namespace
}  // namespace flightrec
}  // namespace obs
}  // namespace serena
