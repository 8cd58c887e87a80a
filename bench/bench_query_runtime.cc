// Standing-query bookkeeping benchmark: a fleet of 512 tiny standing
// queries over 32 low-rate streams (the shapes of the end-to-end
// `query_fleet` workload, plus its three queries over `sys_query_health`),
// ticked with the metrics registry on and off. Each step touches a handful
// of rows, so what a step records about itself — per-node statistics, the
// statistics store, health — is a visible share of the tick.
//
// The reproduction counts heap allocations per steady-state step: two
// identical fleets tick the same instants over the same data, one with
// metrics on and one with them off, so any allocation the statistics and
// health path makes shows up as a difference between them (expected: 0).
// The microbenchmarks time one tick of the fleet, metrics on and off,
// serial and on 3 pool threads.
//
//   ./build/bench/bench_query_runtime
//   ./build/bench/bench_query_runtime --benchmark_filter=BM_FleetTick

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>

#include "bench_util.h"
#include "common/hash.h"
#include "common/thread_pool.h"
#include "ddl/algebra_parser.h"
#include "obs/meta.h"
#include "obs/metrics.h"
#include "stream/continuous_query.h"
#include "stream/executor.h"
#include "stream/stream_store.h"
#include "xrel/environment.h"

// Sanitizers own operator new/delete; counting is left to plain builds.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SERENA_COUNT_ALLOCATIONS 0
#else
#define SERENA_COUNT_ALLOCATIONS 1
#endif

namespace {

/// Every `operator new` of the process, counted.
std::atomic<std::uint64_t> allocations{0};

#if SERENA_COUNT_ALLOCATIONS

void* CountedAlloc(std::size_t size, std::size_t align) {
  allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size == 0 ? 1 : size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
#endif

}  // namespace

#if SERENA_COUNT_ALLOCATIONS

void* operator new(std::size_t size) {
  return CountedAlloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#endif

namespace serena {
namespace {

constexpr int kStreams = 32;
constexpr int kQueries = 512;
constexpr int kRowsPerStream = 4;

const char* const kAreas[] = {"office", "kitchen", "roof",     "lobby",
                              "garage", "corridor", "lab",     "hall"};

std::string StreamName(int s) {
  return (s < 10 ? "s0" : "s") + std::to_string(s);
}

/// One fleet: its own environment, streams, executor and pool.
struct Fleet {
  explicit Fleet(std::size_t threads)
      : executor(&env, &streams), pool(threads) {
    executor.set_pool(&pool);
    XRelation zones(ExtendedSchema::Create("zones",
                                           {{"area", DataType::kString},
                                            {"floor", DataType::kInt},
                                            {"alert_level", DataType::kInt}})
                        .ValueOrDie());
    for (int i = 0; i < 8; ++i) {
      zones.InsertUnchecked(Tuple{Value::String(kAreas[i]), Value::Int(i % 5),
                                  Value::Int(1 + i % 5)});
    }
    SERENA_CHECK(env.PutRelation(std::move(zones)).ok());
    for (int s = 0; s < kStreams; ++s) {
      SERENA_CHECK(streams
                       .AddStream(ExtendedSchema::Create(
                                      StreamName(s),
                                      {{"area", DataType::kString},
                                       {"host", DataType::kString},
                                       {"load", DataType::kReal},
                                       {"battery", DataType::kInt}})
                                      .ValueOrDie())
                       .ok());
    }
    SERENA_CHECK(obs::RegisterMetaRelations(&env, &executor).ok());
    executor.AddSource([this](Timestamp t) { return Feed(t); });

    Register("failing",
             "project[name, streak](select[streak >= 3](sys_query_health))");
    Register("stalled",
             "project[name, lag](select[lag >= 3](sys_query_health))");
    Register("stepping",
             "project[name, steps](select[steps >= 0](sys_query_health))");
    for (int i = 0; i < kQueries - 3; ++i) {
      const std::string window = "window[" + std::to_string(1 + i % 4) + "](" +
                                 StreamName(i % kStreams) + ")";
      const std::string threshold = std::to_string(10 * (1 + i % 9));
      std::string algebra;
      switch ((i / kStreams) % 4) {
        case 0:
          algebra = "select[load > " + threshold + "](" + window + ")";
          break;
        case 1:
          algebra = "project[area, load](select[battery > " + threshold +
                    "](" + window + "))";
          break;
        case 2:
          algebra = "aggregate[area; count() -> n](" + window + ")";
          break;
        default:
          algebra = "join(select[load > " + threshold + "](" + window +
                    "), zones)";
      }
      Register("q" + std::to_string(i), algebra);
    }
  }

  void Register(const std::string& name, const std::string& algebra) {
    SERENA_CHECK(executor
                     .Register(std::make_shared<ContinuousQuery>(
                         name, ParseAlgebra(algebra).ValueOrDie()))
                     .ok());
  }

  /// Four rows per stream per instant, a function of (t, stream, row).
  Status Feed(Timestamp t) {
    for (int s = 0; s < kStreams; ++s) {
      SERENA_ASSIGN_OR_RETURN(XDRelation * stream,
                              streams.GetStream(StreamName(s)));
      for (int k = 0; k < kRowsPerStream; ++k) {
        const std::uint64_t h = StableHash(std::to_string(t) + "/" +
                                           std::to_string(s) + "/" +
                                           std::to_string(k));
        SERENA_RETURN_NOT_OK(stream->Append(
            t, Tuple{Value::String(kAreas[h % 8]),
                     Value::String("host" + std::to_string((h >> 8) % 16)),
                     Value::Real(static_cast<double>((h >> 16) % 100)),
                     Value::Int(static_cast<std::int64_t>((h >> 24) % 100))}));
      }
    }
    return Status::OK();
  }

  Environment env;
  StreamStore streams;
  ContinuousExecutor executor;
  ThreadPool pool;
};

void SetMetrics(bool on) { obs::MetricsRegistry::Global().set_enabled(on); }

/// Allocations of one tick of `fleet` with metrics `on`.
std::uint64_t CountedTick(Fleet& fleet, bool on) {
  SetMetrics(on);
  const std::uint64_t before = allocations.load(std::memory_order_relaxed);
  fleet.executor.Tick();
  return allocations.load(std::memory_order_relaxed) - before;
}

void ReproduceStepAllocations() {
  bench::PrintHeader(
      "Standing-query bookkeeping (§4 continuous semantics)",
      "512 tiny standing queries re-evaluated every instant: heap "
      "allocations per steady-state step, metrics on vs off.");
  if (!SERENA_COUNT_ALLOCATIONS) {
    std::printf("allocation counting is off in sanitizer builds\n");
    return;
  }
  // Serial pools: the same allocations in the same order every run.
  Fleet metered(0);
  Fleet unmetered(0);
  constexpr int kWarmup = 24;
  constexpr int kTicks = 32;
  for (int i = 0; i < kWarmup; ++i) {
    CountedTick(metered, true);
    CountedTick(unmetered, false);
  }
  std::uint64_t on = 0;
  std::uint64_t off = 0;
  for (int i = 0; i < kTicks; ++i) {
    on += CountedTick(metered, true);
    off += CountedTick(unmetered, false);
  }
  SetMetrics(true);
  const double steps = static_cast<double>(kTicks) * kQueries;
  const double statistics =
      (static_cast<double>(on) - static_cast<double>(off)) / steps;
  std::printf("allocations/step : %8.3f metrics on, %8.3f metrics off\n",
              static_cast<double>(on) / steps,
              static_cast<double>(off) / steps);
  std::printf("statistics+health: %8.3f allocations/step\n", statistics);
  bench::RecordRepro("statistics_allocations_per_step", statistics,
                     "allocations");
}

/// One tick of the fleet; arg 0: metrics on (1) or off (0); arg 1: pool
/// threads (0 = serial).
void BM_FleetTick(benchmark::State& state) {
  const bool on = state.range(0) != 0;
  Fleet fleet(static_cast<std::size_t>(state.range(1)));
  SetMetrics(on);
  for (int i = 0; i < 16; ++i) fleet.executor.Tick();
  for (auto _ : state) fleet.executor.Tick();
  SetMetrics(true);
  state.SetItemsProcessed(state.iterations() * kQueries);
}
BENCHMARK(BM_FleetTick)
    ->ArgNames({"metrics", "threads"})
    ->Args({1, 0})
    ->Args({0, 0})
    ->Args({1, 3})
    ->Args({0, 3})
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace serena

int main(int argc, char** argv) {
  return serena::bench::RunReproAndBenchmarks(
      argc, argv, [] { serena::ReproduceStepAllocations(); });
}
