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
// It then attributes a step's allocations to each query shape, split into
// the one-time build of the query's fused pipelines (a fresh copy's first
// step less a warm copy's step at the same instant) and the run every
// step pays, with the rows a steady step pushes through its pipelines
// (`serena.vectorize.rows`). Two shapes outside the fleet, σ(W[8]) and
// ρ(π(σ(W[4]))), show incremental windows: their steps touch the
// arriving instant's rows, not the window's. The microbenchmarks time one
// tick of the fleet, metrics on and off, serial and on 3 pool threads.
//
//   ./build/bench/bench_query_runtime
//   ./build/bench/bench_query_runtime --benchmark_filter=BM_FleetTick

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

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

/// The fleet's query shapes, then the shapes only the per-shape probe
/// steps.
enum Shape {
  kSelect,
  kProjectSelect,
  kAggregate,
  kJoin,
  kHealth,
  kSelectWide,
  kRenameProjectSelect,
  kShapes
};

const char* const kShapeNames[kShapes] = {
    "select(window)",
    "project(select(window))",
    "aggregate(window)",
    "join(select(window), zones)",
    "project(select(sys_query_health))",
    "select(window[8])",
    "rename(project(select(window[4])))"};

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
             "project[name, streak](select[streak >= 3](sys_query_health))",
             kHealth);
    Register("stalled",
             "project[name, lag](select[lag >= 3](sys_query_health))",
             kHealth);
    Register("stepping",
             "project[name, steps](select[steps >= 0](sys_query_health))",
             kHealth);
    for (int i = 0; i < kQueries - 3; ++i) {
      const std::string window = "window[" + std::to_string(1 + i % 4) + "](" +
                                 StreamName(i % kStreams) + ")";
      const std::string threshold = std::to_string(10 * (1 + i % 9));
      const auto shape = static_cast<Shape>((i / kStreams) % 4);
      std::string algebra;
      switch (shape) {
        case kSelect:
          algebra = "select[load > " + threshold + "](" + window + ")";
          break;
        case kProjectSelect:
          algebra = "project[area, load](select[battery > " + threshold +
                    "](" + window + "))";
          break;
        case kAggregate:
          algebra = "aggregate[area; count() -> n](" + window + ")";
          break;
        default:
          algebra = "join(select[load > " + threshold + "](" + window +
                    "), zones)";
      }
      Register("q" + std::to_string(i), algebra, shape);
    }
  }

  void Register(const std::string& name, const std::string& algebra,
                Shape shape) {
    auto query = std::make_shared<ContinuousQuery>(
        name, ParseAlgebra(algebra).ValueOrDie());
    shapes.push_back(shape);
    queries.push_back(query);
    SERENA_CHECK(executor.Register(std::move(query)).ok());
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
  /// Every registered query and its shape, in registration order.
  std::vector<ContinuousQueryPtr> queries;
  std::vector<Shape> shapes;
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

/// Steps a copy of each fleet query at every instant, once its sources
/// have fed it and before the fleet's own steps: a warm copy, whose
/// pipelines were prepared at an earlier instant, and a fresh copy, whose
/// first step prepares them. Each step is counted on its own.
class ShapeProbe : public TickObserver {
 public:
  explicit ShapeProbe(Fleet& fleet)
      : fleet_(fleet),
        rows_(obs::MetricsRegistry::Global().GetCounter(
            "serena.vectorize.rows")) {
    for (std::size_t i = 0; i < fleet.queries.size(); ++i) {
      Add(fleet.queries[i]->name(), fleet.queries[i]->plan(), fleet.shapes[i]);
    }
    for (int s = 0; s < kStreams; ++s) {
      const std::string stream = StreamName(s);
      Add("wide" + stream, "select[load > 50](window[8](" + stream + "))",
          kSelectWide);
      Add("hot" + stream,
          "rename[load -> cpu](project[area, host, load](select[battery > "
          "10](window[4](" + stream + "))))",
          kRenameProjectSelect);
    }
  }

  void OnSourcesDone(Timestamp now) override {
    for (std::size_t i = 0; i < warm_.size(); ++i) {
      ContinuousQuery& warm = *warm_[i];
      if (!measuring_) {  // Warming up: prepares the warm copy.
        CountedStep(warm, now);
        continue;
      }
      const Shape shape = shapes_[i];
      ContinuousQuery fresh(warm.name(), warm.plan());
      first_[shape] += CountedStep(fresh, now);
      const std::uint64_t builds = warm.runtime()->pipelines().builds();
      const std::uint64_t rows = rows_.value();
      steady_[shape] += CountedStep(warm, now);
      rows_touched_[shape] += rows_.value() - rows;
      warm_builds_ += warm.runtime()->pipelines().builds() - builds;
      ++steps_[shape];
    }
  }

  /// Starts counting: the warm copies are prepared by now.
  void StartMeasuring() { measuring_ = true; }

  double First(Shape shape) const { return PerStep(first_, shape); }
  double Steady(Shape shape) const { return PerStep(steady_, shape); }
  /// Rows a steady-state step pushed through its pipelines.
  double RowsTouched(Shape shape) const {
    return PerStep(rows_touched_, shape);
  }
  std::uint64_t steps(Shape shape) const { return steps_[shape]; }
  /// Pipelines the warm copies prepared while measured: 0 when every
  /// steady-state step only rebinds and runs.
  std::uint64_t warm_builds() const { return warm_builds_; }

 private:
  void Add(const std::string& name, PlanPtr plan, Shape shape) {
    warm_.push_back(std::make_unique<ContinuousQuery>(name, std::move(plan)));
    shapes_.push_back(shape);
  }
  void Add(const std::string& name, const std::string& algebra, Shape shape) {
    Add(name, ParseAlgebra(algebra).ValueOrDie(), shape);
  }

  std::uint64_t CountedStep(ContinuousQuery& query, Timestamp now) {
    const std::uint64_t before = allocations.load(std::memory_order_relaxed);
    SERENA_CHECK(query.Step(&fleet_.env, &fleet_.streams, now).ok());
    return allocations.load(std::memory_order_relaxed) - before;
  }

  double PerStep(const std::array<std::uint64_t, kShapes>& counts,
                 Shape shape) const {
    return steps_[shape] == 0 ? 0.0
                              : static_cast<double>(counts[shape]) /
                                    static_cast<double>(steps_[shape]);
  }

  Fleet& fleet_;
  obs::Counter& rows_;
  std::vector<std::unique_ptr<ContinuousQuery>> warm_;
  std::vector<Shape> shapes_;
  bool measuring_ = false;
  std::array<std::uint64_t, kShapes> first_{};
  std::array<std::uint64_t, kShapes> steady_{};
  std::array<std::uint64_t, kShapes> rows_touched_{};
  std::array<std::uint64_t, kShapes> steps_{};
  std::uint64_t warm_builds_ = 0;
};

/// Allocations per step of each query shape: the one-time build of its
/// pipelines and the run every step pays.
void ReproduceShapeAllocations() {
  if (!SERENA_COUNT_ALLOCATIONS) return;
  bench::PrintSection("allocations per step by query shape");
  Fleet fleet(0);
  ShapeProbe probe(fleet);
  fleet.executor.AddTickObserver(&probe);
  for (int i = 0; i < 24; ++i) fleet.executor.Tick();
  probe.StartMeasuring();
  for (int i = 0; i < 32; ++i) fleet.executor.Tick();
  fleet.executor.RemoveTickObserver(&probe);

  std::printf("%-36s %7s %8s %8s %8s %8s\n", "shape", "steps", "first",
              "build", "run", "rows");
  for (int s = 0; s < kShapes; ++s) {
    const auto shape = static_cast<Shape>(s);
    const double build = probe.First(shape) - probe.Steady(shape);
    std::printf("%-36s %7llu %8.3f %8.3f %8.3f %8.2f\n", kShapeNames[s],
                static_cast<unsigned long long>(probe.steps(shape)),
                probe.First(shape), build, probe.Steady(shape),
                probe.RowsTouched(shape));
    bench::RecordRepro(std::string("run_allocations_per_step.") +
                           kShapeNames[s],
                       probe.Steady(shape), "allocations");
    bench::RecordRepro(std::string("rows_touched_per_step.") + kShapeNames[s],
                       probe.RowsTouched(shape), "rows");
  }
  std::printf("pipelines built by steady-state steps: %llu (build "
              "allocations per steady-state step: 0)\n",
              static_cast<unsigned long long>(probe.warm_builds()));
  bench::RecordRepro("steady_state_pipeline_builds",
                     static_cast<double>(probe.warm_builds()), "pipelines");
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
      argc, argv, [] {
        serena::ReproduceStepAllocations();
        serena::ReproduceShapeAllocations();
      });
}
