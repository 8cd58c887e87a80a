// Parallel invocation engine benchmark: the same β_bp invocation batch
// executed serially and on the registry's invoker threads. Service latency
// dominates real pervasive environments (the paper's sensors answer over
// the network in milliseconds), so concurrent dispatch of independent
// invocations is where the engine wins wall-clock time. The reproduction
// checks the headline guarantee too: the parallel output is byte-identical
// to the serial one (input order, failed-tuple order, stats).

#include <chrono>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "algebra/operators.h"
#include "common/thread_pool.h"
#include "ddl/algebra_parser.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "service/lambda_service.h"
#include "service/service_registry.h"
#include "stream/continuous_query.h"
#include "stream/executor.h"
#include "stream/stream_store.h"
#include "xrel/environment.h"

namespace serena {
namespace {

RelationSchema Schema(std::vector<Attribute> attrs) {
  return RelationSchema::Create(std::move(attrs)).ValueOrDie();
}

PrototypePtr ProbePrototype() {
  static PrototypePtr proto =
      Prototype::Create("probe", Schema({{"x", DataType::kInt}}),
                        Schema({{"y", DataType::kInt}}),
                        /*active=*/false)
          .ValueOrDie();
  return proto;
}

/// `n` services, each answering y = x*10+i after `latency` (a simulated
/// network round trip to a remote sensor).
void RegisterProbeServices(ServiceRegistry* registry, int n,
                           std::chrono::microseconds latency) {
  for (int i = 0; i < n; ++i) {
    auto service =
        std::make_shared<LambdaService>("svc" + std::to_string(i));
    service->AddMethod(
        ProbePrototype(),
        [i, latency](const Tuple& input,
                     Timestamp) -> Result<std::vector<Tuple>> {
          if (latency.count() > 0) std::this_thread::sleep_for(latency);
          return std::vector<Tuple>{
              Tuple{Value::Int(input[0].int_value() * 10 + i)}};
        });
    (void)registry->Register(std::move(service));
  }
}

XRelation ProbeRelation(int rows, int services) {
  auto schema =
      ExtendedSchema::Create(
          "probes",
          {{"svc", DataType::kService},
           {"x", DataType::kInt},
           {"y", DataType::kInt, AttributeKind::kVirtual}},
          {BindingPattern(ProbePrototype(), "svc")})
          .ValueOrDie();
  XRelation r(schema);
  for (int i = 0; i < rows; ++i) {
    (void)r.Insert(
        Tuple{Value::String("svc" + std::to_string(i % services)),
              Value::Int(i)});
  }
  return r;
}

constexpr int kServices = 16;
constexpr int kRows = 32;

/// Invokes the whole relation once at instant `instant` on `pool` and
/// returns (elapsed ns, output table).
std::pair<double, std::string> TimeInvoke(const XRelation& input,
                                          ServiceRegistry* registry,
                                          ThreadPool* pool,
                                          Timestamp instant) {
  InvokeOptions options;
  options.instant = instant;
  options.pool = pool;
  const auto start = std::chrono::steady_clock::now();
  XRelation out =
      Invoke(input, input.schema().binding_patterns()[0], registry, options)
          .ValueOrDie();
  const auto end = std::chrono::steady_clock::now();
  return {static_cast<double>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(end -
                                                                   start)
                  .count()),
          out.ToTableString()};
}

void ReproduceParallelInvoke() {
  bench::PrintHeader(
      "parallel_invoke",
      "One invocation batch (32 tuples over 16 services, 1 ms simulated "
      "service latency) dispatched serially vs. from a 4-thread caller "
      "pool, whose physical calls run on the registry's invoker threads; "
      "the parallel run must produce a byte-identical X-Relation.");

  const XRelation input = ProbeRelation(kRows, kServices);
  const auto latency = std::chrono::milliseconds(1);

  // Separate registries, each warmed up by one batch at instant 1 (the
  // invoker threads start on demand, once): the timed batch at instant 2
  // sees a fresh memo, so every physical call happens again.
  ServiceRegistry serial_registry;
  RegisterProbeServices(&serial_registry, kServices, latency);
  ThreadPool serial_pool(0);
  TimeInvoke(input, &serial_registry, &serial_pool, 1);
  const auto [serial_ns, serial_table] =
      TimeInvoke(input, &serial_registry, &serial_pool, 2);

  ServiceRegistry parallel_registry;
  RegisterProbeServices(&parallel_registry, kServices, latency);
  ThreadPool pool(4);
  TimeInvoke(input, &parallel_registry, &pool, 1);
  const auto [parallel_ns, parallel_table] =
      TimeInvoke(input, &parallel_registry, &pool, 2);

  const bool identical = parallel_table == serial_table;
  const double speedup = parallel_ns > 0 ? serial_ns / parallel_ns : 0;
  std::printf("serial   : %10.3f ms\n", serial_ns / 1e6);
  std::printf("parallel : %10.3f ms   (invoker threads)\n",
              parallel_ns / 1e6);
  std::printf("speedup  : %10.2fx\n", speedup);
  std::printf("output   : %s\n",
              identical ? "byte-identical to serial" : "MISMATCH");

  // Wall-clock figures go in as timing records: --compare tolerates
  // noise on them, unlike the exact output-equality bit below.
  bench::RecordReproTiming("serial_invoke_ns", serial_ns, "ns");
  bench::RecordReproTiming("parallel_invoke_ns", parallel_ns, "ns");
  bench::RecordReproTiming("speedup", speedup, "x");
  bench::RecordRepro("outputs_identical", identical ? 1 : 0, "bool");
}

/// Causal-tracing demo: independent continuous queries over the probe
/// services (200 µs simulated service latency — slow enough that the
/// pool's workers genuinely share the step and invocation load) ticked
/// on a 4-thread pool with the trace buffer on. The resulting Chrome
/// trace (one track per pool thread, tick → step → invoke nesting held
/// together by trace/parent ids) is written next to the BENCH_*.json
/// records when SERENA_BENCH_JSON_DIR is set — open it in
/// chrome://tracing or https://ui.perfetto.dev.
void ReproduceTracedTicks() {
  bench::PrintSection("traced executor ticks (Chrome trace export)");

  obs::TraceBuffer& buffer = obs::TraceBuffer::Global();
  buffer.set_capacity(4096);
  buffer.Clear();
  buffer.set_enabled(true);

  Environment env;
  RegisterProbeServices(&env.registry(), kServices,
                        std::chrono::microseconds(200));
  if (!env.PutRelation(ProbeRelation(kRows, kServices)).ok()) return;
  StreamStore streams;
  ContinuousExecutor executor(&env, &streams);
  ThreadPool pool(4);
  executor.set_pool(&pool);
  for (int i = 0; i < 4; ++i) {
    auto plan = ParseAlgebra("invoke[probe](probes)");
    if (!plan.ok()) return;
    (void)executor.Register(std::make_shared<ContinuousQuery>(
        "probe-all-" + std::to_string(i), *plan));
  }
  executor.Run(3);
  buffer.set_enabled(false);

  std::size_t ticks = 0;
  std::size_t steps = 0;
  std::size_t invokes = 0;
  std::set<std::uint64_t> threads;
  for (const obs::SpanRecord& span : buffer.Snapshot()) {
    if (span.name == "executor.tick") ++ticks;
    if (span.name == "executor.step") ++steps;
    if (span.name == "service.invoke" || span.name == "invoke.wait") {
      ++invokes;
    }
    threads.insert(span.thread_index);
  }
  std::printf(
      "spans    : %10zu  (%zu ticks, %zu steps, %zu invoke spans, "
      "%zu threads)\n",
      buffer.size(), ticks, steps, invokes, threads.size());
  bench::RecordRepro("trace_spans", static_cast<double>(buffer.size()),
                     "spans");
  bench::RecordRepro("trace_threads", static_cast<double>(threads.size()),
                     "threads");

  const char* json_dir = std::getenv("SERENA_BENCH_JSON_DIR");
  if (json_dir != nullptr && *json_dir != '\0') {
    const std::string path =
        std::string(json_dir) + "/TRACE_parallel_invoke.json";
    const std::string trace = obs::ExportChromeTrace(buffer);
    if (std::FILE* file = std::fopen(path.c_str(), "w")) {
      std::fputs(trace.c_str(), file);
      std::fclose(file);
      std::printf("wrote %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "could not write %s\n", path.c_str());
    }
  }
}

// ---------------------------------------------------------------------------
// Throughput benchmarks: physical groups per batch x service latency.
// ---------------------------------------------------------------------------

/// One 64-request batch whose requests fall into `groups` distinct
/// (service, input) pairs, each answering after `latency_us`. The physical
/// calls run on the registry's invoker threads, so the batch's width is
/// its group count; `serial` = 1 dispatches them inline on a serial pool
/// instead (`SERENA_THREADS=0`).
void BM_InvokeBatch(benchmark::State& state) {
  const auto groups = static_cast<int>(state.range(0));
  const auto latency = std::chrono::microseconds(state.range(1));
  const bool serial = state.range(2) != 0;
  constexpr int kBatch = 64;
  ServiceRegistry registry;
  RegisterProbeServices(&registry, kServices, latency);
  std::vector<InvocationRequest> requests;
  for (int i = 0; i < kBatch; ++i) {
    const int x = i % groups;
    requests.push_back(
        {"svc" + std::to_string(x % kServices), Tuple{Value::Int(x)}});
  }
  ThreadPool pool(serial ? 0 : 4);
  Timestamp instant = 0;  // Fresh instant per iteration: no memo hits.
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        registry.InvokeMany(*ProbePrototype(), requests, ++instant, &pool));
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_InvokeBatch)
    ->ArgNames({"groups", "latency_us", "serial"})
    ->Args({16, 0, 1})
    ->Args({16, 0, 0})
    ->Args({64, 0, 0})
    ->Args({16, 1000, 1})
    ->Args({1, 1000, 0})
    ->Args({4, 1000, 0})
    ->Args({16, 1000, 0})
    ->Args({64, 1000, 0})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace serena

int main(int argc, char** argv) {
  return serena::bench::RunReproAndBenchmarks(argc, argv, [] {
    serena::ReproduceParallelInvoke();
    serena::ReproduceTracedTicks();
  });
}
