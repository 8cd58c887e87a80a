// serena_e2e: one round of one workload of the end-to-end benchmark, in a
// process of its own (bench/e2e/README.md). The metrics registry, the
// statistics store, the shared pool and the engine's environment switches
// are process-global, so rounds never share a process; run.sh starts one
// per round and aggregates their output.
//
//   serena_e2e --workload=W --seed=S [--mode=measure|verify|setup]
//              [--seconds=X] [--scale=K] [--perturb] [--steps]
//              [--trace-out=FILE] [--stages=LIST]
//
// A setup round only sets up and reports how long that took. A measure
// round sets up, runs the workload's warm-up instants, then
// issues instants back to back (a closed loop: one thread, one
// logical clock) for X seconds. Each instant's input is generated before
// its tick, outside the timed region. In every workload but console_churn
// console visits are interleaved with the ticks and get a tenth of the X
// seconds (workloads.h). The round prints one JSON object.

#include <cinttypes>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "client.h"
#include "common/thread_pool.h"
#include "obs/json.h"
#include "obs/meta.h"
#include "workloads.h"

#ifndef SERENA_E2E_BUILD_TYPE
#define SERENA_E2E_BUILD_TYPE ""
#endif

namespace serena::e2e {
namespace {

/// The share of a measured round the console gets when its visits are
/// interleaved with the ticks. At about 4 ms a visit, a tenth of a
/// 5.6-second round is some 130 visits, spread over the whole round so
/// that they meet the same host phases as the ticks.
constexpr double kConsoleShare = 0.1;
/// Console visits before recording, as console_churn's warm-up instants.
constexpr int kConsoleWarmupVisits = 32;
/// Console visits a verify run digests after its instants: every template
/// variant of every family at least twice.
constexpr int kVerifyVisits = 12;

struct Options {
  std::string workload;
  std::string mode = "measure";
  Params params;
  double seconds = 5.0;
  /// Traced round: spans go here as Chrome trace_event JSON.
  std::string trace_out;
  /// Record per-query step times (meaningful under a serial pool).
  bool steps = false;
  /// Optimizer stages for every query; empty keeps the defaults.
  std::string stages;
};

bool Flag(std::string_view arg, std::string_view name, std::string* value) {
  const std::string prefix = std::string(name) + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = std::string(arg.substr(prefix.size()));
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: serena_e2e --workload=NAME --seed=N "
               "[--mode=measure|verify|setup] [--seconds=X] [--scale=K] "
               "[--perturb] [--steps] [--trace-out=FILE] [--stages=LIST]\n"
               "       serena_e2e --build-type\n");
  return 2;
}

/// Engine counters that console operations move as well as ticks.
struct EngineCounters {
  std::uint64_t vec_rows = 0;
  std::uint64_t vec_pipelines = 0;
  std::uint64_t logical = 0;
  std::uint64_t physical = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t failed_invocations = 0;
};

constexpr std::uint64_t EngineCounters::*kEngineFields[] = {
    &EngineCounters::vec_rows,       &EngineCounters::vec_pipelines,
    &EngineCounters::logical,        &EngineCounters::physical,
    &EngineCounters::memo_hits,      &EngineCounters::failed_invocations};

std::uint64_t CounterValue(const char* name) {
  const obs::Counter* counter =
      obs::MetricsRegistry::Global().FindCounter(name);
  return counter != nullptr ? counter->value() : 0;
}

EngineCounters ReadEngine(Pems& pems) {
  const InvocationStats invocations = pems.env().registry().stats();
  EngineCounters counters;
  counters.vec_rows = CounterValue("serena.vectorize.rows");
  counters.vec_pipelines = CounterValue("serena.vectorize.pipelines");
  counters.logical = invocations.logical_invocations;
  counters.physical = invocations.physical_invocations;
  counters.memo_hits = invocations.memo_hits;
  counters.failed_invocations = invocations.failed_invocations;
  return counters;
}

/// Adds `after - before` to `sum`, field by field.
void AddDelta(const EngineCounters& after, const EngineCounters& before,
              EngineCounters* sum) {
  for (const auto field : kEngineFields) {
    sum->*field += after.*field - before.*field;
  }
}

/// Counters read at the start and end of the measured window.
struct Snapshot {
  std::uint64_t events = 0;
  std::uint64_t rows = 0;
  std::uint64_t pruned = 0;
  std::uint64_t actions = 0;
  std::uint64_t device_failures = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  EngineCounters engine;
};

Snapshot Take(Client& client, const Workload& workload) {
  Pems& pems = client.pems();
  ContinuousExecutor& executor = pems.queries().executor();
  Snapshot snapshot;
  snapshot.events = workload.events();
  snapshot.rows = client.result_rows();
  snapshot.pruned = executor.total_pruned_tuples();
  for (const std::string& name : executor.QueryNames()) {
    auto query = executor.GetQuery(name);
    if (query.ok()) snapshot.actions += (*query)->action_log().size();
  }
  snapshot.device_failures = workload.devices().injected_failures.load();
  snapshot.attempted = client.attempted();
  snapshot.failed = client.failed();
  snapshot.engine = ReadEngine(pems);
  return snapshot;
}

/// Peak resident set of this process image, in KB. wait4's ru_maxrss
/// would also count the launcher's image the child was forked from,
/// which the kernel folds in at exec.
std::uint64_t PeakRssKb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0;
  char line[256];
  std::uint64_t kb = 0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %" SCNu64, &kb) == 1) break;
  }
  std::fclose(status);
  return kb;
}

void Array(obs::JsonWriter& json, const char* key,
           const std::vector<std::uint64_t>& values) {
  json.Key(key).BeginArray();
  for (const std::uint64_t value : values) json.Value(value);
  json.EndArray();
}

int Run(const Options& options) {
  // Declared before the PEMS, so the devices and the pump it calls back
  // into outlive it.
  std::unique_ptr<Workload> workload =
      MakeWorkload(options.workload, options.params);
  if (workload == nullptr) return Usage();
  const bool traced = !options.trace_out.empty();
  const bool verify = options.mode == "verify";
  Tracer tracer;
  Digest digest;

  const std::uint64_t setup_start = NowNs();
  auto created = Pems::Create();
  if (!created.ok()) {
    std::fprintf(stderr, "cannot create PEMS: %s\n",
                 created.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<Pems> pems = std::move(created).ValueOrDie();
  if (!options.stages.empty()) {
    auto stages = optimizer::OptimizerOptions::FromStages(options.stages);
    if (!stages.ok()) {
      std::fprintf(stderr, "--stages: %s\n",
                   stages.status().ToString().c_str());
      return 2;
    }
    pems->queries().set_optimizer_options(*stages);
  }
  ContinuousExecutor& executor = pems->queries().executor();
  Client client(pems.get(), traced ? &tracer : nullptr,
                verify ? &digest : nullptr, options.steps);
  if (traced) executor.AddTickObserver(&tracer);
  if (verify) executor.AddTickObserver(&digest);
  // sys_* meta-relations, registered as the shell registers them.
  Status status = obs::RegisterMetaRelations(&pems->env(), &executor);
  if (status.ok()) status = workload->Setup(client);
  if (!status.ok()) {
    std::fprintf(stderr, "%s setup failed: %s\n", options.workload.c_str(),
                 status.ToString().c_str());
    return 1;
  }
  const std::uint64_t setup_ns = NowNs() - setup_start;

  obs::JsonWriter json;
  json.BeginObject()
      .Key("workload").Value(options.workload)
      .Key("mode").Value(options.mode)
      .Key("seed").Value(options.params.seed)
      .Key("scale").Value(options.params.scale)
      .Key("pool_threads").Value(ThreadPool::Shared().num_threads())
      .Key("setup_ns").Value(setup_ns)
      .Key("setup_ddl_ns").Value(client.ddl_ns())
      .Key("setup_register_ns").Value(client.register_ns());

  const bool between_ticks = workload->console_between_ticks();
  const auto instant = [&](std::uint64_t* generate_ns) {
    const Timestamp t = pems->env().clock().now() + 1;
    const std::uint64_t start = NowNs();
    workload->Generate(t);
    if (generate_ns != nullptr) *generate_ns += NowNs() - start;
    client.Tick();
    if (between_ticks) workload->VisitConsole(client);
  };
  const auto setup_console = [&] {
    const Status console = workload->SetupConsole(client);
    if (!console.ok()) {
      std::fprintf(stderr, "%s console setup failed: %s\n",
                   options.workload.c_str(), console.ToString().c_str());
    }
    return console.ok();
  };

  if (verify) {
    const auto end_instant = [&] {
      char hex[17];
      std::snprintf(hex, sizeof(hex), "%016" PRIx64, digest.EndInstant());
      json.Value(hex);
    };
    json.Key("digests").BeginArray();
    for (int i = 0; i < workload->verify_instants(); ++i) {
      instant(nullptr);
      end_instant();
    }
    if (!between_ticks) {
      if (!setup_console()) return 1;
      for (int i = 0; i < kVerifyVisits; ++i) {
        workload->VisitConsole(client);
        end_instant();
      }
    }
    json.EndArray();
    json.Key("failed").Value(client.failed());
  } else if (options.mode == "measure") {
    for (int i = 0; i < workload->warmup_instants(); ++i) instant(nullptr);
    // Exact counts after the fixed warm-up: every round of a seed must
    // reproduce them, whatever its thread count or instrumentation.
    const Snapshot warm = Take(client, *workload);
    json.Key("exact").BeginObject()
        .Key("rows").Value(warm.rows)
        .Key("actions").Value(warm.actions)
        .Key("device_failures").Value(warm.device_failures)
        .EndObject();

    if (!between_ticks) {
      if (!setup_console()) return 1;
      for (int i = 0; i < kConsoleWarmupVisits; ++i) {
        workload->VisitConsole(client);
      }
    }

    const Snapshot begin = Take(client, *workload);
    const auto budget_ns = static_cast<std::uint64_t>(options.seconds * 1e9);
    client.set_recording(true);
    std::uint64_t generate_ns = 0;
    std::uint64_t console_ns = 0;
    EngineCounters console;
    std::uint64_t instants = 0;
    const std::uint64_t start = NowNs();
    std::uint64_t now = start;
    do {
      instant(&generate_ns);
      ++instants;
      now = NowNs();
      // A visit whenever the console is behind its share of the round so
      // far: one every few ticks, or several after a long tick. Its time
      // and engine counters are kept apart from the ticks'.
      while (!between_ticks &&
             static_cast<double>(console_ns) <
                 kConsoleShare * static_cast<double>(now - start)) {
        const EngineCounters before = ReadEngine(*pems);
        workload->VisitConsole(client);
        AddDelta(ReadEngine(*pems), before, &console);
        const std::uint64_t visited = NowNs();
        console_ns += visited - now;
        now = visited;
      }
    } while (now - start < budget_ns);
    const std::uint64_t wall_ns = now - start;
    client.set_recording(false);
    const Snapshot end = Take(client, *workload);
    const auto ticks_only = [&](std::uint64_t EngineCounters::*field) {
      return end.engine.*field - begin.engine.*field - console.*field;
    };

    const Samples& samples = client.samples();
    json.Key("instants").Value(instants)
        .Key("wall_ns").Value(wall_ns)
        .Key("generate_ns").Value(generate_ns)
        .Key("console_ns").Value(console_ns)
        .Key("attempted").Value(client.attempted() - warm.attempted)
        .Key("failed").Value(client.failed() - warm.failed)
        .Key("failed_total").Value(client.failed())
        // Whole process: every injected fault must surface as exactly one
        // failed invocation in the registry.
        .Key("device_failures_injected").Value(end.device_failures)
        .Key("registry_failures").Value(end.engine.failed_invocations);
    json.Key("counts").BeginObject()
        .Key("events").Value(end.events - begin.events)
        .Key("result_rows").Value(end.rows - begin.rows)
        .Key("pruned").Value(end.pruned - begin.pruned)
        .Key("actions").Value(end.actions - begin.actions)
        .Key("vec_rows").Value(ticks_only(&EngineCounters::vec_rows))
        .Key("vec_pipelines").Value(ticks_only(&EngineCounters::vec_pipelines))
        .Key("logical").Value(ticks_only(&EngineCounters::logical))
        .Key("physical").Value(ticks_only(&EngineCounters::physical))
        .Key("memo_hits").Value(ticks_only(&EngineCounters::memo_hits))
        .Key("failed_invocations").Value(
            ticks_only(&EngineCounters::failed_invocations))
        .EndObject();
    Array(json, "tick_ns", samples.tick);
    Array(json, "oneshot_ns", samples.oneshot);
    Array(json, "oneshot_visit_ns", samples.oneshot_visit);
    Array(json, "register_ns", samples.reg);
    Array(json, "unregister_ns", samples.unreg);
    Array(json, "write_ns", samples.write);
    Array(json, "write_visit_ns", samples.write_visit);
    if (options.steps) Array(json, "step_ns", samples.step);
    if (traced) {
      json.Key("trace").BeginObject();
      json.Key("spans").BeginObject();
      for (const auto& [name, total] : tracer.Totals()) {
        json.Key(name).BeginObject()
            .Key("count").Value(total.count)
            .Key("total_ns").Value(total.total_ns)
            .Key("self_ns").Value(total.self_ns)
            .EndObject();
      }
      json.EndObject();
      // Layer samples cover set-up and the measured window alike.
      Array(json, "parse_ns", samples.parse);
      Array(json, "analyze_ns", samples.analyze);
      Array(json, "lint_ns", samples.lint);
      Array(json, "optimize_ns", samples.optimize);
      Array(json, "execute_ns", samples.execute);
      json.Key("optimize_runs").Value(samples.optimize_runs)
          .Key("optimize_changed").Value(samples.optimize_changed)
          .Key("fragments").Value(samples.fragments);
      json.EndObject();
      status = tracer.WriteChromeJson(options.trace_out);
      if (!status.ok()) {
        std::fprintf(stderr, "%s\n", status.ToString().c_str());
        return 1;
      }
    }
  }
  json.Key("peak_rss_kb").Value(PeakRssKb());
  json.EndObject();
  std::printf("%s\n", json.str().c_str());
  return 0;
}

int Main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    std::string value;
    if (arg == "--build-type") {
      std::printf("%s\n", SERENA_E2E_BUILD_TYPE);
      return 0;
    } else if (arg == "--perturb") {
      options.params.perturb = true;
    } else if (arg == "--steps") {
      options.steps = true;
    } else if (Flag(arg, "--workload", &value)) {
      options.workload = value;
    } else if (Flag(arg, "--mode", &value)) {
      options.mode = value;
    } else if (Flag(arg, "--seed", &value)) {
      options.params.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (Flag(arg, "--scale", &value)) {
      options.params.scale = std::max(1, std::atoi(value.c_str()));
    } else if (Flag(arg, "--seconds", &value)) {
      options.seconds = std::atof(value.c_str());
    } else if (Flag(arg, "--trace-out", &value)) {
      options.trace_out = value;
    } else if (Flag(arg, "--stages", &value)) {
      options.stages = value;
    } else {
      return Usage();
    }
  }
  if (options.workload.empty() ||
      (options.mode != "measure" && options.mode != "verify" &&
       options.mode != "setup")) {
    return Usage();
  }
  return Run(options);
}

}  // namespace
}  // namespace serena::e2e

int main(int argc, char** argv) { return serena::e2e::Main(argc, argv); }
