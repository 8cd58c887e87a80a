#ifndef SERENA_BENCH_E2E_WORKLOADS_H_
#define SERENA_BENCH_E2E_WORKLOADS_H_

// The four benchmark workloads (bench/e2e/README.md says why each one
// exists). A workload declares its catalogs, streams, devices and standing
// queries through the `Client`, generates each instant's input from
// (seed, workload, instant) before the tick, and owns a console client.
// Nothing here is timed: round.cc and the client time.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "client.h"

namespace serena::e2e {

struct Params {
  std::uint64_t seed = 1;
  /// Every size (rows per instant, queries, devices, catalog rows) is
  /// divided by this; 1 is the full benchmark, 50 the smoke.
  int scale = 1;
  /// Alter one generated value (the verify check's negative control).
  bool perturb = false;
};

/// Faults injected by the benchmark-owned devices.
struct DeviceCounters {
  std::atomic<std::uint64_t> injected_failures{0};
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Catalogs, streams, devices, sources and standing queries.
  virtual Status Setup(Client& client) = 0;
  /// Generates instant `t`'s stream input (appended by the workload's
  /// source when the tick runs).
  virtual void Generate(Timestamp t) = 0;

  /// The console: one client's one-shot queries, table writes and
  /// standing-query churn. console_churn visits it after every tick and
  /// sets it up in `Setup`. Every other workload sets it up after its
  /// warm-up instants and interleaves visits with its measured ticks
  /// (round.cc); its set-up, tick and rate metrics leave the console out.
  virtual bool console_between_ticks() const = 0;
  /// The console's catalogs and local devices.
  virtual Status SetupConsole(Client& client) = 0;
  /// Four one-shot queries, two table writes, one unregister + register.
  virtual void VisitConsole(Client& client) = 0;

  /// Instants run before measuring (not counted), and in a verify run.
  virtual int warmup_instants() const = 0;
  virtual int verify_instants() const = 0;

  /// Stream tuples appended so far.
  virtual std::uint64_t events() const = 0;
  const DeviceCounters& devices() const { return devices_; }

 protected:
  DeviceCounters devices_;
};

/// firehose, query_fleet, device_fanout or console_churn; nullptr for an
/// unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const Params& params);

}  // namespace serena::e2e

#endif  // SERENA_BENCH_E2E_WORKLOADS_H_
