#ifndef SERENA_SERVICE_SERVICE_REGISTRY_H_
#define SERENA_SERVICE_SERVICE_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "service/prototype.h"
#include "service/service.h"
#include "types/tuple.h"

namespace serena {

/// Counters describing the invocation traffic a query (or a whole run)
/// generated. Exposed for the cost model and the benchmark harness.
struct InvocationStats {
  /// All invocations requested through the registry.
  std::uint64_t logical_invocations = 0;
  /// Invocations that actually reached a service (memoization misses).
  std::uint64_t physical_invocations = 0;
  /// Invocations of *active* prototypes (always physical; never memoized
  /// away across queries, but identical repeats within one instant are
  /// still served from the memo per the paper's instant determinism).
  std::uint64_t active_invocations = 0;
  /// Output tuples produced by *physical* invocations only. Memo-served
  /// repeats do not re-count their tuples: the counter measures service
  /// traffic, not result cardinality (which the caller can always sum
  /// itself).
  std::uint64_t output_tuples = 0;
  /// Invocations answered from the per-instant memo (§3.2 determinism).
  /// In a batch, duplicates of an identical in-flight request also count
  /// here (the serial loop would have served them from the memo).
  std::uint64_t memo_hits = 0;
  /// Invocations that failed (unknown service, prototype mismatch,
  /// service fault, schema violation).
  std::uint64_t failed_invocations = 0;
};

/// One caller's share of the registry-wide counters above: the logical
/// invocations and memo hits its own requests produced. Concurrent
/// callers each keep their own tally, so neither sees the other's calls.
struct InvocationTally {
  std::uint64_t logical_invocations = 0;
  std::uint64_t memo_hits = 0;
};

/// Reference-counted invocation result rows. §3.2 instant determinism
/// makes a memoized result immutable for the rest of the instant, so memo
/// hits hand out the same underlying vector instead of copying it.
using TupleRows = std::shared_ptr<const std::vector<Tuple>>;

/// One (service, input) pair of a batched invocation (`InvokeMany`).
struct InvocationRequest {
  std::string service_ref;
  Tuple input;
};

/// The service discovery and invocation mechanism (§2.1): tracks the set Ω
/// of currently available services and implements the invocation function
/// invoke_ψ(s, t) of Def. 1.
///
/// Instant determinism (§3.2): within one logical instant, invoking the
/// same prototype on the same service with the same input always yields
/// the same result. The registry enforces this by memoizing results per
/// instant; the memo is discarded whenever the instant advances.
///
/// Thread safety: all members are safe to call concurrently. The memo,
/// service map, instrument cache, and listener list are mutex-guarded;
/// statistics are atomic. Physical service calls run *outside* any
/// registry lock, so independent invocations overlap freely; `Service`
/// implementations invoked through the registry must therefore tolerate
/// concurrent `Invoke` calls (all bundled simulations do).
///
/// Single-flight memoization: the memo stores a future per key, inserted
/// *before* the physical call. Concurrent identical invocations within
/// one instant therefore never both reach the service — the first caller
/// owns the call, the rest await its result. This keeps active
/// invocations (Def. 8 side effects) at exactly one physical occurrence
/// per (service, input, instant) even across concurrently-stepped
/// queries, exactly as under serial evaluation. A failed call is removed
/// from the memo (failures are never memoized) and each caller awaiting it
/// retries physically once per key, as a serial caller arriving after the
/// failure would.
///
/// Invoker threads: the physical calls of a parallel `InvokeMany` batch
/// run on the registry's own pool of up to `kInvokerThreads` threads,
/// started on demand, with the calling thread participating. A call
/// waiting on a device thus holds no thread of the caller's (CPU) pool.
class ServiceRegistry {
 public:
  /// The most invoker threads one registry starts.
  static constexpr std::size_t kInvokerThreads = 64;

  ServiceRegistry() = default;

  ServiceRegistry(const ServiceRegistry&) = delete;
  ServiceRegistry& operator=(const ServiceRegistry&) = delete;

  /// Registers a service under id(ω). Fails with AlreadyExists on
  /// duplicate references.
  Status Register(ServicePtr service);

  /// Removes a service (e.g. a sensor disappeared). Fails with NotFound.
  Status Unregister(const std::string& service_ref);

  /// Looks up a service by reference.
  Result<ServicePtr> Lookup(const std::string& service_ref) const;

  bool Contains(const std::string& service_ref) const;

  /// All registered service references, sorted.
  std::vector<std::string> ServiceRefs() const;

  /// References of services implementing `prototype_name`, sorted. This is
  /// what the Query Processor's discovery queries materialize (§5.1).
  std::vector<std::string> ServicesImplementing(
      std::string_view prototype_name) const;

  std::size_t size() const;

  /// invoke_ψ(s, t) at instant `now` (Def. 1).
  ///
  /// Validates that the service exists and implements the prototype, that
  /// `input` conforms to Input_ψ, and that every returned tuple conforms
  /// to Output_ψ. Results are memoized for the duration of the instant;
  /// memo hits return the memoized rows without copying them.
  Result<TupleRows> Invoke(const Prototype& prototype,
                           const std::string& service_ref,
                           const Tuple& input, Timestamp now);

  /// Batched invoke_ψ: one result per request, in request order.
  ///
  /// Identical (service_ref, input) pairs are deduplicated before
  /// dispatch — the first occurrence pays the physical call; later ones
  /// share its rows and count as memo hits, exactly what the serial loop
  /// would have recorded. (Duplicates of a *failing* request share its
  /// failure; the serial loop would have retried them physically, so
  /// failure-path stats can differ from N sequential `Invoke` calls.)
  /// Requests whose key another caller has in flight await it; if that
  /// call fails, the key is retried physically once for all of them.
  ///
  /// `pool` is the caller's pool (nullptr = `ThreadPool::Shared()`). A
  /// serial pool makes every physical call inline, in request order;
  /// otherwise the calls and retries run concurrently on the invoker
  /// threads. With `cancel_on_error`, the first physical failure stops
  /// not-yet-started physical calls (calls already in flight finish);
  /// those return a status for which `IsCancelled()` is true. A non-null
  /// `tally` additionally receives this batch's logical invocations and
  /// memo hits.
  std::vector<Result<TupleRows>> InvokeMany(
      const Prototype& prototype,
      std::span<const InvocationRequest> requests, Timestamp now,
      ThreadPool* pool = nullptr, bool cancel_on_error = false,
      InvocationTally* tally = nullptr);

  /// True for the status of a batch entry that was skipped because an
  /// earlier failure cancelled the rest of its batch.
  static bool IsCancelled(const Status& status);

  /// A consistent snapshot of the invocation counters.
  InvocationStats stats() const;
  void ResetStats();

  /// Observers notified on registration / unregistration; drives the
  /// discovery-maintained XD-Relations of §5.1.
  using Listener = std::function<void(const std::string& service_ref,
                                      bool registered)>;
  /// Returns a token usable with `RemoveListener`.
  std::size_t AddListener(Listener listener);
  void RemoveListener(std::size_t token);

  /// Observes every *physical* invocation after its result is determined
  /// (memo hits are not re-observed — §3.2 makes them identical). `rows`
  /// is null when the invocation failed. May be called concurrently from
  /// pool workers, so implementations must be thread-safe. Install /
  /// clear only while no invocation is in flight. The flight recorder's
  /// journaling hook.
  using InvocationObserver = std::function<void(
      const std::string& prototype, const std::string& service_ref,
      const Tuple& input, Timestamp now, const Status& status,
      const TupleRows& rows)>;
  void set_invocation_observer(InvocationObserver observer) {
    invocation_observer_ = std::move(observer);
  }

  /// Replay feed: when set, every would-be physical call is answered
  /// from it (a recorded journal) instead of reaching a live service —
  /// a miss should return Unavailable to surface the divergence.
  /// Invocation statistics are maintained as if the call were physical.
  /// Install / clear only while no invocation is in flight.
  using ReplayFeed = std::function<Result<TupleRows>(
      const std::string& prototype, const std::string& service_ref,
      const Tuple& input, Timestamp now)>;
  void set_replay_feed(ReplayFeed feed) { replay_feed_ = std::move(feed); }
  bool replaying() const { return replay_feed_ != nullptr; }

 private:
  struct MemoKey {
    std::string prototype;
    std::string service_ref;
    Tuple input;

    bool operator==(const MemoKey& other) const {
      return prototype == other.prototype &&
             service_ref == other.service_ref && input == other.input;
    }
  };
  struct MemoKeyHasher {
    std::size_t operator()(const MemoKey& key) const;
  };

  /// Telemetry instruments for one prototype, resolved once per
  /// prototype name and cached (the global registry lookup takes a lock;
  /// the invocation hot path must not). All pointers are null when
  /// metrics are disabled.
  struct PrototypeInstruments {
    obs::Histogram* invoke_ns = nullptr;
    obs::Counter* memo_hits = nullptr;
    obs::Counter* memo_misses = nullptr;
    obs::Counter* errors = nullptr;
  };
  PrototypeInstruments InstrumentsFor(const std::string& prototype);

  /// Counts a failed invocation and returns its status.
  Result<TupleRows> Fail(Status status,
                         const PrototypeInstruments& instruments);

  /// The physical call path: lookup, prototype check, service call,
  /// output validation. No memo interaction; safe to run concurrently.
  /// Consults the replay feed when one is installed and notifies the
  /// invocation observer of the outcome.
  Result<TupleRows> InvokePhysical(const Prototype& prototype,
                                   const std::string& service_ref,
                                   const Tuple& input, Timestamp now,
                                   const PrototypeInstruments& instruments);

  /// The live service call (the pre-flight-recorder InvokePhysical).
  Result<TupleRows> InvokeLive(const Prototype& prototype,
                               const std::string& service_ref,
                               const Tuple& input, Timestamp now,
                               const PrototypeInstruments& instruments);

  /// One memoized invocation with single-flight semantics (see class
  /// comment). Does NOT count the logical invocation — callers do. A memo
  /// hit is also added to `tally` when non-null.
  Result<TupleRows> InvokeMemoized(const Prototype& prototype,
                                   const std::string& service_ref,
                                   const Tuple& input, Timestamp now,
                                   const PrototypeInstruments& instruments,
                                   InvocationTally* tally);

  /// Drops the memo when the instant advanced. Caller holds `memo_mu_`.
  void RefreshInstantLocked(Timestamp now);

  void NotifyListeners(const std::string& service_ref, bool registered);

  struct AtomicInvocationStats {
    std::atomic<std::uint64_t> logical_invocations{0};
    std::atomic<std::uint64_t> physical_invocations{0};
    std::atomic<std::uint64_t> active_invocations{0};
    std::atomic<std::uint64_t> output_tuples{0};
    std::atomic<std::uint64_t> memo_hits{0};
    std::atomic<std::uint64_t> failed_invocations{0};
  };

  mutable std::mutex services_mu_;
  std::map<std::string, ServicePtr> services_;

  AtomicInvocationStats stats_;

  std::mutex instruments_mu_;
  std::unordered_map<std::string, PrototypeInstruments> instruments_;

  /// A memo slot: ready once the owning call completed. Only successful
  /// results stay in the map.
  using MemoFuture = std::shared_future<Result<TupleRows>>;

  /// The future plus the causal identity of the call that owns it:
  /// `span_id` is preallocated before the physical dispatch so waiters
  /// can link their wait spans to the winning invocation's span (0 when
  /// tracing is off).
  struct MemoSlot {
    MemoFuture future;
    std::uint64_t span_id = 0;
  };

  std::mutex memo_mu_;
  Timestamp memo_instant_ = -1;
  std::unordered_map<MemoKey, MemoSlot, MemoKeyHasher> memo_;

  mutable std::mutex listeners_mu_;
  std::size_t next_listener_token_ = 0;
  std::map<std::size_t, Listener> listeners_;

  InvocationObserver invocation_observer_;
  ReplayFeed replay_feed_;

  /// Declared last: its workers are joined before the state they use is
  /// destroyed.
  ThreadPool invokers_{kInvokerThreads};
};

}  // namespace serena

#endif  // SERENA_SERVICE_SERVICE_REGISTRY_H_
