#include "service/service_registry.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "common/hash.h"
#include "common/thread_pool.h"
#include "obs/trace.h"

namespace serena {

namespace {

constexpr char kCancelledMessage[] =
    "invocation cancelled: an earlier invocation in the batch failed";

}  // namespace

std::size_t ServiceRegistry::MemoKeyHasher::operator()(
    const MemoKey& key) const {
  std::size_t h = StableHash(key.prototype);
  h = HashCombine(h, StableHash(key.service_ref));
  h = HashCombine(h, key.input.Hash());
  return h;
}

bool ServiceRegistry::IsCancelled(const Status& status) {
  return status.code() == StatusCode::kUnavailable &&
         status.message() == kCancelledMessage;
}

Status ServiceRegistry::Register(ServicePtr service) {
  if (service == nullptr) {
    return Status::InvalidArgument("cannot register null service");
  }
  const std::string& ref = service->id();
  if (ref.empty()) {
    return Status::InvalidArgument("service reference must be non-empty");
  }
  {
    std::lock_guard<std::mutex> lock(services_mu_);
    if (!services_.emplace(ref, std::move(service)).second) {
      return Status::AlreadyExists("service '", ref, "' already registered");
    }
  }
  NotifyListeners(ref, /*registered=*/true);
  return Status::OK();
}

Status ServiceRegistry::Unregister(const std::string& service_ref) {
  {
    std::lock_guard<std::mutex> lock(services_mu_);
    if (services_.erase(service_ref) == 0) {
      return Status::NotFound("service '", service_ref,
                              "' is not registered");
    }
  }
  NotifyListeners(service_ref, /*registered=*/false);
  return Status::OK();
}

Result<ServicePtr> ServiceRegistry::Lookup(
    const std::string& service_ref) const {
  std::lock_guard<std::mutex> lock(services_mu_);
  const auto it = services_.find(service_ref);
  if (it == services_.end()) {
    return Status::NotFound("service '", service_ref, "' is not registered");
  }
  return it->second;
}

bool ServiceRegistry::Contains(const std::string& service_ref) const {
  std::lock_guard<std::mutex> lock(services_mu_);
  return services_.count(service_ref) > 0;
}

std::vector<std::string> ServiceRegistry::ServiceRefs() const {
  std::lock_guard<std::mutex> lock(services_mu_);
  std::vector<std::string> refs;
  refs.reserve(services_.size());
  for (const auto& [ref, service] : services_) refs.push_back(ref);
  return refs;
}

std::vector<std::string> ServiceRegistry::ServicesImplementing(
    std::string_view prototype_name) const {
  std::lock_guard<std::mutex> lock(services_mu_);
  std::vector<std::string> refs;
  for (const auto& [ref, service] : services_) {
    if (service->Implements(prototype_name)) refs.push_back(ref);
  }
  return refs;
}

std::size_t ServiceRegistry::size() const {
  std::lock_guard<std::mutex> lock(services_mu_);
  return services_.size();
}

ServiceRegistry::PrototypeInstruments ServiceRegistry::InstrumentsFor(
    const std::string& prototype) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  if (!metrics.enabled()) return {};
  std::lock_guard<std::mutex> lock(instruments_mu_);
  const auto it = instruments_.find(prototype);
  if (it != instruments_.end()) return it->second;
  const std::string prefix = "serena.service." + prototype;
  return instruments_
      .emplace(prototype,
               PrototypeInstruments{
                   &metrics.GetHistogram(prefix + ".invoke_ns"),
                   &metrics.GetCounter(prefix + ".memo_hits"),
                   &metrics.GetCounter(prefix + ".memo_misses"),
                   &metrics.GetCounter(prefix + ".errors")})
      .first->second;
}

Result<TupleRows> ServiceRegistry::Fail(
    Status status, const PrototypeInstruments& instruments) {
  stats_.failed_invocations.fetch_add(1, std::memory_order_relaxed);
  if (instruments.errors != nullptr) instruments.errors->Increment();
  return status;
}

Result<TupleRows> ServiceRegistry::InvokePhysical(
    const Prototype& prototype, const std::string& service_ref,
    const Tuple& input, Timestamp now,
    const PrototypeInstruments& instruments) {
  if (replay_feed_) {
    // Replay mode: the journal answers instead of the live service. The
    // statistics stay physical-shaped so replayed dashboards line up.
    Result<TupleRows> fed = replay_feed_(prototype.name(), service_ref,
                                         input, now);
    if (!fed.ok()) return Fail(fed.status(), instruments);
    stats_.physical_invocations.fetch_add(1, std::memory_order_relaxed);
    if (prototype.active()) {
      stats_.active_invocations.fetch_add(1, std::memory_order_relaxed);
    }
    stats_.output_tuples.fetch_add(fed.ValueOrDie()->size(),
                                   std::memory_order_relaxed);
    return fed;
  }
  Result<TupleRows> result =
      InvokeLive(prototype, service_ref, input, now, instruments);
  if (invocation_observer_) {
    static const TupleRows kNoRows;
    invocation_observer_(prototype.name(), service_ref, input, now,
                         result.status(),
                         result.ok() ? result.ValueOrDie() : kNoRows);
  }
  return result;
}

Result<TupleRows> ServiceRegistry::InvokeLive(
    const Prototype& prototype, const std::string& service_ref,
    const Tuple& input, Timestamp now,
    const PrototypeInstruments& instruments) {
  auto service_or = Lookup(service_ref);
  if (!service_or.ok()) return Fail(service_or.status(), instruments);
  const ServicePtr& service = service_or.ValueOrDie();
  if (!service->Implements(prototype.name())) {
    return Fail(Status::FailedPrecondition(
                    "service '", service_ref,
                    "' does not implement prototype '", prototype.name(),
                    "'"),
                instruments);
  }

  Result<std::vector<Tuple>> outputs_or = [&] {
    // Latency covers only the physical service call, not validation or
    // memo bookkeeping — it is the per-prototype service cost.
    obs::ScopedLatencyTimer timer(instruments.invoke_ns);
    return service->Invoke(prototype, input, now);
  }();
  if (!outputs_or.ok()) return Fail(outputs_or.status(), instruments);
  std::vector<Tuple> outputs = std::move(outputs_or).ValueOrDie();
  for (const Tuple& out : outputs) {
    Status output_valid = prototype.output().ValidateTuple(out);
    if (!output_valid.ok()) return Fail(std::move(output_valid), instruments);
  }

  stats_.physical_invocations.fetch_add(1, std::memory_order_relaxed);
  if (prototype.active()) {
    stats_.active_invocations.fetch_add(1, std::memory_order_relaxed);
  }
  stats_.output_tuples.fetch_add(outputs.size(), std::memory_order_relaxed);
  return std::make_shared<const std::vector<Tuple>>(std::move(outputs));
}

void ServiceRegistry::RefreshInstantLocked(Timestamp now) {
  // A new instant invalidates all memoized results: services may answer
  // differently now.
  if (now != memo_instant_) {
    memo_.clear();
    memo_instant_ = now;
  }
}

Result<TupleRows> ServiceRegistry::InvokeMemoized(
    const Prototype& prototype, const std::string& service_ref,
    const Tuple& input, Timestamp now,
    const PrototypeInstruments& instruments, InvocationTally* tally) {
  MemoKey key{prototype.name(), service_ref, input};
  const bool tracing = obs::TraceBuffer::Global().enabled();
  for (;;) {
    std::promise<Result<TupleRows>> promise;
    MemoSlot slot;
    bool owner = false;
    {
      std::lock_guard<std::mutex> lock(memo_mu_);
      RefreshInstantLocked(now);
      const auto it = memo_.find(key);
      if (it == memo_.end()) {
        owner = true;
        slot.future = promise.get_future().share();
        // Preallocate the winning call's span id so waiters arriving
        // while the call is in flight can already link to it.
        slot.span_id = tracing ? obs::NextSpanId() : 0;
        memo_.emplace(key, slot);
      } else {
        slot = it->second;
      }
    }

    if (owner) {
      if (instruments.memo_misses != nullptr) {
        instruments.memo_misses->Increment();
      }
      Result<TupleRows> result = [&] {
        obs::Span span("service.invoke", now, service_ref, slot.span_id);
        return InvokePhysical(prototype, service_ref, input, now,
                              instruments);
      }();
      if (!result.ok()) {
        // Failures are not memoized: drop the slot (before waking
        // waiters, so a retrying waiter never re-reads it).
        std::lock_guard<std::mutex> lock(memo_mu_);
        if (memo_instant_ == now) memo_.erase(key);
      }
      promise.set_value(result);
      return result;
    }

    // Another call owns this key; await its result. The owner runs the
    // physical call on its own thread, so this wait cannot deadlock on
    // pool capacity.
    Result<TupleRows> result = [&] {
      obs::Span span("invoke.wait", now, service_ref);
      span.set_link_span(slot.span_id);
      return slot.future.get();
    }();
    if (result.ok()) {
      stats_.memo_hits.fetch_add(1, std::memory_order_relaxed);
      if (tally != nullptr) ++tally->memo_hits;
      if (instruments.memo_hits != nullptr) {
        instruments.memo_hits->Increment();
      }
      return result;
    }
    // The owner failed; retry physically, exactly like a serial caller
    // that never saw a memo entry.
  }
}

Result<TupleRows> ServiceRegistry::Invoke(const Prototype& prototype,
                                          const std::string& service_ref,
                                          const Tuple& input, Timestamp now) {
  const PrototypeInstruments instruments = InstrumentsFor(prototype.name());

  Status input_valid = prototype.input().ValidateTuple(input);
  if (!input_valid.ok()) return Fail(std::move(input_valid), instruments);

  {
    std::lock_guard<std::mutex> lock(memo_mu_);
    RefreshInstantLocked(now);
    stats_.logical_invocations.fetch_add(1, std::memory_order_relaxed);
  }
  return InvokeMemoized(prototype, service_ref, input, now, instruments,
                        /*tally=*/nullptr);
}

std::vector<Result<TupleRows>> ServiceRegistry::InvokeMany(
    const Prototype& prototype, std::span<const InvocationRequest> requests,
    Timestamp now, ThreadPool* pool, bool cancel_on_error,
    InvocationTally* tally) {
  const PrototypeInstruments instruments = InstrumentsFor(prototype.name());
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  if (metrics.enabled()) {
    static obs::Histogram* batch_size =
        &obs::MetricsRegistry::Global().GetHistogram(
            "serena.invoke.batch_size");
    batch_size->Record(requests.size());
  }

  std::vector<Result<TupleRows>> results(
      requests.size(), Result<TupleRows>(Status::Internal("unresolved")));

  // One group per unique (service_ref, input) pair this batch will invoke
  // physically; `indices` fan its eventual result back out to every
  // duplicate. The group's future is published in the memo *before*
  // dispatch (single-flight), so a concurrently-stepped query never
  // re-invokes a pair this batch already owns.
  struct Group {
    std::size_t first_index;
    std::vector<std::size_t> indices;
    std::promise<Result<TupleRows>> promise;
    std::uint64_t span_id = 0;  ///< Preallocated invocation span.
  };
  std::vector<Group> groups;
  // Keys owned by an earlier call (possibly still in flight), with every
  // request of this batch that awaits it: resolved from the owner's future
  // after dispatch.
  struct Await {
    std::vector<std::size_t> indices;
    MemoSlot slot;
  };
  std::vector<Await> awaits;
  const bool tracing = obs::TraceBuffer::Global().enabled();
  {
    // Where this batch already placed a key: a group it owns, or an await.
    struct Placed {
      bool owned;
      std::size_t index;
    };
    std::unordered_map<MemoKey, Placed, MemoKeyHasher> placed;
    std::lock_guard<std::mutex> lock(memo_mu_);
    RefreshInstantLocked(now);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const InvocationRequest& request = requests[i];
      Status input_valid = prototype.input().ValidateTuple(request.input);
      if (!input_valid.ok()) {
        results[i] = Fail(std::move(input_valid), instruments);
        continue;
      }
      stats_.logical_invocations.fetch_add(1, std::memory_order_relaxed);
      if (tally != nullptr) ++tally->logical_invocations;
      MemoKey key{prototype.name(), request.service_ref, request.input};
      // Batch-internal duplicates group before consulting the memo so a
      // duplicate of a failing request shares the failure (see header).
      const auto placed_it = placed.find(key);
      if (placed_it != placed.end()) {
        stats_.memo_hits.fetch_add(1, std::memory_order_relaxed);
        if (tally != nullptr) ++tally->memo_hits;
        if (instruments.memo_hits != nullptr) {
          instruments.memo_hits->Increment();
        }
        const Placed& at = placed_it->second;
        (at.owned ? groups[at.index].indices : awaits[at.index].indices)
            .push_back(i);
        continue;
      }
      const auto memo_it = memo_.find(key);
      if (memo_it != memo_.end()) {
        placed.emplace(std::move(key), Placed{false, awaits.size()});
        awaits.push_back(Await{{i}, memo_it->second});
        continue;
      }
      if (instruments.memo_misses != nullptr) {
        instruments.memo_misses->Increment();
      }
      Group group;
      group.first_index = i;
      group.indices.push_back(i);
      group.span_id = tracing ? obs::NextSpanId() : 0;
      memo_.emplace(key,
                    MemoSlot{group.promise.get_future().share(),
                             group.span_id});
      placed.emplace(std::move(key), Placed{true, groups.size()});
      groups.push_back(std::move(group));
    }
  }

  // A serial caller pool is the oracle configuration: every call inline,
  // in request order. Otherwise the calls run on the invoker threads, so
  // one waiting on a device holds no thread of the caller's pool.
  if (pool == nullptr) pool = &ThreadPool::Shared();
  ThreadPool& invokers = pool->serial() ? *pool : invokers_;

  if (!groups.empty()) {
    std::vector<Result<TupleRows>> group_results(
        groups.size(), Result<TupleRows>(Status::Internal("unresolved")));
    std::atomic<bool> cancelled{false};
    invokers.ParallelFor(groups.size(), [&](std::size_t g) {
      Group& group = groups[g];
      Result<TupleRows> result = Status::Unavailable(kCancelledMessage);
      if (cancel_on_error && cancelled.load(std::memory_order_relaxed)) {
        // Never dispatched: not counted as failed, only reported
        // cancelled.
      } else {
        const InvocationRequest& request = requests[group.first_index];
        result = [&] {
          obs::Span span("service.invoke", now, request.service_ref,
                         group.span_id);
          return InvokePhysical(prototype, request.service_ref,
                                request.input, now, instruments);
        }();
        if (!result.ok() && cancel_on_error) {
          cancelled.store(true, std::memory_order_relaxed);
        }
      }
      if (!result.ok()) {
        // Failures (and cancellations) are not memoized: drop the slot
        // before waking waiters so external callers retry physically
        // rather than inheriting this batch's policy.
        const InvocationRequest& request = requests[group.first_index];
        std::lock_guard<std::mutex> lock(memo_mu_);
        if (memo_instant_ == now) {
          memo_.erase(MemoKey{prototype.name(), request.service_ref,
                              request.input});
        }
      }
      group.promise.set_value(result);
      group_results[g] = std::move(result);
    });
    for (std::size_t g = 0; g < groups.size(); ++g) {
      for (const std::size_t i : groups[g].indices) {
        results[i] = group_results[g];
      }
    }
  }

  // Resolve keys owned by other calls. Every owner makes its call on a
  // thread that is not waiting on this batch (its own caller takes part
  // in its dispatch), so waiting here is deadlock-free.
  std::vector<std::size_t> failed_awaits;
  for (std::size_t a = 0; a < awaits.size(); ++a) {
    const Await& await = awaits[a];
    const std::size_t first = await.indices.front();
    Result<TupleRows> result = [&] {
      obs::Span span("invoke.wait", now, requests[first].service_ref);
      span.set_link_span(await.slot.span_id);
      return await.slot.future.get();
    }();
    if (!result.ok()) {
      failed_awaits.push_back(a);
      continue;
    }
    stats_.memo_hits.fetch_add(1, std::memory_order_relaxed);
    if (tally != nullptr) ++tally->memo_hits;
    if (instruments.memo_hits != nullptr) instruments.memo_hits->Increment();
    for (const std::size_t i : await.indices) results[i] = result;
  }

  // The owner failed: retry each such key physically once, for all its
  // awaiting requests (logical invocations already counted above), as a
  // serial caller arriving after the failure would.
  std::vector<InvocationTally> retry_tallies(failed_awaits.size());
  invokers.ParallelFor(failed_awaits.size(), [&](std::size_t r) {
    const Await& await = awaits[failed_awaits[r]];
    const InvocationRequest& request = requests[await.indices.front()];
    const Result<TupleRows> result =
        InvokeMemoized(prototype, request.service_ref, request.input, now,
                       instruments, &retry_tallies[r]);
    for (const std::size_t i : await.indices) results[i] = result;
  });
  if (tally != nullptr) {
    for (const InvocationTally& retry : retry_tallies) {
      tally->memo_hits += retry.memo_hits;
    }
  }
  return results;
}

InvocationStats ServiceRegistry::stats() const {
  InvocationStats snapshot;
  snapshot.logical_invocations =
      stats_.logical_invocations.load(std::memory_order_relaxed);
  snapshot.physical_invocations =
      stats_.physical_invocations.load(std::memory_order_relaxed);
  snapshot.active_invocations =
      stats_.active_invocations.load(std::memory_order_relaxed);
  snapshot.output_tuples =
      stats_.output_tuples.load(std::memory_order_relaxed);
  snapshot.memo_hits = stats_.memo_hits.load(std::memory_order_relaxed);
  snapshot.failed_invocations =
      stats_.failed_invocations.load(std::memory_order_relaxed);
  return snapshot;
}

void ServiceRegistry::ResetStats() {
  stats_.logical_invocations.store(0, std::memory_order_relaxed);
  stats_.physical_invocations.store(0, std::memory_order_relaxed);
  stats_.active_invocations.store(0, std::memory_order_relaxed);
  stats_.output_tuples.store(0, std::memory_order_relaxed);
  stats_.memo_hits.store(0, std::memory_order_relaxed);
  stats_.failed_invocations.store(0, std::memory_order_relaxed);
}

std::size_t ServiceRegistry::AddListener(Listener listener) {
  std::lock_guard<std::mutex> lock(listeners_mu_);
  const std::size_t token = next_listener_token_++;
  listeners_.emplace(token, std::move(listener));
  return token;
}

void ServiceRegistry::RemoveListener(std::size_t token) {
  std::lock_guard<std::mutex> lock(listeners_mu_);
  listeners_.erase(token);
}

void ServiceRegistry::NotifyListeners(const std::string& service_ref,
                                      bool registered) {
  // Copy under the lock, call outside it: listeners may re-enter the
  // registry (discovery queries do).
  std::vector<Listener> to_notify;
  {
    std::lock_guard<std::mutex> lock(listeners_mu_);
    to_notify.reserve(listeners_.size());
    for (const auto& [token, listener] : listeners_) {
      to_notify.push_back(listener);
    }
  }
  for (const Listener& listener : to_notify) {
    listener(service_ref, registered);
  }
}

}  // namespace serena
