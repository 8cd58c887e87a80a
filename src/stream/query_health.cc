#include "stream/query_health.h"

#include <algorithm>

namespace serena {

std::vector<QueryHealth::Entry>::iterator QueryHealth::Locate(
    const std::string& name) {
  return std::lower_bound(
      entries_.begin(), entries_.end(), name,
      [](const Entry& entry, const std::string& key) {
        return entry.name < key;
      });
}

void QueryHealth::Register(const std::string& name,
                           std::shared_ptr<QueryRuntime> runtime,
                           Timestamp now) {
  runtime->ResetHealth(now);
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = Locate(name);
  if (it != entries_.end() && it->name == name) {
    it->runtime = std::move(runtime);
  } else {
    entries_.insert(it, Entry{name, std::move(runtime)});
  }
  now_ = std::max(now_, now);
}

void QueryHealth::Unregister(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = Locate(name);
  if (it != entries_.end() && it->name == name) entries_.erase(it);
}

void QueryHealth::SetNow(Timestamp now) {
  std::lock_guard<std::mutex> lock(mu_);
  now_ = std::max(now_, now);
}

void QueryHealth::ForEach(
    const std::function<void(const QuerySnapshot&)>& visit) const {
  std::lock_guard<std::mutex> lock(mu_);
  QuerySnapshot snapshot;
  for (const Entry& entry : entries_) {
    const QueryRuntime& runtime = *entry.runtime;
    snapshot.name = entry.name;
    snapshot.last_completed_instant = runtime.last_completed();
    // Before the first completed step the lag counts from registration.
    const Timestamp baseline = snapshot.last_completed_instant >= 0
                                   ? snapshot.last_completed_instant
                                   : runtime.registered_at();
    snapshot.lag = now_ > baseline ? now_ - baseline : 0;
    snapshot.error_streak = runtime.error_streak();
    snapshot.total_errors = runtime.total_errors();
    snapshot.steps = runtime.steps();
    const obs::HistogramSnapshot latency = runtime.step_ns().Snapshot();
    snapshot.p50_step_ns = latency.ValueAtPercentile(50);
    snapshot.p99_step_ns = latency.ValueAtPercentile(99);
    snapshot.rows_in = runtime.rows_in();
    snapshot.rows_out = runtime.rows_out();
    const std::uint64_t observed = runtime.observed();
    snapshot.rows_in_rate = 0.0;
    snapshot.rows_out_rate = 0.0;
    if (observed > 0) {
      const double steps = static_cast<double>(observed);
      snapshot.rows_in_rate = static_cast<double>(snapshot.rows_in) / steps;
      snapshot.rows_out_rate = static_cast<double>(snapshot.rows_out) / steps;
    }
    visit(snapshot);
  }
}

std::vector<QueryHealth::QuerySnapshot> QueryHealth::Snapshots() const {
  std::vector<QuerySnapshot> snapshots;
  snapshots.reserve(size());
  ForEach([&snapshots](const QuerySnapshot& snapshot) {
    snapshots.push_back(snapshot);
  });
  return snapshots;
}

std::size_t QueryHealth::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

void QueryHealth::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  now_ = 0;
}

}  // namespace serena
