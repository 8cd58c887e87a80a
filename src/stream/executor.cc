#include "stream/executor.h"

#include <algorithm>
#include <optional>
#include <set>

#include "algebra/vectorized.h"
#include "common/logging.h"
#include "obs/export.h"
#include "obs/trace.h"

namespace serena {

namespace {

/// The executor's registry-wide instruments, resolved once per process.
struct ExecutorInstruments {
  obs::Histogram* tick_ns;
  obs::Counter* ticks;
  obs::Counter* query_errors;
  obs::Counter* pruned_tuples;
  /// Effective rows-per-batch of the vectorized core (0 = vectorization
  /// off), refreshed every tick so dashboards see knob changes.
  obs::Gauge* batch_size;
};

const ExecutorInstruments& Instruments() {
  static const ExecutorInstruments instruments = [] {
    obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
    return ExecutorInstruments{
        &metrics.GetHistogram("serena.executor.tick_ns"),
        &metrics.GetCounter("serena.executor.ticks"),
        &metrics.GetCounter("serena.executor.query_errors"),
        &metrics.GetCounter("serena.executor.pruned_tuples"),
        &metrics.GetGauge("serena.executor.batch_size")};
  }();
  return instruments;
}

void MergeDemand(const ContinuousExecutor::WindowDemand& from,
                 ContinuousExecutor::WindowDemand* into) {
  into->max_period = std::max(into->max_period, from.max_period);
  into->max_rows = std::max(into->max_rows, from.max_rows);
}

}  // namespace

std::size_t ContinuousExecutor::AddSource(Source source) {
  return AddSource(std::move(source), {});
}

std::size_t ContinuousExecutor::AddSource(Source source,
                                          std::vector<std::string> feeds) {
  const std::size_t token = next_source_token_++;
  sources_.emplace(token, SourceEntry{std::move(source), std::move(feeds)});
  return token;
}

void ContinuousExecutor::RemoveSource(std::size_t token) {
  sources_.erase(token);
}

void ContinuousExecutor::AddTickObserver(TickObserver* observer) {
  if (observer != nullptr) tick_observers_.push_back(observer);
}

void ContinuousExecutor::RemoveTickObserver(TickObserver* observer) {
  tick_observers_.erase(std::remove(tick_observers_.begin(),
                                    tick_observers_.end(), observer),
                        tick_observers_.end());
}

std::vector<std::string> ContinuousExecutor::SourceFedStreams() const {
  std::set<std::string> streams;
  for (const auto& [token, entry] : sources_) {
    streams.insert(entry.feeds.begin(), entry.feeds.end());
  }
  return {streams.begin(), streams.end()};
}

Status ContinuousExecutor::Register(ContinuousQueryPtr query) {
  if (query == nullptr) return Status::InvalidArgument("null query");
  const std::string name = query->name();
  if (name.empty()) {
    return Status::InvalidArgument("continuous query must be named");
  }
  obs::Span span("executor.register", env_->clock().now(), name);
  if (entry_index_.count(name) > 0) {
    return Status::AlreadyExists("continuous query '", name,
                                 "' already registered");
  }
  Entry entry;
  std::map<std::string, WindowDemand> demands;
  std::set<std::string> scans;
  CollectLeaves(query->plan(), &demands, &scans);
  for (const auto& [stream, demand] : demands) {
    entry.reads.push_back(StreamRead{InternStream(stream), demand});
    MergeDemand(demand, &window_demand_[stream]);
  }
  for (const std::string& stream : query->feeds()) {
    entry.feeds.push_back(InternStream(stream));
  }
  for (const std::string& relation : scans) {
    if (scan_counts_[relation]++ == 0) scanned_relations_.insert(relation);
  }
  entry.scans.assign(scans.begin(), scans.end());
  entry.query = std::move(query);
  const std::size_t index = entries_.size();
  entries_.push_back(std::move(entry));
  entry_index_.emplace(name, index);
  Place(index);
  health_.Register(name, entries_[index].query->runtime(),
                   env_->clock().now());
  return Status::OK();
}

Status ContinuousExecutor::Unregister(const std::string& name) {
  const auto found = entry_index_.find(name);
  if (found == entry_index_.end()) {
    return Status::NotFound("continuous query '", name, "' not registered");
  }
  obs::Span span("executor.unregister", env_->clock().now(), name);
  const std::size_t index = found->second;
  for (const std::string& relation : entries_[index].scans) {
    if (--scan_counts_[relation] == 0) {
      scan_counts_.erase(relation);
      scanned_relations_.erase(relation);
    }
  }
  health_.Unregister(name);
  entry_index_.erase(found);
  for (auto& [other, i] : entry_index_) {
    if (i > index) --i;
  }
  entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(index));
  RebuildSchedule();
  return Status::OK();
}

Result<ContinuousQueryPtr> ContinuousExecutor::GetQuery(
    const std::string& name) const {
  const auto found = entry_index_.find(name);
  if (found != entry_index_.end()) return entries_[found->second].query;
  return Status::NotFound("continuous query '", name, "' not registered");
}

std::vector<std::string> ContinuousExecutor::QueryNames() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const Entry& entry : entries_) {
    names.push_back(entry.query->name());
  }
  return names;
}

void ContinuousExecutor::CollectLeaves(
    const PlanPtr& plan, std::map<std::string, WindowDemand>* demands,
    std::set<std::string>* scans) {
  if (plan == nullptr) return;
  if (plan->kind() == PlanKind::kScan && scans != nullptr) {
    scans->insert(static_cast<const ScanNode*>(plan.get())->relation());
  }
  if (plan->kind() == PlanKind::kWindow && demands != nullptr) {
    const auto* node = static_cast<const WindowNode*>(plan.get());
    WindowDemand& demand = (*demands)[node->stream()];
    if (node->mode() == WindowMode::kRows) {
      demand.max_rows = std::max(demand.max_rows,
                                 static_cast<std::size_t>(node->period()));
    } else {
      demand.max_period = std::max(demand.max_period, node->period());
    }
  }
  for (const PlanPtr& child : plan->children()) {
    CollectLeaves(child, demands, scans);
  }
}

Status ContinuousExecutor::RefreshScannedBy(const PlanPtr& plan) const {
  if (!refresher_) return Status::OK();
  std::set<std::string> scans;
  CollectLeaves(plan, /*demands=*/nullptr, &scans);
  return refresher_(scans);
}

std::uint32_t ContinuousExecutor::InternStream(const std::string& name) {
  const auto [it, inserted] = stream_ids_.emplace(
      name, static_cast<std::uint32_t>(stream_names_.size()));
  if (inserted) {
    stream_names_.push_back(name);
    feeder_top_.push_back(0);
    reader_top_.push_back(0);
  }
  return it->second;
}

void ContinuousExecutor::Place(std::size_t index) {
  // Dependency levels: query j (registered earlier) must finish before
  // query i when j feeds a stream that i reads or feeds, or when both
  // feed the same stream (append order), or when j reads a stream i
  // feeds (j must see the pre-append state, as it did serially). Levels
  // are barriers; within a level queries touch disjoint feed/read state
  // and may step concurrently. Every placed query is earlier than this
  // one, so the per-stream maxima over them decide its level.
  const Entry& entry = entries_[index];
  std::size_t level = 0;
  for (const StreamRead& read : entry.reads) {
    level = std::max(level, feeder_top_[read.stream]);
  }
  for (const std::uint32_t stream : entry.feeds) {
    level = std::max({level, feeder_top_[stream], reader_top_[stream]});
  }
  for (const StreamRead& read : entry.reads) {
    reader_top_[read.stream] = std::max(reader_top_[read.stream], level + 1);
  }
  for (const std::uint32_t stream : entry.feeds) {
    feeder_top_[stream] = std::max(feeder_top_[stream], level + 1);
  }
  if (level >= schedule_.size()) schedule_.resize(level + 1);
  schedule_[level].push_back(index);
}

void ContinuousExecutor::RebuildSchedule() {
  schedule_.clear();
  std::fill(feeder_top_.begin(), feeder_top_.end(), 0);
  std::fill(reader_top_.begin(), reader_top_.end(), 0);
  std::vector<WindowDemand> demand(stream_names_.size());
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    Place(i);
    for (const StreamRead& read : entries_[i].reads) {
      MergeDemand(read.demand, &demand[read.stream]);
    }
  }
  // A stream some query still reads has a nonzero reader maximum.
  window_demand_.clear();
  for (std::uint32_t stream = 0; stream < demand.size(); ++stream) {
    if (reader_top_[stream] > 0) {
      window_demand_.emplace(stream_names_[stream], demand[stream]);
    }
  }
}

ContinuousExecutor::ScheduleSnapshot ContinuousExecutor::Schedule() const {
  ScheduleSnapshot snapshot;
  snapshot.levels.reserve(schedule_.size());
  for (const std::vector<std::size_t>& level : schedule_) {
    std::vector<std::string>& names = snapshot.levels.emplace_back();
    for (const std::size_t i : level) {
      names.push_back(entries_[i].query->name());
    }
  }
  snapshot.window_demand = window_demand_;
  return snapshot;
}

Timestamp ContinuousExecutor::Tick() {
  const Timestamp now = env_->clock().Tick();
  const bool meter = obs::MetricsRegistry::Global().enabled();
  const std::uint64_t tick_start_ns = meter ? obs::MonotonicNowNs() : 0;
  obs::Span tick_span("executor.tick", now);
  last_errors_.clear();
  ++total_ticks_;
  health_.SetNow(now);
  for (TickObserver* observer : tick_observers_) observer->OnTickBegin(now);

  if (refresher_) {
    const Status status = refresher_(scanned_relations_);
    if (!status.ok()) {
      SERENA_LOG(Warning) << "relation refresh failed at instant " << now
                          << ": " << status;
    }
  }
  for (const auto& [token, entry] : sources_) {
    const Status status = entry.source(now);
    if (!status.ok()) {
      SERENA_LOG(Warning) << "stream source failed at instant " << now
                          << ": " << status;
    }
  }
  for (TickObserver* observer : tick_observers_) {
    observer->OnSourcesDone(now);
  }

  ThreadPool& pool = pool_ != nullptr ? *pool_ : ThreadPool::Shared();
  std::vector<Status> step_status(entries_.size(), Status::OK());
  // Step results are only retained for observers; without any, the tick
  // stays copy-free.
  std::vector<std::optional<XRelation>> step_result(
      tick_observers_.empty() ? 0 : entries_.size());
  for (const std::vector<std::size_t>& level : schedule_) {
    pool.ParallelFor(level.size(), [&](std::size_t k) {
      ContinuousQuery& query = *entries_[level[k]].query;
      obs::Span step_span("executor.step", now, query.name());
      const std::uint64_t step_start_ns = obs::MonotonicNowNs();
      auto result = query.Step(env_, streams_, now, &pool);
      // The step's health lands in the query's own record, here on the
      // stepping thread: no lock, no lookup.
      query.runtime()->RecordStep(now, result.ok(),
                                  obs::MonotonicNowNs() - step_start_ns,
                                  query.last_rows_in(), query.last_rows_out());
      if (!result.ok()) {
        step_status[level[k]] = result.status();
      } else if (!step_result.empty()) {
        step_result[level[k]] = std::move(result).ValueOrDie();
      }
    });
  }

  // Merge failures and notify observers serially, in registration order.
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const ContinuousQuery& query = *entries_[i].query;
    for (TickObserver* observer : tick_observers_) {
      observer->OnQueryStep(
          now, query, step_status[i],
          !step_result.empty() && step_result[i].has_value()
              ? &*step_result[i]
              : nullptr);
    }
    if (step_status[i].ok()) continue;
    const std::string& name = query.name();
    last_errors_.emplace(name, step_status[i]);
    ++total_query_errors_;
    if (meter) Instruments().query_errors->Increment();
    SERENA_LOG(Warning) << "continuous query '" << name
                        << "' failed at instant " << now << ": "
                        << step_status[i];
  }

  if (streams_ != nullptr) {
    std::uint64_t pruned = 0;
    for (const std::string& stream_name : streams_->StreamNames()) {
      auto stream = streams_->GetStream(stream_name);
      if (stream.ok()) {
        WindowDemand demand;
        const auto it = window_demand_.find(stream_name);
        if (it != window_demand_.end()) demand = it->second;
        pruned += (*stream)->PruneBeforeKeeping(
            now - demand.max_period - prune_slack_, demand.max_rows);
      }
    }
    total_pruned_tuples_ += pruned;
    if (meter && pruned > 0) Instruments().pruned_tuples->Increment(pruned);
  }

  if (meter) {
    Instruments().ticks->Increment();
    Instruments().tick_ns->Record(obs::MonotonicNowNs() - tick_start_ns);
    Instruments().batch_size->Set(
        vec::Enabled() ? static_cast<std::int64_t>(vec::BatchSize()) : 0);
  }
  for (TickObserver* observer : tick_observers_) observer->OnTickEnd(now);
  // Periodic Prometheus exposition to SERENA_METRICS_FILE (throttled
  // inside; a fast no-op when the variable is unset).
  obs::MaybeWriteMetricsFile();
  return now;
}

Timestamp ContinuousExecutor::Run(int n) {
  Timestamp last = env_->clock().now();
  for (int i = 0; i < n; ++i) last = Tick();
  return last;
}

}  // namespace serena
