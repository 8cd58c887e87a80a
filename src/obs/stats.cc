#include "obs/stats.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "algebra/plan.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace serena {
namespace obs {

namespace {

constexpr std::size_t kMaxLabelLength = 160;

std::string TruncatedLabel(const std::string& rendered) {
  if (rendered.size() <= kMaxLabelLength) return rendered;
  return rendered.substr(0, kMaxLabelLength) + "...";
}

/// The β prototype an invoke operator calls, empty for everything else —
/// lets `sys_operator_stats` join against the per-prototype service
/// instruments.
std::string NodePrototype(const PlanNode& node) {
  if (node.kind() != PlanKind::kInvoke) return {};
  return static_cast<const InvokeNode&>(node).prototype();
}

void WriteOperator(JsonWriter& json, const OperatorStats& op) {
  json.BeginObject();
  json.Key("fingerprint").Value(op.fingerprint);
  json.Key("kind").Value(op.kind);
  json.Key("label").Value(op.label);
  if (!op.prototype.empty()) json.Key("prototype").Value(op.prototype);
  json.Key("evals").Value(op.evals);
  json.Key("rows_in").Value(op.rows_in);
  json.Key("rows_out").Value(op.rows_out);
  json.Key("wall_ns").Value(op.wall_ns);
  json.Key("invocations").Value(op.invocations);
  json.Key("memo_hits").Value(op.memo_hits);
  json.Key("errors").Value(op.errors);
  json.Key("batches").Value(op.batches);
  // Derived ratios, recomputed on load; written for human readers and
  // external tooling only.
  json.Key("selectivity").Value(op.selectivity());
  json.Key("memo_hit_rate").Value(op.memo_hit_rate());
  json.EndObject();
}

OperatorStats ReadOperator(const JsonValue& value) {
  OperatorStats op;
  op.fingerprint = value.StringOr("fingerprint", "");
  op.kind = value.StringOr("kind", "");
  op.label = value.StringOr("label", "");
  op.prototype = value.StringOr("prototype", "");
  op.evals = static_cast<std::uint64_t>(value.NumberOr("evals", 0));
  op.rows_in = static_cast<std::uint64_t>(value.NumberOr("rows_in", 0));
  op.rows_out = static_cast<std::uint64_t>(value.NumberOr("rows_out", 0));
  op.wall_ns = static_cast<std::uint64_t>(value.NumberOr("wall_ns", 0));
  op.invocations =
      static_cast<std::uint64_t>(value.NumberOr("invocations", 0));
  op.memo_hits = static_cast<std::uint64_t>(value.NumberOr("memo_hits", 0));
  op.errors = static_cast<std::uint64_t>(value.NumberOr("errors", 0));
  op.batches = static_cast<std::uint64_t>(value.NumberOr("batches", 0));
  return op;
}

/// Cached per-operator-kind `serena.op.<kind>.*` instruments, so
/// recording never takes the registry lock. `wall_ns` is inclusive of
/// children (nested evaluations double-count by design; use EXPLAIN
/// ANALYZE for a per-node breakdown of one query).
struct OperatorInstruments {
  Counter* evals;
  Counter* rows_out;
  Counter* wall_ns;
};

const OperatorInstruments& InstrumentsFor(PlanKind kind) {
  static constexpr int kKinds = static_cast<int>(PlanKind::kEmpty) + 1;
  static const std::array<OperatorInstruments, kKinds>* instruments = [] {
    auto* all = new std::array<OperatorInstruments, kKinds>();
    MetricsRegistry& metrics = MetricsRegistry::Global();
    for (int k = 0; k < kKinds; ++k) {
      const std::string prefix =
          std::string("serena.op.") +
          PlanKindToString(static_cast<PlanKind>(k));
      (*all)[static_cast<std::size_t>(k)] = OperatorInstruments{
          &metrics.GetCounter(prefix + ".evals"),
          &metrics.GetCounter(prefix + ".rows_out"),
          &metrics.GetCounter(prefix + ".wall_ns")};
    }
    return all;
  }();
  return (*instruments)[static_cast<std::size_t>(kind)];
}

}  // namespace

namespace {

/// 16 lowercase hex digits, most significant first.
std::string FormatFingerprint(std::uint64_t hash) {
  std::string fingerprint(16, '0');
  for (auto digit = fingerprint.rbegin(); digit != fingerprint.rend();
       ++digit, hash >>= 4) {
    *digit = "0123456789abcdef"[hash & 15];
  }
  return fingerprint;
}

/// The hash `FormatFingerprint` rendered as `fingerprint`, or nullopt
/// when it is not 16 lowercase hex digits.
std::optional<std::uint64_t> ParseFingerprint(const std::string& fingerprint) {
  if (fingerprint.size() != 16) return std::nullopt;
  std::uint64_t hash = 0;
  for (const char c : fingerprint) {
    const int digit = c >= '0' && c <= '9'   ? c - '0'
                      : c >= 'a' && c <= 'f' ? c - 'a' + 10
                                             : -1;
    if (digit < 0) return std::nullopt;
    hash = hash << 4 | static_cast<std::uint64_t>(digit);
  }
  return hash;
}

}  // namespace

std::string OperatorFingerprint(const PlanNode& node) {
  return FormatFingerprint(node.StableFingerprint());
}

/// The counters are atomics so steps on any thread publish into a slot
/// with relaxed adds while readers load it under the store's mutex.
struct StatsStore::Slot {
  /// Fingerprint, kind, label and prototype; counters stay zero here.
  OperatorStats identity;
  PlanKind kind = PlanKind::kScan;
  std::atomic<std::uint64_t> evals{0};
  std::atomic<std::uint64_t> rows_in{0};
  std::atomic<std::uint64_t> rows_out{0};
  std::atomic<std::uint64_t> wall_ns{0};
  std::atomic<std::uint64_t> invocations{0};
  std::atomic<std::uint64_t> memo_hits{0};
  std::atomic<std::uint64_t> errors{0};
  std::atomic<std::uint64_t> batches{0};
  /// Plans holding the slot (`Acquire` minus `Release`); guarded by the
  /// store's mutex.
  std::size_t refs = 0;

  bool live() const { return evals.load(std::memory_order_relaxed) > 0; }

  void Add(const NodeRuntimeStats& node, std::uint64_t node_rows_in) {
    const auto add = [](std::atomic<std::uint64_t>& field, std::uint64_t v) {
      if (v != 0) field.fetch_add(v, std::memory_order_relaxed);
    };
    add(rows_in, node_rows_in);
    add(rows_out, node.rows_out);
    add(wall_ns, node.wall_ns);
    add(invocations, node.invocations);
    add(memo_hits, node.memo_hits);
    add(errors, node.errors);
    add(batches, node.batches);
    add(evals, node.evals);
  }

  OperatorStats Load() const {
    OperatorStats op = identity;
    op.evals = evals.load(std::memory_order_relaxed);
    op.rows_in = rows_in.load(std::memory_order_relaxed);
    op.rows_out = rows_out.load(std::memory_order_relaxed);
    op.wall_ns = wall_ns.load(std::memory_order_relaxed);
    op.invocations = invocations.load(std::memory_order_relaxed);
    op.memo_hits = memo_hits.load(std::memory_order_relaxed);
    op.errors = errors.load(std::memory_order_relaxed);
    op.batches = batches.load(std::memory_order_relaxed);
    return op;
  }

  void Zero() {
    for (std::atomic<std::uint64_t>* field :
         {&evals, &rows_in, &rows_out, &wall_ns, &invocations, &memo_hits,
          &errors, &batches}) {
      field->store(0, std::memory_order_relaxed);
    }
  }
};

StatsStore::~StatsStore() = default;

StatsStore::StatsStore() {
  const char* path = std::getenv("SERENA_STATS_FILE");
  if (path != nullptr && path[0] != '\0') {
    // Best-effort: a missing or corrupt file simply means no baseline
    // (first run, or the previous run crashed mid-write).
    (void)LoadBaselineFromFile(path);
  }
}

StatsStore& StatsStore::Global() {
  static StatsStore* store = new StatsStore();
  return *store;
}

StatsStore::Slot* StatsStore::SlotFor(const PlanNode& node) {
  const std::uint64_t hash = node.StableFingerprint();
  std::unique_ptr<Slot>& slot = operators_[hash];
  if (slot == nullptr) {
    slot = std::make_unique<Slot>();
    slot->identity.fingerprint = FormatFingerprint(hash);
    slot->identity.kind = PlanKindToString(node.kind());
    slot->identity.label = TruncatedLabel(node.ToString());
    slot->identity.prototype = NodePrototype(node);
    slot->kind = node.kind();
  }
  return slot.get();
}

std::vector<StatsStore::Slot*> StatsStore::Acquire(const PlanStats& shape) {
  std::vector<Slot*> slots;
  slots.reserve(shape.size());
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < shape.size(); ++i) {
    Slot* slot = SlotFor(*shape.node(i));
    ++slot->refs;
    slots.push_back(slot);
  }
  return slots;
}

void StatsStore::Release(const std::vector<Slot*>& slots) {
  std::lock_guard<std::mutex> lock(mu_);
  for (Slot* slot : slots) --slot->refs;
}

void StatsStore::Publish(const std::vector<Slot*>& slots,
                         const PlanStats& stats) {
  const bool metered = MetricsRegistry::Global().enabled();
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const NodeRuntimeStats& node = stats.at(i);
    if (node.evals == 0) continue;
    Slot& slot = *slots[i];
    slot.Add(node, stats.RowsIn(i));
    if (metered) {
      const OperatorInstruments& instruments = InstrumentsFor(slot.kind);
      instruments.evals->Increment(node.evals);
      instruments.rows_out->Increment(node.rows_out);
      instruments.wall_ns->Increment(node.wall_ns);
    }
  }
}

void StatsStore::RecordPlan(const PlanStats& stats) {
  std::vector<Slot*> slots;
  slots.reserve(stats.size());
  // Publishing under the mutex: no `Clear` can delete the unheld slots.
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < stats.size(); ++i) {
    slots.push_back(SlotFor(*stats.node(i)));
  }
  Publish(slots, stats);
}

std::vector<OperatorStats> StatsStore::Snapshot() const {
  std::vector<OperatorStats> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(operators_.size());
    for (const auto& [fingerprint, slot] : operators_) {
      if (slot->live()) out.push_back(slot->Load());
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const OperatorStats& a, const OperatorStats& b) {
                     return a.wall_ns > b.wall_ns;
                   });
  return out;
}

std::optional<OperatorStats> StatsStore::Find(
    const std::string& fingerprint) const {
  std::lock_guard<std::mutex> lock(mu_);
  return FindAliased(fingerprint, /*baseline=*/false);
}

std::optional<OperatorStats> StatsStore::FindAliased(
    const std::string& fingerprint, bool baseline) const {
  const std::string* key = &fingerprint;
  // Bounded alias-chain walk: re-optimized re-optimizations may alias an
  // alias; a cycle (impossible by construction, cheap to guard) stops.
  for (int hops = 0; hops < 8; ++hops) {
    if (baseline) {
      if (const auto it = baseline_.find(*key); it != baseline_.end()) {
        return it->second;
      }
    } else if (const std::optional<std::uint64_t> hash =
                   ParseFingerprint(*key)) {
      if (const auto it = operators_.find(*hash);
          it != operators_.end() && it->second->live()) {
        return it->second->Load();
      }
    }
    const auto alias = aliases_.find(*key);
    if (alias == aliases_.end()) return std::nullopt;
    key = &alias->second;
  }
  return std::nullopt;
}

void StatsStore::AddFingerprintAlias(const std::string& alias,
                                     const std::string& target) {
  if (alias == target) return;
  std::lock_guard<std::mutex> lock(mu_);
  aliases_[alias] = target;
}

std::size_t StatsStore::alias_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return aliases_.size();
}

std::size_t StatsStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t live = 0;
  for (const auto& [fingerprint, slot] : operators_) {
    if (slot->live()) ++live;
  }
  return live;
}

bool StatsStore::has_baseline() const {
  std::lock_guard<std::mutex> lock(mu_);
  return has_baseline_;
}

std::optional<OperatorStats> StatsStore::FindBaseline(
    const std::string& fingerprint) const {
  std::lock_guard<std::mutex> lock(mu_);
  return FindAliased(fingerprint, /*baseline=*/true);
}

std::vector<BetaLatencyProfile> StatsStore::BetaProfiles() const {
  static constexpr std::string_view kPrefix = "serena.service.";
  static constexpr std::string_view kSuffix = ".invoke_ns";
  std::vector<BetaLatencyProfile> out;
  const MetricsRegistry& metrics = MetricsRegistry::Global();
  for (const std::string& name : metrics.HistogramNames()) {
    if (name.size() <= kPrefix.size() + kSuffix.size() ||
        name.compare(0, kPrefix.size(), kPrefix) != 0 ||
        name.compare(name.size() - kSuffix.size(), kSuffix.size(), kSuffix) !=
            0) {
      continue;
    }
    BetaLatencyProfile profile;
    profile.prototype = name.substr(
        kPrefix.size(), name.size() - kPrefix.size() - kSuffix.size());
    const Histogram* histogram = metrics.FindHistogram(name);
    if (histogram != nullptr) {
      const HistogramSnapshot snapshot = histogram->Snapshot();
      profile.count = snapshot.count;
      profile.mean_ns = snapshot.mean();
      profile.p50_ns = snapshot.ValueAtPercentile(50);
      profile.p99_ns = snapshot.ValueAtPercentile(99);
      profile.max_ns = snapshot.max;
    }
    const std::string proto_prefix =
        std::string(kPrefix) + profile.prototype + ".";
    if (const Counter* hits = metrics.FindCounter(proto_prefix + "memo_hits");
        hits != nullptr) {
      profile.memo_hits = hits->value();
    }
    if (const Counter* misses =
            metrics.FindCounter(proto_prefix + "memo_misses");
        misses != nullptr) {
      profile.memo_misses = misses->value();
    }
    if (const Counter* errors = metrics.FindCounter(proto_prefix + "errors");
        errors != nullptr) {
      profile.errors = errors->value();
    }
    out.push_back(std::move(profile));
  }
  std::sort(out.begin(), out.end(),
            [](const BetaLatencyProfile& a, const BetaLatencyProfile& b) {
              return a.prototype < b.prototype;
            });
  return out;
}

void StatsStore::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = operators_.begin(); it != operators_.end();) {
    if (it->second->refs == 0) {
      it = operators_.erase(it);
    } else {
      it->second->Zero();
      ++it;
    }
  }
  aliases_.clear();
}

std::string StatsStore::ToJson() const {
  JsonWriter json;
  json.BeginObject();
  json.Key("schema_version").Value(std::int64_t{1});
  json.Key("operators").BeginArray();
  // std::map iteration order — stable across runs for a given workload.
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [fingerprint, slot] : operators_) {
      if (slot->live()) WriteOperator(json, slot->Load());
    }
  }
  json.EndArray();
  json.Key("services").BeginArray();
  for (const BetaLatencyProfile& profile : BetaProfiles()) {
    json.BeginObject();
    json.Key("prototype").Value(profile.prototype);
    json.Key("count").Value(profile.count);
    json.Key("mean_ns").Value(profile.mean_ns);
    json.Key("p50_ns").Value(profile.p50_ns);
    json.Key("p99_ns").Value(profile.p99_ns);
    json.Key("max_ns").Value(profile.max_ns);
    json.Key("memo_hits").Value(profile.memo_hits);
    json.Key("memo_misses").Value(profile.memo_misses);
    json.Key("errors").Value(profile.errors);
    json.Key("memo_hit_rate").Value(profile.memo_hit_rate());
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return json.TakeString();
}

Status StatsStore::SaveToFile(const std::string& path) const {
  // Write-temp-then-rename so a crash mid-save cannot corrupt a baseline
  // file a later run would `LoadBaselineFromFile`.
  const std::string document = ToJson();
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::Internal("cannot open stats file: ", tmp);
    out << document << '\n';
    out.flush();
    if (!out) return Status::Internal("cannot write stats file: ", tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::Internal("cannot rename stats file into place: ", path);
  }
  return Status::OK();
}

Status StatsStore::LoadBaselineFromJson(std::string_view json) {
  SERENA_ASSIGN_OR_RETURN(JsonValue document, ParseJson(json));
  if (!document.is_object()) {
    return Status::InvalidArgument("stats document is not a JSON object");
  }
  const JsonValue* operators = document.Find("operators");
  if (operators == nullptr || !operators->is_array()) {
    return Status::InvalidArgument("stats document has no operators array");
  }
  std::map<std::string, OperatorStats> baseline;
  for (const JsonValue& entry : operators->array()) {
    if (!entry.is_object()) continue;
    OperatorStats op = ReadOperator(entry);
    if (op.fingerprint.empty()) continue;
    baseline[op.fingerprint] = std::move(op);
  }
  std::lock_guard<std::mutex> lock(mu_);
  baseline_ = std::move(baseline);
  has_baseline_ = true;
  return Status::OK();
}

Status StatsStore::LoadBaselineFromFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open stats file: ", path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return LoadBaselineFromJson(buffer.str());
}

bool StatsStore::MaybeSaveEnvFile() const {
  const char* path = std::getenv("SERENA_STATS_FILE");
  if (path == nullptr || path[0] == '\0') return false;
  if (size() == 0) return false;
  return SaveToFile(path).ok();
}

}  // namespace obs
}  // namespace serena
