#include "obs/stats.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <unordered_set>

#include "algebra/plan.h"
#include "common/hash.h"
#include "common/string_util.h"
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

std::string OperatorFingerprint(const PlanNode& node) {
  // Kind is prefixed separately: two operators could in principle render
  // identically while differing in kind, and the prefix keeps the
  // fingerprint honest if a ToString ever becomes ambiguous.
  std::string key = PlanKindToString(node.kind());
  key.push_back('|');
  key += node.ToString();
  return StringFormat("%016llx",
                      static_cast<unsigned long long>(StableHash(key)));
}

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

std::vector<FingerprintedNode> FingerprintPlan(const PlanNode& root) {
  std::vector<FingerprintedNode> nodes;
  std::unordered_set<const PlanNode*> seen;
  // Iterative DFS; plans are shallow but shared subtrees must merge once.
  std::vector<const PlanNode*> pending = {&root};
  while (!pending.empty()) {
    const PlanNode* node = pending.back();
    pending.pop_back();
    if (!seen.insert(node).second) continue;
    FingerprintedNode entry{node, OperatorFingerprint(*node), {}};
    for (const PlanPtr& child : node->children()) {
      entry.children.push_back(child.get());
      pending.push_back(child.get());
    }
    nodes.push_back(std::move(entry));
  }
  return nodes;
}

void StatsStore::RecordPlan(const std::vector<FingerprintedNode>& nodes,
                            const PlanStatsCollector& collector) {
  // Resolve this evaluation's actuals and feed the (atomic) per-kind
  // counters outside the lock; `mu_` guards only the merge into
  // `operators_`.
  struct Update {
    const FingerprintedNode* entry;
    const NodeRuntimeStats* stats;
    std::uint64_t rows_in;
  };
  std::vector<Update> updates;
  updates.reserve(nodes.size());
  for (const FingerprintedNode& entry : nodes) {
    const NodeRuntimeStats* stats = collector.Find(entry.node);
    if (stats == nullptr || stats->evals == 0) continue;
    std::uint64_t rows_in = 0;
    for (const PlanNode* child : entry.children) {
      if (const NodeRuntimeStats* child_stats = collector.Find(child)) {
        rows_in += child_stats->rows_out;
      }
    }
    updates.push_back({&entry, stats, rows_in});
  }
  if (updates.empty()) return;

  if (MetricsRegistry::Global().enabled()) {
    for (const Update& update : updates) {
      const OperatorInstruments& instruments =
          InstrumentsFor(update.entry->node->kind());
      instruments.evals->Increment(update.stats->evals);
      instruments.rows_out->Increment(update.stats->rows_out);
      instruments.wall_ns->Increment(update.stats->wall_ns);
    }
  }

  std::lock_guard<std::mutex> lock(mu_);
  for (const Update& update : updates) {
    const PlanNode& node = *update.entry->node;
    OperatorStats& op = operators_[update.entry->fingerprint];
    if (op.fingerprint.empty()) {
      op.fingerprint = update.entry->fingerprint;
      op.kind = PlanKindToString(node.kind());
      op.label = TruncatedLabel(node.ToString());
      op.prototype = NodePrototype(node);
    }
    op.evals += update.stats->evals;
    op.rows_in += update.rows_in;
    op.rows_out += update.stats->rows_out;
    op.wall_ns += update.stats->wall_ns;
    op.invocations += update.stats->invocations;
    op.memo_hits += update.stats->memo_hits;
    op.errors += update.stats->errors;
    op.batches += update.stats->batches;
  }
}

std::vector<OperatorStats> StatsStore::Snapshot() const {
  std::vector<OperatorStats> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(operators_.size());
    for (const auto& [fingerprint, op] : operators_) out.push_back(op);
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
  const OperatorStats* stats = FindAliased(operators_, fingerprint);
  if (stats == nullptr) return std::nullopt;
  return *stats;
}

const OperatorStats* StatsStore::FindAliased(
    const std::map<std::string, OperatorStats>& map,
    const std::string& fingerprint) const {
  const std::string* key = &fingerprint;
  // Bounded alias-chain walk: re-optimized re-optimizations may alias an
  // alias; a cycle (impossible by construction, cheap to guard) stops.
  for (int hops = 0; hops < 8; ++hops) {
    const auto it = map.find(*key);
    if (it != map.end()) return &it->second;
    const auto alias = aliases_.find(*key);
    if (alias == aliases_.end()) return nullptr;
    key = &alias->second;
  }
  return nullptr;
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
  return operators_.size();
}

bool StatsStore::has_baseline() const {
  std::lock_guard<std::mutex> lock(mu_);
  return has_baseline_;
}

std::optional<OperatorStats> StatsStore::FindBaseline(
    const std::string& fingerprint) const {
  std::lock_guard<std::mutex> lock(mu_);
  const OperatorStats* stats = FindAliased(baseline_, fingerprint);
  if (stats == nullptr) return std::nullopt;
  return *stats;
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
  operators_.clear();
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
    for (const auto& [fingerprint, op] : operators_) WriteOperator(json, op);
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
