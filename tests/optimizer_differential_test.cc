// Differential tests for the optimizer: the unoptimized executor is the
// oracle, and every observable output of a replayed scenario script —
// one-shot tables and action sets, per-tick sink captures, accumulated
// actions and timestamped action logs — must be byte-identical with the
// optimizer on and off. This covers the semantic rewrite pass (including
// the abstract-interpretation folds) end to end, under both the scalar
// and the vectorized execution core.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "algebra/vectorized.h"
#include "analysis/lint_runner.h"
#include "common/hash.h"
#include "common/string_util.h"
#include "obs/meta.h"
#include "obs/stats.h"
#include "pems/pems.h"
#include "stream/executor.h"

namespace serena {
namespace {

/// Forces one vectorization mode for a scope, restoring the env-derived
/// default on exit.
class VecModeGuard {
 public:
  explicit VecModeGuard(bool enabled) { vec::SetEnabledForTesting(enabled); }
  ~VecModeGuard() { vec::SetEnabledForTesting(std::nullopt); }
};

std::uint64_t MixHash(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

Value PumpValue(const Attribute& attr, std::uint64_t h) {
  switch (attr.type) {
    case DataType::kBool:
      return Value::Bool(h % 2 == 0);
    case DataType::kInt:
      return Value::Int(static_cast<std::int64_t>(h % 100));
    case DataType::kReal:
      return Value::Real(static_cast<double>(h % 1000) / 10.0);
    case DataType::kBlob:
      return Value::BlobValue(Blob{static_cast<std::uint8_t>(h % 256)});
    case DataType::kService:
    case DataType::kString:
      break;
  }
  static constexpr const char* kWords[] = {"office", "kitchen", "roof",
                                           "lobby",  "garage",  "corridor",
                                           "lab",    "hall"};
  return Value::String(kWords[h % (sizeof(kWords) / sizeof(kWords[0]))]);
}

/// The bench harness's deterministic pump: the same (stream, instant,
/// row) always yields the same tuple, so all four replays of a script
/// see identical inputs.
void AddPump(Pems& pems, const std::string& stream, int rows_per_tick) {
  const std::uint64_t stream_seed = StableHash(stream);
  pems.queries().executor().AddSource(
      [&pems, stream, stream_seed, rows_per_tick](Timestamp t) -> Status {
        SERENA_ASSIGN_OR_RETURN(XDRelation * xd,
                                pems.streams().GetStream(stream));
        for (int k = 0; k < rows_per_tick; ++k) {
          const std::uint64_t row_seed =
              MixHash(stream_seed ^ MixHash(static_cast<std::uint64_t>(t) *
                                                0x10001ULL +
                                            static_cast<std::uint64_t>(k)));
          std::vector<Value> values;
          std::uint64_t attr_index = 0;
          for (const Attribute& attr : xd->schema().attributes()) {
            if (!attr.is_real()) continue;
            values.push_back(PumpValue(attr, MixHash(row_seed + attr_index)));
            ++attr_index;
          }
          SERENA_RETURN_NOT_OK(xd->Append(t, Tuple(std::move(values))));
        }
        return Status::OK();
      },
      {stream});
}

bool IsAllDigits(const std::string& token) {
  if (token.empty()) return false;
  for (const char c : token) {
    if (c < '0' || c > '9') return false;
  }
  return true;
}

bool IsDdl(const std::string& text) {
  std::istringstream in(text);
  std::string head;
  in >> head;
  std::string lower;
  for (char c : head) lower.push_back(static_cast<char>(std::tolower(c)));
  return lower == "prototype" || lower == "service" || lower == "extended" ||
         lower == "insert" || lower == "delete" || lower == "drop";
}

/// Captures every successful step's result per query, beside whatever
/// sink the query has: an `into` query must keep feeding its stream, or
/// the queries reading that stream are never compared. Observers run on
/// the executor's tick thread, one step at a time.
class StepCapture : public TickObserver {
 public:
  void OnQueryStep(Timestamp now, const ContinuousQuery& query,
                   const Status& /*status*/, const XRelation* rows) override {
    if (rows == nullptr) return;
    captures_[query.name()] +=
        "tick " + std::to_string(now) + ":\n" + rows->ToTableString();
  }

  const std::map<std::string, std::string>& captures() const {
    return captures_;
  }

 private:
  std::map<std::string, std::string> captures_;
};

/// Replays `script` with the optimizer forced to `optimize` and renders
/// everything observable into one string (same signature shape as the
/// vectorized differential test). `stages` — when non-null — restricts
/// the optimizer pipeline to that `--stages=` subset.
std::string ReplaySignature(const std::string& script, bool optimize,
                            const char* stages = nullptr) {
  std::ostringstream sig;
  StepCapture capture;  // Outlives the engine it observes.
  auto pems = Pems::Create().MoveValueOrDie();
  pems->queries().executor().AddTickObserver(&capture);
  pems->queries().set_optimize(optimize);
  if (stages != nullptr) {
    pems->queries().set_optimizer_options(
        optimizer::OptimizerOptions::FromStages(stages).ValueOrDie());
  }
  EXPECT_TRUE(
      obs::RegisterMetaRelations(&pems->env(), &pems->queries().executor())
          .ok());
  obs::StatsStore::Global().Clear();

  std::vector<std::string> registered;
  for (const std::string& statement : SplitScript(script)) {
    if (statement.empty()) continue;
    if (statement[0] != '\\') {
      if (IsDdl(statement)) {
        const Status status = pems->tables().ExecuteDdl(statement);
        sig << "ddl: " << (status.ok() ? "ok" : status.ToString()) << "\n";
      } else {
        std::string expr = statement;
        if (!expr.empty() && expr.back() == ';') expr.pop_back();
        auto result = pems->queries().ExecuteOneShot(expr);
        if (result.ok()) {
          sig << "oneshot:\n"
              << result->relation.ToTableString() << "actions: "
              << result->actions.ToString() << "\n";
        } else {
          sig << "oneshot error: " << result.status().ToString() << "\n";
        }
      }
      continue;
    }
    std::istringstream in(statement);
    std::string directive;
    in >> directive;
    if (directive == "\\register") {
      std::string query_name;
      in >> query_name;
      std::string rest;
      std::getline(in, rest);
      std::string expr(Trim(rest));
      std::string stream;
      if (expr.rfind("into ", 0) == 0) {
        std::istringstream tail(expr.substr(5));
        tail >> stream;
        std::string remainder;
        std::getline(tail, remainder);
        expr = std::string(Trim(remainder));
      }
      const Status status =
          stream.empty()
              ? pems->queries().RegisterContinuous(query_name, expr)
              : pems->queries().RegisterContinuousInto(query_name, expr,
                                                       stream);
      sig << "register " << query_name << ": "
          << (status.ok() ? "ok" : status.ToString()) << "\n";
      if (status.ok()) registered.push_back(query_name);
    } else if (directive == "\\source") {
      std::string token;
      std::string pending;
      while (in >> token) {
        if (!pending.empty() && IsAllDigits(token)) {
          AddPump(*pems, pending, std::max(1, std::atoi(token.c_str())));
          pending.clear();
          continue;
        }
        if (!pending.empty()) AddPump(*pems, pending, 4);
        pending = token;
      }
      if (!pending.empty()) AddPump(*pems, pending, 4);
    } else if (directive == "\\tick") {
      int n = 1;
      in >> n;
      if (n < 1) n = 1;
      for (int i = 0; i < n; ++i) pems->Tick();
    }
  }

  for (const auto& [tag, steps] : capture.captures()) {
    sig << "query " << tag << ":\n" << steps;
  }
  // The retained history of every stream, derived ones included: what
  // the `into` queries fed.
  for (const std::string& stream_name : pems->streams().StreamNames()) {
    auto stream = pems->streams().GetStream(stream_name);
    if (!stream.ok()) continue;
    sig << "stream " << stream_name << ":";
    for (const auto& [instant, tuple] : (*stream)->Entries()) {
      sig << " [" << instant << "] " << tuple.ToString();
    }
    sig << "\n";
  }
  for (const std::string& query_name : registered) {
    auto query = pems->queries().GetContinuous(query_name);
    if (!query.ok()) continue;
    sig << "accumulated " << query_name << ": "
        << (*query)->accumulated_actions().ToString() << "\n";
    sig << "log " << query_name << ":";
    for (const auto& entry : (*query)->action_log()) {
      sig << " [" << entry.instant << "] " << entry.action.ToString();
    }
    sig << "\n";
  }
  return sig.str();
}

TEST(OptimizerDifferentialTest, ScriptsAreByteIdenticalWithAndWithout) {
  const std::string dir =
      std::string(SERENA_REPO_DIR) + "/examples/scripts/";
  std::size_t scripts = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".serena") continue;
    const std::string name = entry.path().filename().string();
    if (name == "lint_errors.serena") continue;  // Exercises diagnostics.
    // self_monitoring embeds wall-clock nanoseconds in its rows — never
    // byte-identical across two replays in any configuration.
    if (name == "self_monitoring.serena") continue;
    std::ifstream in(entry.path());
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string script = buffer.str();

    // Both execution cores: a rewrite that only survives because the
    // scalar path masks it must still fail here. The optimized replay
    // runs the full pipeline (semantic + cost-based enumeration +
    // rules, the QueryProcessor default).
    for (const bool vectorize : {false, true}) {
      VecModeGuard guard(vectorize);
      const std::string unoptimized = ReplaySignature(script, false);
      const std::string optimized = ReplaySignature(script, true);
      EXPECT_EQ(unoptimized, optimized)
          << "scenario " << name << " diverges under the optimizer"
          << (vectorize ? " (vectorized)" : " (scalar)");
    }
    ++scripts;
  }
  EXPECT_GE(scripts, 5u) << "expected the committed scenario scripts";
}

TEST(OptimizerDifferentialTest, CostStageAloneIsByteIdentical) {
  // Isolate the cost-based enumerator: with semantic folds and classic
  // rules off, any divergence is the enumerator's own fault — join
  // reorders, σ sinking, β hoisting and the compensating projection all
  // have to preserve the bytes.
  const std::string dir =
      std::string(SERENA_REPO_DIR) + "/examples/scripts/";
  std::size_t scripts = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".serena") continue;
    const std::string name = entry.path().filename().string();
    if (name == "lint_errors.serena") continue;
    if (name == "self_monitoring.serena") continue;  // Wall-clock rows.
    std::ifstream in(entry.path());
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string script = buffer.str();

    for (const bool vectorize : {false, true}) {
      VecModeGuard guard(vectorize);
      const std::string unoptimized = ReplaySignature(script, false);
      const std::string cost_only = ReplaySignature(script, true, "cost");
      EXPECT_EQ(unoptimized, cost_only)
          << "scenario " << name << " diverges under --stages=cost"
          << (vectorize ? " (vectorized)" : " (scalar)");
    }
    ++scripts;
  }
  EXPECT_GE(scripts, 5u);
}

}  // namespace
}  // namespace serena
