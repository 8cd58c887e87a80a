// Differential tests for the vectorized batch execution core
// (docs/VECTORIZATION.md): the scalar path behind SERENA_VECTORIZE=off
// is the oracle, and every observable output — result tables, action
// sets, action logs, per-tick sink captures, invocation retries — must
// be byte-identical between the two modes. Bag equality (Def. 4) and
// action-set equality (Def. 9) are checked through canonical renderings.

#include "algebra/vectorized.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "algebra/explain.h"
#include "analysis/lint_runner.h"
#include "common/hash.h"
#include "common/string_util.h"
#include "env/scenario.h"
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
  explicit VecModeGuard(bool enabled) {
    vec::SetEnabledForTesting(enabled);
  }
  ~VecModeGuard() { vec::SetEnabledForTesting(std::nullopt); }
};

// ---------------------------------------------------------------------------
// Script replay differential: every committed scenario script.
// ---------------------------------------------------------------------------

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

/// The bench harness's deterministic pump (tools/serena_bench.cc): the
/// same (stream, instant, row) always yields the same tuple, so both
/// replays of a script see identical inputs.
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

/// Replays `script` under the current vectorization mode and renders
/// everything observable into one string: one-shot tables and actions,
/// every statement error, every per-tick sink capture of every
/// registered query, and each query's accumulated action set and
/// timestamped action log.
std::string ReplaySignature(const std::string& script) {
  std::ostringstream sig;
  // Sink captures accumulate per query: the executor may step queries of
  // one tick in any order (parallel scheduling), so interleaving is not
  // part of the signature — per-query content and instants are. Sinks of
  // one level run on pool threads at once, hence the mutex.
  std::map<std::string, std::string> captures;
  std::mutex captures_mu;
  auto pems = Pems::Create().MoveValueOrDie();
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
      if (status.ok()) {
        registered.push_back(query_name);
        auto query = pems->queries().GetContinuous(query_name);
        if (query.ok()) {
          const std::string tag = query_name;
          (*query)->set_sink(
              [&captures, &captures_mu, tag](Timestamp t,
                                             const XRelation& r) {
                const std::string capture = "tick " + std::to_string(t) +
                                            ":\n" + r.ToTableString();
                std::lock_guard<std::mutex> lock(captures_mu);
                captures[tag] += capture;
              });
        }
      }
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

  for (const auto& [tag, capture] : captures) {
    sig << "query " << tag << ":\n" << capture;
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

TEST(VectorizedDifferentialTest, ScriptsAreByteIdenticalAcrossModes) {
  const std::string dir =
      std::string(SERENA_REPO_DIR) + "/examples/scripts/";
  std::size_t scripts = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".serena") continue;
    const std::string name = entry.path().filename().string();
    if (name == "lint_errors.serena") continue;  // Exercises diagnostics.
    // self_monitoring queries the sys_* meta-relations, whose rows embed
    // wall-clock nanoseconds — identical row *counts* across modes (the
    // bench harness's exact records gate those) but never identical
    // bytes, in any mode, across any two replays.
    if (name == "self_monitoring.serena") continue;
    std::ifstream in(entry.path());
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string script = buffer.str();

    std::string scalar;
    std::string vectorized;
    {
      VecModeGuard guard(false);
      scalar = ReplaySignature(script);
    }
    {
      VecModeGuard guard(true);
      vectorized = ReplaySignature(script);
    }
    EXPECT_EQ(scalar, vectorized) << "scenario " << name
                                  << " diverges between modes";
    ++scripts;
  }
  EXPECT_GE(scripts, 5u) << "expected the committed scenario scripts";
}

// ---------------------------------------------------------------------------
// Operator-shape differential: fused pipelines over the paper scenario.
// ---------------------------------------------------------------------------

/// Evaluates `plan` one-shot in both modes and renders the result (or
/// the error) canonically.
std::string OneShotSignature(const PlanPtr& plan, Environment* env,
                             StreamStore* streams, bool enabled,
                             Timestamp instant) {
  VecModeGuard guard(enabled);
  auto result = Execute(plan, env, streams, instant);
  if (!result.ok()) return "error: " + result.status().ToString();
  return result->relation.ToTableString() + "actions: " +
         result->actions.ToString();
}

class OperatorDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    scenario_ = TemperatureScenario::Build().MoveValueOrDie();
    // A few instants of stream history for window shapes.
    for (Timestamp t = 1; t <= 4; ++t) {
      ASSERT_TRUE(scenario_->PumpTemperatureStream(t).ok());
    }
  }

  void ExpectParity(const PlanPtr& plan, Timestamp instant = 4) {
    const std::string scalar =
        OneShotSignature(plan, &scenario_->env(), &scenario_->streams(),
                         false, instant);
    const std::string vectorized =
        OneShotSignature(plan, &scenario_->env(), &scenario_->streams(),
                         true, instant);
    EXPECT_EQ(scalar, vectorized) << "plan " << plan->ToString();
  }

  std::unique_ptr<TemperatureScenario> scenario_;
};

TEST_F(OperatorDifferentialTest, SelectionChainsOverWindows) {
  // Deep σ-chain (merged to a flattened conjunction when optimized, and
  // evaluated conjunct-by-conjunct here): bands that pass, a band that
  // drops everything, string comparisons.
  PlanPtr window = Window("temperatures", 3);
  ExpectParity(Select(window, Formula::Compare(Operand::Attr("temperature"),
                                               CompareOp::kGt,
                                               Operand::Const(Value::Real(
                                                   -100.0)))));
  ExpectParity(Select(
      Select(Select(window,
                    Formula::Compare(Operand::Attr("temperature"),
                                     CompareOp::kGt,
                                     Operand::Const(Value::Real(-100.0)))),
             Formula::Compare(Operand::Attr("location"), CompareOp::kNe,
                              Operand::Const(Value::String("nowhere")))),
      Formula::Compare(Operand::Attr("temperature"), CompareOp::kLt,
                       Operand::Const(Value::Real(1000.0)))));
  // Selective tail: almost nothing materializes.
  ExpectParity(Select(window,
                      Formula::Compare(Operand::Attr("temperature"),
                                       CompareOp::kGt,
                                       Operand::Const(Value::Real(1e9)))));
}

TEST_F(OperatorDifferentialTest, NonConjunctiveFormulasUseGeneralPath) {
  PlanPtr window = Window("temperatures", 3);
  // OR and NOT cannot flatten — they compile to the general predicate.
  ExpectParity(Select(
      window,
      Formula::Or(Formula::Compare(Operand::Attr("location"), CompareOp::kEq,
                                   Operand::Const(Value::String("room1"))),
                  Formula::Compare(Operand::Attr("temperature"),
                                   CompareOp::kLt,
                                   Operand::Const(Value::Real(0.0))))));
  ExpectParity(Select(
      window,
      Formula::Not(Formula::Compare(Operand::Attr("location"),
                                    CompareOp::kEq,
                                    Operand::Const(Value::String("room1"))))));
}

TEST_F(OperatorDifferentialTest, ProjectRenameJoinShapes) {
  PlanPtr window = Window("temperatures", 3);
  // π deduplicates; ρ then joins against a catalog relation.
  ExpectParity(Project(window, {"location"}));
  ExpectParity(Join(Rename(window, "location", "area"), Scan("contacts")));
  ExpectParity(Project(
      Select(Join(Rename(window, "location", "area"), Scan("contacts")),
             Formula::Compare(Operand::Attr("temperature"), CompareOp::kGt,
                              Operand::Const(Value::Real(-100.0)))),
      {"area", "name"}));
}

TEST_F(OperatorDifferentialTest, ErrorPathsMatchScalarDiagnostics) {
  PlanPtr window = Window("temperatures", 3);
  // Unbound parameter: the pipeline build fails, the scalar fallback
  // raises the canonical diagnostic in both modes.
  ExpectParity(Select(window,
                      Formula::Compare(Operand::Attr("temperature"),
                                       CompareOp::kGt,
                                       Operand::Param("threshold"))));
  // Missing attribute.
  ExpectParity(Select(window,
                      Formula::Compare(Operand::Attr("no_such_attribute"),
                                       CompareOp::kEq,
                                       Operand::Const(Value::Int(1)))));
  // Type mismatch surfaces per tuple, from inside the fused loop.
  ExpectParity(Select(window,
                      Formula::Compare(Operand::Attr("location"),
                                       CompareOp::kGt,
                                       Operand::Const(Value::Int(42)))));
}

/// The per-node `actual rows` of EXPLAIN ANALYZE, one "node rows=N" line
/// per plan node: wall times and batch counts differ between the modes by
/// design, row counts may not.
std::string AnalyzedRows(const PlanPtr& plan, Environment* env,
                         StreamStore* streams, bool enabled,
                         Timestamp instant) {
  VecModeGuard guard(enabled);
  ExplainAnalyzeOptions options;
  options.instant = instant;
  std::istringstream rendered(
      ExplainAnalyzePlan(plan, env, streams, options));
  std::string rows;
  for (std::string line; std::getline(rendered, line);) {
    const std::size_t marker = line.find(" -- ");
    if (marker == std::string::npos) continue;
    const std::size_t count = line.find("rows=", marker);
    rows += line.substr(0, marker) + " " +
            (count == std::string::npos
                 ? std::string("never executed")
                 : line.substr(count, line.find(' ', count) - count)) +
            "\n";
  }
  return rows;
}

TEST_F(OperatorDifferentialTest, AggregateShapes) {
  // Keys that stress γ's grouping: Int(2) and Real(2.0) are one group
  // (keyed by the first), every NaN key is a group of its own, and the
  // string column feeds min/max.
  auto schema = ExtendedSchema::Create("mixed", {{"k", DataType::kReal},
                                                 {"tag", DataType::kString},
                                                 {"v", DataType::kInt},
                                                 {"w", DataType::kReal}})
                    .ValueOrDie();
  XRelation mixed(schema);
  const double nan = std::nan("");
  const std::vector<Tuple> rows = {
      {Value::Int(2), Value::String("b"), Value::Int(1), Value::Real(0.1)},
      {Value::Real(7.5), Value::String("a"), Value::Int(2), Value::Real(0.2)},
      {Value::Real(nan), Value::String("c"), Value::Int(3), Value::Real(0.3)},
      {Value::Real(2.0), Value::String("a"), Value::Int(4), Value::Real(0.4)},
      {Value::Real(nan), Value::String("d"), Value::Int(5), Value::Real(0.5)},
      {Value::Real(-1.0), Value::String("e"), Value::Int(6), Value::Real(0.6)},
      {Value::Real(7.5), Value::String("f"), Value::Int(7), Value::Real(0.7)}};
  for (const Tuple& row : rows) ASSERT_TRUE(mixed.Insert(row).ok());
  ASSERT_TRUE(scenario_->env().PutRelation(std::move(mixed)).ok());

  // γ over ⋈, which folds the matched pairs in place. `kbuild` is the
  // smaller operand, so it is the build side and side 1 of
  // join(kbuild, kprobe): the shared key `k` takes its values, Int or
  // Real, and NaN keys match nothing.
  const auto put = [this](const std::string& name,
                          std::vector<Attribute> attributes,
                          const std::vector<Tuple>& tuples) {
    XRelation relation(
        ExtendedSchema::Create(name, std::move(attributes)).ValueOrDie());
    for (const Tuple& t : tuples) ASSERT_TRUE(relation.Insert(t).ok());
    ASSERT_TRUE(scenario_->env().PutRelation(std::move(relation)).ok());
  };
  put("kbuild", {{"k", DataType::kReal}, {"label", DataType::kString}},
      {{Value::Int(2), Value::String("a")},
       {Value::Real(2.0), Value::String("b")},
       {Value::Int(2), Value::String("c")},
       {Value::Real(nan), Value::String("d")},
       {Value::Int(5), Value::String("e")}});
  put("kprobe",
      {{"k", DataType::kReal}, {"v", DataType::kInt}, {"w", DataType::kReal}},
      {{Value::Real(2.0), Value::Int(1), Value::Real(0.1)},
       {Value::Int(2), Value::Int(2), Value::Real(0.2)},
       {Value::Real(nan), Value::Int(3), Value::Real(0.3)},
       {Value::Real(5.0), Value::Int(4), Value::Real(0.4)},
       {Value::Int(7), Value::Int(5), Value::Real(0.5)},
       {Value::Real(2.0), Value::Int(6), Value::Real(0.6)}});
  put("nowhere", {{"location", DataType::kString}, {"x", DataType::kInt}},
      {});
  put("hot_zones", {{"area", DataType::kString}}, {{Value::String("roof")}});
  // zone_stress's streams: watts and temperatures per area.
  for (const char* stream : {"tel_watts", "tel_temps"}) {
    ASSERT_TRUE(scenario_->streams()
                    .AddStream(ExtendedSchema::Create(
                                   stream, {{"area", DataType::kString},
                                            {stream == std::string("tel_watts")
                                                 ? "watts"
                                                 : "temp",
                                             DataType::kReal}})
                                   .ValueOrDie())
                    .ok());
  }
  const char* areas[] = {"roof", "lab", "hall"};
  for (Timestamp t = 1; t <= 4; ++t) {
    for (int k = 0; k < 6; ++k) {
      ASSERT_TRUE(scenario_->streams()
                      .GetStream("tel_watts")
                      .ValueOrDie()
                      ->Append(t, Tuple{Value::String(areas[(t + k) % 3]),
                                        Value::Real(0.1 * (7 * t + k) + 0.01)})
                      .ok());
      ASSERT_TRUE(scenario_->streams()
                      .GetStream("tel_temps")
                      .ValueOrDie()
                      ->Append(t, Tuple{Value::String(areas[(2 * t + k) % 3]),
                                        Value::Real(20.0 + 0.3 * k + t)})
                      .ok());
    }
  }

  PlanPtr window = Window("temperatures", 3);
  const auto warm = Formula::Compare(Operand::Attr("temperature"),
                                     CompareOp::kGt,
                                     Operand::Const(Value::Real(-100.0)));
  const auto never = Formula::Compare(Operand::Attr("temperature"),
                                      CompareOp::kGt,
                                      Operand::Const(Value::Real(1e9)));
  const std::vector<AggregateSpec> stats = {
      {AggregateFn::kAvg, "temperature", "mean"},
      {AggregateFn::kCount, "", "n"},
      {AggregateFn::kMin, "temperature", "lo"},
      {AggregateFn::kMax, "temperature", "hi"}};
  const std::vector<PlanPtr> plans = {
      // γ over σ(window).
      Aggregate(Select(window, warm), {"location"}, stats),
      // γ over ⋈, with string min/max.
      Aggregate(Join(window, Scan("surveillance")), {"name"},
                {{AggregateFn::kCount, "", "n"},
                 {AggregateFn::kMin, "location", "first"},
                 {AggregateFn::kMax, "location", "last"},
                 {AggregateFn::kSum, "temperature", "total"}}),
      // γ over π: the projection deduplicates before the fold counts.
      Aggregate(Project(window, {"location"}), {},
                {{AggregateFn::kCount, "", "n"}}),
      Aggregate(Project(window, {"location"}), {"location"},
                {{AggregateFn::kCount, "location", "n"}}),
      // γ over an opaque β.
      Aggregate(Invoke(Scan("sensors"), "getTemperature"), {"location"},
                stats),
      // Empty input, grouped and ungrouped.
      Aggregate(Select(window, never), {"location"}, stats),
      Aggregate(Select(window, never), {}, {{AggregateFn::kCount, "", "n"}}),
      // Empty group-by over the whole window.
      Aggregate(window, {}, stats),
      // Mixed Int/Real and NaN keys, scanned and filtered.
      Aggregate(Scan("mixed"), {"k"},
                {{AggregateFn::kCount, "", "n"},
                 {AggregateFn::kSum, "v", "s"},
                 {AggregateFn::kAvg, "w", "m"},
                 {AggregateFn::kMin, "tag", "first"},
                 {AggregateFn::kMax, "tag", "last"}}),
      Aggregate(Select(Scan("mixed"),
                       Formula::Compare(Operand::Attr("v"), CompareOp::kGt,
                                        Operand::Const(Value::Int(1)))),
                {"k", "tag"}, {{AggregateFn::kSum, "w", "s"}}),
      // γ below a fused root stays opaque inside that pipeline.
      Select(Aggregate(window, {"location"}, stats),
             Formula::Compare(Operand::Attr("n"), CompareOp::kGt,
                              Operand::Const(Value::Int(0)))),
      // γ over a keyed ⋈, group-by from the probe side (the window):
      // a probe attribute, then the join key.
      Aggregate(Join(window, Scan("surveillance")), {"temperature"},
                {{AggregateFn::kCount, "", "n"},
                 {AggregateFn::kMin, "name", "first"}}),
      Aggregate(Join(window, Scan("surveillance")), {"location"},
                {{AggregateFn::kSum, "temperature", "total"},
                 {AggregateFn::kMax, "name", "last"}}),
      // Group-by from the build side (kbuild's label).
      Aggregate(Join(Scan("kbuild"), Scan("kprobe")), {"label"},
                {{AggregateFn::kCount, "", "n"},
                 {AggregateFn::kSum, "w", "s"}}),
      // Group-by on the join key, mixed Int/Real with side 1 the build
      // side; then the key with a build attribute.
      Aggregate(Join(Scan("kbuild"), Scan("kprobe")), {"k"},
                {{AggregateFn::kCount, "", "n"},
                 {AggregateFn::kSum, "v", "s"},
                 {AggregateFn::kAvg, "w", "m"},
                 {AggregateFn::kMin, "label", "first"},
                 {AggregateFn::kMax, "label", "last"}}),
      Aggregate(Join(Scan("kbuild"), Scan("kprobe")), {"k", "label"},
                {{AggregateFn::kSum, "w", "s"}}),
      // zone_stress's 3-way shape, in its naive and its reordered form.
      Aggregate(Join(Join(Window("tel_watts", 4), Window("tel_temps", 4)),
                     Scan("hot_zones")),
                {"area"},
                {{AggregateFn::kCount, "", "n"},
                 {AggregateFn::kSum, "watts", "total_watts"}}),
      Aggregate(Join(Join(Window("tel_watts", 4), Scan("hot_zones")),
                     Window("tel_temps", 4)),
                {"area"},
                {{AggregateFn::kCount, "", "n"},
                 {AggregateFn::kSum, "watts", "total_watts"}}),
      // An empty build side, grouped and ungrouped.
      Aggregate(Join(window, Scan("nowhere")), {"location"}, stats),
      Aggregate(Join(window, Scan("nowhere")), {},
                {{AggregateFn::kCount, "", "n"}}),
      // γ over a Cartesian ⋈ (no shared attribute) drains batches.
      Aggregate(Join(Scan("kbuild"), Scan("surveillance")), {"name"},
                {{AggregateFn::kCount, "", "n"},
                 {AggregateFn::kSum, "k", "s"}}),
  };

  Environment* env = &scenario_->env();
  StreamStore* streams = &scenario_->streams();
  for (const std::optional<std::size_t> batch_size :
       {std::optional<std::size_t>(1), std::optional<std::size_t>(3),
        std::optional<std::size_t>()}) {
    vec::SetBatchSizeForTesting(batch_size);
    for (const PlanPtr& plan : plans) {
      SCOPED_TRACE("batch_size=" +
                   (batch_size ? std::to_string(*batch_size) : "default") +
                   " plan " + plan->ToString());
      ExpectParity(plan);
      EXPECT_EQ(AnalyzedRows(plan, env, streams, false, 4),
                AnalyzedRows(plan, env, streams, true, 4));
    }
  }
  vec::SetBatchSizeForTesting(std::nullopt);

  // The mixed keys group as documented: Int(2)/Real(2.0) once (keyed by
  // the first), each NaN apart and last, groups in key order.
  VecModeGuard guard(true);
  auto grouped = Execute(plans[8], env, streams, 4);
  ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
  const std::vector<Tuple>& out = grouped->relation.tuples();
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out[0][0], Value::Real(-1.0));
  EXPECT_TRUE(out[1][0].is_int());
  EXPECT_EQ(out[1][1], Value::Int(2));  // n
  EXPECT_EQ(out[1][2], Value::Int(5));  // s = 1 + 4
  EXPECT_EQ(out[1][3], Value::Real((0.1 + 0.4) / 2));
  EXPECT_EQ(out[1][4], Value::String("a"));
  EXPECT_EQ(out[1][5], Value::String("b"));
  EXPECT_EQ(out[2][0], Value::Real(7.5));
  EXPECT_TRUE(std::isnan(out[3][0].real_value()));
  EXPECT_EQ(out[3][4], Value::String("c"));
  EXPECT_TRUE(std::isnan(out[4][0].real_value()));
  EXPECT_EQ(out[4][4], Value::String("d"));

  // The join-key group keeps the build side's first matched value, as
  // `Merge` would: kprobe's first k = 2 row matches c (Int), b, a.
  auto keyed = Execute(plans[14], env, streams, 4);
  ASSERT_TRUE(keyed.ok()) << keyed.status().ToString();
  const std::vector<Tuple>& groups = keyed->relation.tuples();
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_TRUE(groups[0][0].is_int());
  EXPECT_EQ(groups[0][0], Value::Int(2));
  EXPECT_EQ(groups[0][1], Value::Int(9));   // 3 probe × 3 build rows.
  EXPECT_EQ(groups[0][2], Value::Int(27));  // 3 × (1 + 2 + 6).
  EXPECT_EQ(groups[1][0], Value::Int(5));
  EXPECT_EQ(groups[1][1], Value::Int(1));
}

// ---------------------------------------------------------------------------
// Continuous differential: invocation failures and retries.
// ---------------------------------------------------------------------------

/// Runs the recovered-service retry flow (a standing query over
/// invoke[getTemperature](sensors) with sensor22 unreachable for the
/// first instants, then re-registered) and renders every per-tick result
/// and the action trail.
std::string RetryFlowSignature(bool enabled) {
  VecModeGuard guard(enabled);
  auto scenario = TemperatureScenario::Build().MoveValueOrDie();
  ContinuousExecutor executor(&scenario->env(), &scenario->streams());
  executor.AddSource(
      [&scenario](Timestamp t) { return scenario->PumpTemperatureStream(t); });

  std::ostringstream sig;
  auto readings = std::make_shared<ContinuousQuery>(
      "readings", Invoke(Scan("sensors"), "getTemperature"));
  readings->set_sink([&sig](Timestamp t, const XRelation& r) {
    sig << "tick " << t << ":\n" << r.ToTableString();
  });
  EXPECT_TRUE(executor.Register(readings).ok());

  auto sensor22 = scenario->env().registry().Lookup("sensor22").ValueOrDie();
  EXPECT_TRUE(scenario->env().registry().Unregister("sensor22").ok());
  executor.Run(2);
  EXPECT_TRUE(scenario->env().registry().Register(sensor22).ok());
  executor.Run(2);

  sig << "accumulated: " << readings->accumulated_actions().ToString()
      << "\nlog:";
  for (const auto& entry : readings->action_log()) {
    sig << " [" << entry.instant << "] " << entry.action.ToString();
  }
  return sig.str();
}

TEST(VectorizedDifferentialTest, FailedInvocationRetriesMatchScalar) {
  EXPECT_EQ(RetryFlowSignature(false), RetryFlowSignature(true));
}

}  // namespace
}  // namespace serena
