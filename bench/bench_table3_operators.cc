// Reproduces Table 3: the six Serena operator definitions (a)-(f),
// demonstrated on the paper's relations (schema propagation + binding
// pattern rules), then measures per-operator throughput as input
// cardinality grows.

#include "bench_util.h"
#include "common/random.h"
#include "common/string_util.h"
#include "env/scenario.h"

namespace serena {
namespace {

void DescribeResult(const char* label, const XRelation& result) {
  std::vector<std::string> bps;
  for (const BindingPattern& bp : result.schema().binding_patterns()) {
    bps.push_back(bp.ToString());
  }
  std::printf("%-14s |S|=%zu  real={%s}  virtual={%s}  BP={%s}\n", label,
              result.size(),
              Join(result.schema().RealNames(), ",").c_str(),
              Join(result.schema().VirtualNames(), ",").c_str(),
              Join(bps, "; ").c_str());
  // Every Table 3 rule lands three exact records: cardinality plus the
  // two schema-partition figures the rule is about.
  bench::RecordRepro(std::string(label) + "_rows",
                     static_cast<double>(result.size()), "tuples");
  bench::RecordRepro(
      std::string(label) + "_virtual_attrs",
      static_cast<double>(result.schema().VirtualNames().size()), "attrs");
  bench::RecordRepro(
      std::string(label) + "_binding_patterns",
      static_cast<double>(result.schema().binding_patterns().size()),
      "patterns");
}

void ReproduceTable3() {
  bench::PrintHeader(
      "Table 3",
      "Operator semantics over the motivating-example X-Relations: output "
      "schema partition and binding-pattern propagation per rule (a)-(f).");
  auto scenario = TemperatureScenario::Build().MoveValueOrDie();
  Environment& env = scenario->env();
  const XRelation& contacts = *env.GetRelation("contacts").ValueOrDie();
  const XRelation& cameras = *env.GetRelation("cameras").ValueOrDie();

  // (set ops)
  DescribeResult("union", Union(contacts, contacts).ValueOrDie());
  // (a) projection: dropping `address` invalidates sendMessage.
  DescribeResult("project(a)",
                 Project(contacts, {"name", "messenger", "text", "sent"})
                     .ValueOrDie());
  // (b) selection: schema unchanged.
  DescribeResult(
      "select(b)",
      Select(contacts, Formula::Compare(Operand::Attr("messenger"),
                                        CompareOp::kEq,
                                        Operand::Const(
                                            Value::String("email"))))
          .ValueOrDie());
  // (c) renaming: service attribute rename follows the binding pattern.
  DescribeResult("rename(c)",
                 Rename(cameras, "camera", "device").ValueOrDie());
  // (d) natural join: virtual `text` realized by a real attribute.
  auto texts_schema =
      ExtendedSchema::Create("texts", {{"name", DataType::kString},
                                       {"text", DataType::kString}})
          .ValueOrDie();
  XRelation texts(texts_schema);
  (void)texts.Insert(Tuple{Value::String("Carla"), Value::String("Ciao")});
  DescribeResult("join(d)", NaturalJoin(contacts, texts).ValueOrDie());
  // (e) assignment realizes `text`.
  DescribeResult(
      "assign(e)",
      AssignConstant(contacts, "text", Value::String("Bonjour!"))
          .ValueOrDie());
  // (f) invocation realizes checkPhoto's outputs, eliminating its pattern.
  InvokeOptions options;
  options.instant = 1;
  DescribeResult(
      "invoke(f)",
      Invoke(cameras, *cameras.schema().FindBindingPattern("checkPhoto"),
             &env.registry(), options)
          .ValueOrDie());
}

// ---------------------------------------------------------------------------
// Throughput benchmarks.
// ---------------------------------------------------------------------------

ExtendedSchemaPtr FlatSchema() {
  static ExtendedSchemaPtr schema =
      ExtendedSchema::Create(
          "flat", {{"id", DataType::kInt},
                   {"grp", DataType::kInt},
                   {"name", DataType::kString},
                   {"score", DataType::kReal},
                   {"note", DataType::kString, AttributeKind::kVirtual}})
          .ValueOrDie();
  return schema;
}

XRelation MakeFlat(std::int64_t n, std::uint64_t seed = 11) {
  XRelation relation(FlatSchema());
  Rng rng(seed);
  for (std::int64_t i = 0; i < n; ++i) {
    (void)relation.InsertUnchecked(
        Tuple{Value::Int(i), Value::Int(rng.NextInt(0, 99)),
              Value::String("n" + std::to_string(i % 1000)),
              Value::Real(rng.NextDouble() * 100.0)});
  }
  return relation;
}

void BM_Project(benchmark::State& state) {
  const XRelation input = MakeFlat(state.range(0));
  for (auto _ : state) {
    auto result = Project(input, {"id", "name"});
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Project)->Arg(100)->Arg(10000)->Arg(100000);

void BM_Select(benchmark::State& state) {
  const XRelation input = MakeFlat(state.range(0));
  FormulaPtr f = Formula::Compare(Operand::Attr("score"), CompareOp::kLt,
                                  Operand::Const(Value::Real(50.0)));
  for (auto _ : state) {
    auto result = Select(input, f);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Select)->Arg(100)->Arg(10000)->Arg(100000);

void BM_NaturalJoin(benchmark::State& state) {
  const XRelation left = MakeFlat(state.range(0), 11);
  auto right_schema =
      ExtendedSchema::Create("groups", {{"grp", DataType::kInt},
                                        {"label", DataType::kString}})
          .ValueOrDie();
  XRelation right(right_schema);
  for (int g = 0; g < 100; ++g) {
    (void)right.InsertUnchecked(
        Tuple{Value::Int(g), Value::String("g" + std::to_string(g))});
  }
  for (auto _ : state) {
    auto result = NaturalJoin(left, right);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NaturalJoin)->Arg(100)->Arg(10000)->Arg(100000);

void BM_Assign(benchmark::State& state) {
  const XRelation input = MakeFlat(state.range(0));
  for (auto _ : state) {
    auto result = AssignConstant(input, "note", Value::String("x"));
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Assign)->Arg(100)->Arg(10000)->Arg(100000);

void BM_Union(benchmark::State& state) {
  const XRelation a = MakeFlat(state.range(0), 11);
  const XRelation b = MakeFlat(state.range(0), 22);
  for (auto _ : state) {
    auto result = Union(a, b);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 2);
}
BENCHMARK(BM_Union)->Arg(100)->Arg(10000);

void BM_Invoke(benchmark::State& state) {
  // One synthetic sensor per tuple; measures the full invocation path
  // including registry lookup and per-instant memoization.
  TemperatureScenarioOptions options;
  options.extra_sensors = static_cast<int>(state.range(0));
  auto scenario = TemperatureScenario::Build(options).MoveValueOrDie();
  const XRelation& sensors =
      *scenario->env().GetRelation("sensors").ValueOrDie();
  const BindingPattern& bp = sensors.schema().binding_patterns()[0];
  Timestamp instant = 0;
  for (auto _ : state) {
    InvokeOptions invoke_options;
    invoke_options.instant = ++instant;  // Fresh instant: no memo hits.
    auto result =
        Invoke(sensors, bp, &scenario->env().registry(), invoke_options);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * (state.range(0) + 4));
}
BENCHMARK(BM_Invoke)->Arg(16)->Arg(256)->Arg(4096);

void BM_Aggregate(benchmark::State& state) {
  const XRelation input = MakeFlat(state.range(0));
  for (auto _ : state) {
    auto result = Aggregate(input, {"grp"},
                            {{AggregateFn::kAvg, "score", "mean"},
                             {AggregateFn::kCount, "", "n"}});
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Aggregate)->Arg(100)->Arg(10000)->Arg(100000);

/// γ over a keyed ⋈ with one hot key, the shape of the firehose
/// workload's zone_stress query: `watts` (110 rows, all in area 'roof')
/// joins `temps` (880 rows over 8 areas, 110 of them 'roof') into 12,100
/// pairs, which one group counts and sums. Items are pairs.
constexpr std::int64_t kHotKeyPairs = 110 * 110;

XRelation HotKeyWatts() {
  XRelation watts(ExtendedSchema::Create("watts", {{"area", DataType::kString},
                                                   {"watts", DataType::kReal}})
                      .ValueOrDie());
  for (int i = 0; i < 110; ++i) {
    (void)watts.InsertUnchecked(
        Tuple{Value::String("roof"), Value::Real(0.5 * i + 0.25)});
  }
  return watts;
}

XRelation HotKeyTemps() {
  static constexpr const char* kAreas[] = {"roof", "office", "lab",
                                           "hall", "lobby",  "garage",
                                           "attic", "kitchen"};
  XRelation temps(ExtendedSchema::Create("temps", {{"area", DataType::kString},
                                                   {"temp", DataType::kReal}})
                      .ValueOrDie());
  for (int i = 0; i < 880; ++i) {
    (void)temps.InsertUnchecked(
        Tuple{Value::String(kAreas[i % 8]), Value::Real(20.0 + 0.01 * i)});
  }
  return temps;
}

const std::vector<AggregateSpec>& HotKeyAggregates() {
  static const std::vector<AggregateSpec> aggregates = {
      {AggregateFn::kCount, "", "n"},
      {AggregateFn::kSum, "watts", "total_watts"}};
  return aggregates;
}

/// Through `Execute`: the vectorized core folds each pair into γ without
/// merging it (under SERENA_VECTORIZE=off the scalar path runs instead).
void BM_AggregateOverJoin(benchmark::State& state) {
  auto scenario = TemperatureScenario::Build().MoveValueOrDie();
  (void)scenario->env().PutRelation(HotKeyWatts());
  (void)scenario->env().PutRelation(HotKeyTemps());
  const PlanPtr plan = Aggregate(Join(Scan("watts"), Scan("temps")), {"area"},
                                 HotKeyAggregates());
  for (auto _ : state) {
    auto result = Execute(plan, &scenario->env(), &scenario->streams(), 1);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * kHotKeyPairs);
}
BENCHMARK(BM_AggregateOverJoin);

/// The scalar operators on the same data: the join materializes every
/// merged pair, then γ folds the relation.
void BM_AggregateOverJoinScalar(benchmark::State& state) {
  const XRelation watts = HotKeyWatts();
  const XRelation temps = HotKeyTemps();
  for (auto _ : state) {
    auto result = Aggregate(NaturalJoin(watts, temps).ValueOrDie(), {"area"},
                            HotKeyAggregates());
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * kHotKeyPairs);
}
BENCHMARK(BM_AggregateOverJoinScalar);

void BM_InvokeMemoized(benchmark::State& state) {
  TemperatureScenarioOptions options;
  options.extra_sensors = static_cast<int>(state.range(0));
  auto scenario = TemperatureScenario::Build(options).MoveValueOrDie();
  const XRelation& sensors =
      *scenario->env().GetRelation("sensors").ValueOrDie();
  const BindingPattern& bp = sensors.schema().binding_patterns()[0];
  InvokeOptions invoke_options;
  invoke_options.instant = 1;  // Same instant: memoized after 1st round.
  for (auto _ : state) {
    auto result =
        Invoke(sensors, bp, &scenario->env().registry(), invoke_options);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * (state.range(0) + 4));
}
BENCHMARK(BM_InvokeMemoized)->Arg(16)->Arg(256)->Arg(4096);

}  // namespace
}  // namespace serena

int main(int argc, char** argv) {
  return serena::bench::RunReproAndBenchmarks(
      argc, argv, [] { serena::ReproduceTable3(); });
}
