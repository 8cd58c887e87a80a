#include "algebra/formula.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "ddl/algebra_parser.h"
#include "ddl/ddl_parser.h"

namespace serena {
namespace {

ExtendedSchemaPtr Schema() {
  return ExtendedSchema::Create(
             "t", {{"i", DataType::kInt},
                   {"r", DataType::kReal},
                   {"s", DataType::kString},
                   {"b", DataType::kBool},
                   {"v", DataType::kString, AttributeKind::kVirtual}})
      .ValueOrDie();
}

Tuple Row(std::int64_t i, double r, const char* s, bool b) {
  return Tuple{Value::Int(i), Value::Real(r), Value::String(s),
               Value::Bool(b)};
}

TEST(FormulaTest, ComparisonSemantics) {
  auto schema = Schema();
  const Tuple row = Row(5, 2.5, "abc", true);
  struct Case {
    const char* text;
    bool expected;
  };
  const Case cases[] = {
      {"i = 5", true},        {"i != 5", false},
      {"i < 6", true},        {"i <= 5", true},
      {"i > 5", false},       {"i >= 6", false},
      {"i = r", false},       {"i > r", true},
      {"r = 2.5", true},      {"s = 'abc'", true},
      {"s < 'abd'", true},    {"s contains 'bc'", true},
      {"s contains 'x'", false},
      {"b = true", true},     {"i = -5", false},
  };
  for (const Case& c : cases) {
    FormulaPtr f = ParseFormula(c.text).ValueOrDie();
    ASSERT_TRUE(f->Validate(*schema).ok()) << c.text;
    EXPECT_EQ(f->Evaluate(*schema, row).ValueOrDie(), c.expected) << c.text;
  }
}

TEST(FormulaTest, ConnectivesShortCircuitCorrectly) {
  auto schema = Schema();
  const Tuple row = Row(5, 2.5, "abc", true);
  EXPECT_TRUE(ParseFormula("i = 5 and s = 'abc'")
                  .ValueOrDie()
                  ->Evaluate(*schema, row)
                  .ValueOrDie());
  EXPECT_FALSE(ParseFormula("i = 5 and s = 'x'")
                   .ValueOrDie()
                   ->Evaluate(*schema, row)
                   .ValueOrDie());
  EXPECT_TRUE(ParseFormula("i = 9 or s = 'abc'")
                  .ValueOrDie()
                  ->Evaluate(*schema, row)
                  .ValueOrDie());
  EXPECT_TRUE(ParseFormula("not i = 9")
                  .ValueOrDie()
                  ->Evaluate(*schema, row)
                  .ValueOrDie());
}

TEST(FormulaTest, ValidateRejectsVirtualAndMissing) {
  auto schema = Schema();
  EXPECT_FALSE(
      ParseFormula("v = 'x'").ValueOrDie()->Validate(*schema).ok());
  EXPECT_FALSE(
      ParseFormula("ghost = 1").ValueOrDie()->Validate(*schema).ok());
  EXPECT_TRUE(ParseFormula("i = 1 and r > 0")
                  .ValueOrDie()
                  ->Validate(*schema)
                  .ok());
}

TEST(FormulaTest, TypeErrorsOnOrdering) {
  auto schema = Schema();
  const Tuple row = Row(5, 2.5, "abc", true);
  // Ordering across string/int is a type error; equality is just false.
  EXPECT_FALSE(
      ParseFormula("s < 5").ValueOrDie()->Evaluate(*schema, row).ok());
  EXPECT_FALSE(ParseFormula("s contains 5")
                   .ValueOrDie()
                   ->Evaluate(*schema, row)
                   .ok());
  EXPECT_FALSE(
      ParseFormula("s = 5").ValueOrDie()->Evaluate(*schema, row)
          .ValueOrDie());
}

TEST(FormulaTest, CollectAttributesAndReferences) {
  FormulaPtr f =
      ParseFormula("i = 1 and (s = 'x' or not r > 2)").ValueOrDie();
  std::set<std::string> attrs;
  f->CollectAttributes(&attrs);
  EXPECT_EQ(attrs, (std::set<std::string>{"i", "s", "r"}));
  EXPECT_TRUE(FormulaReferences(*f, "s"));
  EXPECT_FALSE(FormulaReferences(*f, "b"));

  // ReadsOnlyRealOf: every attribute read must be real; parameters and
  // constants do not count (an unbound :param still places).
  auto schema = Schema();
  EXPECT_TRUE(ReadsOnlyRealOf(*f, *schema));
  EXPECT_FALSE(ReadsOnlyRealOf(
      *ParseFormula("i = 1 and v = 'x'").ValueOrDie(), *schema));
  EXPECT_FALSE(ReadsOnlyRealOf(*ParseFormula("missing = 1").ValueOrDie(),
                               *schema));
  FormulaPtr parameterized = ParseFormula("i = :limit").ValueOrDie();
  EXPECT_FALSE(parameterized->Validate(*schema).ok());
  EXPECT_TRUE(ReadsOnlyRealOf(*parameterized, *schema));
}

TEST(FormulaTest, SplitAndCombineConjuncts) {
  FormulaPtr f =
      ParseFormula("i = 1 and s = 'x' and r > 2").ValueOrDie();
  const auto conjuncts = SplitConjuncts(f);
  ASSERT_EQ(conjuncts.size(), 3u);
  EXPECT_EQ(conjuncts[0]->ToString(), "i = 1");
  EXPECT_EQ(conjuncts[2]->ToString(), "r > 2");
  // Disjunction is a single conjunct.
  FormulaPtr g = ParseFormula("i = 1 or s = 'x'").ValueOrDie();
  EXPECT_EQ(SplitConjuncts(g).size(), 1u);
  // Recombination preserves semantics structurally.
  FormulaPtr combined = CombineConjuncts(conjuncts);
  EXPECT_TRUE(combined->Equals(*f));
  EXPECT_EQ(CombineConjuncts({}), nullptr);
  EXPECT_TRUE(SplitConjuncts(nullptr).empty());
}

TEST(FormulaTest, WithRenamedAttribute) {
  FormulaPtr f =
      ParseFormula("area = 'office' and not (area contains 'x' or i = "
                   "1)")
          .ValueOrDie();
  FormulaPtr renamed = f->WithRenamedAttribute("area", "location");
  EXPECT_EQ(renamed->ToString(),
            "(location = 'office' and not ((location contains 'x' or i = "
            "1)))");
  // Untouched formula unchanged (immutability).
  EXPECT_NE(f->ToString().find("area"), std::string::npos);
}

TEST(FormulaTest, EqualsIsStructural) {
  FormulaPtr a = ParseFormula("i = 1 and s = 'x'").ValueOrDie();
  FormulaPtr b = ParseFormula("i = 1 and s = 'x'").ValueOrDie();
  FormulaPtr c = ParseFormula("s = 'x' and i = 1").ValueOrDie();
  EXPECT_TRUE(a->Equals(*b));
  EXPECT_FALSE(a->Equals(*c));  // Structural, not semantic.
}

/// Parser robustness sweep: mutated inputs must never crash — they parse
/// or fail with ParseError.
class ParserRobustnessTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ParserRobustnessTest, MutatedAlgebraNeverCrashes) {
  const std::string base =
      "project[photo](invoke[takePhoto](select[quality >= 5 and area = "
      "'office'](assign[quality := 5](cameras))))";
  Rng rng(GetParam());
  for (int round = 0; round < 50; ++round) {
    std::string mutated = base;
    const int mutations = 1 + static_cast<int>(rng.NextBounded(4));
    for (int m = 0; m < mutations; ++m) {
      const std::size_t pos = rng.NextBounded(mutated.size());
      switch (rng.NextBounded(3)) {
        case 0:
          mutated[pos] = static_cast<char>(32 + rng.NextBounded(95));
          break;
        case 1:
          mutated.erase(pos, 1);
          break;
        default:
          mutated.insert(pos, 1,
                         static_cast<char>(32 + rng.NextBounded(95)));
          break;
      }
      if (mutated.empty()) mutated = "x";
    }
    auto plan = ParseAlgebra(mutated);
    if (!plan.ok()) {
      EXPECT_EQ(plan.status().code(), StatusCode::kParseError) << mutated;
    }
  }
}

TEST_P(ParserRobustnessTest, MutatedDdlNeverCrashes) {
  const std::string base =
      "PROTOTYPE checkPhoto(area STRING) : (quality INTEGER, delay REAL); "
      "EXTENDED RELATION cameras (camera SERVICE, area STRING, quality "
      "INTEGER VIRTUAL, delay REAL VIRTUAL) USING BINDING PATTERNS ("
      "checkPhoto[camera](area) : (quality, delay));";
  Rng rng(GetParam() ^ 0x9999);
  for (int round = 0; round < 50; ++round) {
    std::string mutated = base;
    const std::size_t pos = rng.NextBounded(mutated.size());
    mutated[pos] = static_cast<char>(32 + rng.NextBounded(95));
    auto statements = ParseDdl(mutated);
    if (!statements.ok()) {
      EXPECT_EQ(statements.status().code(), StatusCode::kParseError)
          << mutated;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserRobustnessTest,
                         ::testing::Range<std::uint64_t>(0, 8));

}  // namespace
}  // namespace serena
