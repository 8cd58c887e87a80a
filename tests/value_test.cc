#include "types/value.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "types/tuple.h"

namespace serena {
namespace {

TEST(ValueTest, FactoriesAndAccessors) {
  EXPECT_TRUE(Value::Bool(true).bool_value());
  EXPECT_EQ(Value::Int(-42).int_value(), -42);
  EXPECT_DOUBLE_EQ(Value::Real(3.5).real_value(), 3.5);
  EXPECT_EQ(Value::String("x").string_value(), "x");
  EXPECT_EQ(Value::BlobValue(Blob{1, 2, 3}).blob_value().size(), 3u);
}

TEST(ValueTest, TypeTags) {
  EXPECT_EQ(Value::Bool(true).type(), DataType::kBool);
  EXPECT_EQ(Value::Int(1).type(), DataType::kInt);
  EXPECT_EQ(Value::Real(1.0).type(), DataType::kReal);
  EXPECT_EQ(Value::String("s").type(), DataType::kString);
  EXPECT_EQ(Value::BlobValue({}).type(), DataType::kBlob);
  EXPECT_TRUE(Value::Int(1).is_numeric());
  EXPECT_TRUE(Value::Real(1.0).is_numeric());
  EXPECT_FALSE(Value::String("1").is_numeric());
}

TEST(ValueTest, NumericCrossTypeEquality) {
  EXPECT_EQ(Value::Int(2), Value::Real(2.0));
  EXPECT_NE(Value::Int(2), Value::Real(2.5));
  EXPECT_NE(Value::Int(2), Value::String("2"));
  EXPECT_NE(Value::Bool(true), Value::Int(1));
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value::Int(2).Hash(), Value::Real(2.0).Hash());
  EXPECT_EQ(Value::Real(-0.0).Hash(), Value::Real(0.0).Hash());
  EXPECT_EQ(Value::Real(-0.0), Value::Real(0.0));
  EXPECT_EQ(Value::String("abc").Hash(), Value::String("abc").Hash());
  EXPECT_NE(Value::String("abc").Hash(), Value::String("abd").Hash());
}

TEST(ValueTest, Ordering) {
  // Within types.
  EXPECT_LT(Value::Int(1), Value::Int(2));
  EXPECT_LT(Value::Int(1), Value::Real(1.5));
  EXPECT_LT(Value::String("a"), Value::String("b"));
  EXPECT_LT(Value::Bool(false), Value::Bool(true));
  // Cross-type rank: bool < numeric < string < blob.
  EXPECT_LT(Value::Bool(true), Value::Int(0));
  EXPECT_LT(Value::Int(999), Value::String(""));
  EXPECT_LT(Value::String("zzz"), Value::BlobValue({}));
}

TEST(ValueTest, ConformsToAndCoerce) {
  EXPECT_TRUE(Value::Int(1).ConformsTo(DataType::kInt));
  EXPECT_TRUE(Value::Int(1).ConformsTo(DataType::kReal));  // Widening.
  EXPECT_FALSE(Value::Real(1.0).ConformsTo(DataType::kInt));
  EXPECT_TRUE(Value::String("svc").ConformsTo(DataType::kService));
  EXPECT_FALSE(Value::Bool(true).ConformsTo(DataType::kString));
  const Value widened = Value::Int(3).CoerceTo(DataType::kReal);
  EXPECT_TRUE(widened.is_real());
  EXPECT_DOUBLE_EQ(widened.real_value(), 3.0);
  // Coercion elsewhere is identity.
  EXPECT_TRUE(Value::String("x").CoerceTo(DataType::kBlob).is_string());
}

TEST(ValueTest, ToStringForms) {
  EXPECT_EQ(Value::Bool(false).ToString(), "false");
  EXPECT_EQ(Value::Int(7).ToString(), "7");
  EXPECT_EQ(Value::Real(35.5).ToString(), "35.5");
  EXPECT_EQ(Value::String("hi").ToString(), "'hi'");
  EXPECT_EQ(Value::BlobValue(Blob(10)).ToString(), "<blob:10>");
}

TEST(ValueTest, ParseLiterals) {
  EXPECT_EQ(ParseValueLiteral("true", DataType::kBool).ValueOrDie(),
            Value::Bool(true));
  EXPECT_EQ(ParseValueLiteral("-12", DataType::kInt).ValueOrDie(),
            Value::Int(-12));
  EXPECT_EQ(ParseValueLiteral("35.5", DataType::kReal).ValueOrDie(),
            Value::Real(35.5));
  EXPECT_EQ(ParseValueLiteral("'quoted'", DataType::kString).ValueOrDie(),
            Value::String("quoted"));
  EXPECT_EQ(ParseValueLiteral("bare", DataType::kString).ValueOrDie(),
            Value::String("bare"));
  EXPECT_FALSE(ParseValueLiteral("notanint", DataType::kInt).ok());
  EXPECT_FALSE(ParseValueLiteral("maybe", DataType::kBool).ok());
  EXPECT_FALSE(ParseValueLiteral("", DataType::kString).ok());
  EXPECT_FALSE(ParseValueLiteral("'unterminated", DataType::kString).ok());
  EXPECT_FALSE(ParseValueLiteral("x", DataType::kBlob).ok());
}

TEST(TupleTest, ProjectConcatAndCompare) {
  Tuple t{Value::Int(1), Value::String("a"), Value::Real(2.5)};
  EXPECT_EQ(t.size(), 3u);
  Tuple p = t.Project({2, 0});
  EXPECT_EQ(p, (Tuple{Value::Real(2.5), Value::Int(1)}));
  Tuple c = t.Concat(Tuple{Value::Bool(true)});
  EXPECT_EQ(c.size(), 4u);
  EXPECT_EQ(c[3], Value::Bool(true));
  EXPECT_LT((Tuple{Value::Int(1)}), (Tuple{Value::Int(2)}));
  EXPECT_LT((Tuple{Value::Int(1)}), (Tuple{Value::Int(1), Value::Int(0)}));
  EXPECT_EQ(t.ToString(), "(1, 'a', 2.5)");
}

TEST(TupleTest, HashConsistency) {
  Tuple a{Value::Int(2), Value::String("x")};
  Tuple b{Value::Real(2.0), Value::String("x")};
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
  Tuple c{Value::String("x"), Value::Int(2)};  // Order matters.
  EXPECT_NE(a, c);
}

TEST(TupleTest, ProjectedKeyHashesAndComparesInPlace) {
  const Tuple t{Value::Int(2), Value::String("x"), Value::Real(-0.0),
                Value::Bool(true)};
  for (const std::vector<std::size_t>& coords :
       std::vector<std::vector<std::size_t>>{
           {}, {0}, {1, 0}, {2}, {3, 1, 2, 0}, {1, 1}}) {
    const Tuple key = t.Project(coords);
    std::vector<std::size_t> whole(key.size());
    std::iota(whole.begin(), whole.end(), 0);
    EXPECT_EQ(t.ProjectedHash(coords), key.Hash());
    EXPECT_TRUE(t.ProjectedEquals(coords, key, whole));
    EXPECT_TRUE(key.ProjectedEquals(whole, t, coords));
  }
  // Equality is the tuples': numerically equal keys match, others don't.
  EXPECT_TRUE(t.ProjectedEquals(
      {0, 2}, Tuple{Value::String("y"), Value::Real(2.0), Value::Int(0)},
      {1, 2}));
  EXPECT_FALSE(t.ProjectedEquals({0}, Tuple{Value::Int(3)}, {0}));
  EXPECT_FALSE(
      t.ProjectedEquals({0}, Tuple{Value::Int(2), Value::Int(0)}, {0, 1}));
  const Tuple nan{Value::Real(std::nan(""))};
  EXPECT_FALSE(nan.ProjectedEquals({0}, nan, {0}));
}

TEST(DataTypeTest, Roundtrip) {
  for (DataType type :
       {DataType::kBool, DataType::kInt, DataType::kReal, DataType::kString,
        DataType::kBlob, DataType::kService}) {
    EXPECT_EQ(DataTypeFromString(DataTypeToString(type)).ValueOrDie(), type);
  }
  EXPECT_EQ(DataTypeFromString("int").ValueOrDie(), DataType::kInt);
  EXPECT_EQ(DataTypeFromString("Double").ValueOrDie(), DataType::kReal);
  EXPECT_FALSE(DataTypeFromString("tensor").ok());
}

TEST(DataTypeTest, Assignability) {
  EXPECT_TRUE(IsAssignableTo(DataType::kInt, DataType::kReal));
  EXPECT_FALSE(IsAssignableTo(DataType::kReal, DataType::kInt));
  EXPECT_TRUE(IsAssignableTo(DataType::kString, DataType::kService));
  EXPECT_TRUE(IsAssignableTo(DataType::kService, DataType::kString));
  EXPECT_FALSE(IsAssignableTo(DataType::kBool, DataType::kInt));
}

}  // namespace
}  // namespace serena
