#include "algebra/operators.h"

#include <gtest/gtest.h>

#include <cmath>

#include "algebra/join_table.h"
#include "env/prototypes.h"

namespace serena {
namespace {

/// Builds the contacts X-Relation of Example 4, populated.
XRelation MakeContacts() {
  auto schema =
      ExtendedSchema::Create(
          "contacts",
          {{"name", DataType::kString},
           {"address", DataType::kString},
           {"text", DataType::kString, AttributeKind::kVirtual},
           {"messenger", DataType::kService},
           {"sent", DataType::kBool, AttributeKind::kVirtual}},
          {BindingPattern(MakeSendMessagePrototype(), "messenger")})
          .ValueOrDie();
  XRelation r(schema);
  r.Insert(Tuple{Value::String("Nicolas"), Value::String("nicolas@elysee.fr"),
                 Value::String("email")})
      .ValueOrDie();
  r.Insert(Tuple{Value::String("Carla"), Value::String("carla@elysee.fr"),
                 Value::String("email")})
      .ValueOrDie();
  r.Insert(Tuple{Value::String("Francois"),
                 Value::String("francois@im.gouv.fr"),
                 Value::String("jabber")})
      .ValueOrDie();
  return r;
}

XRelation MakeCameras() {
  auto schema =
      ExtendedSchema::Create(
          "cameras",
          {{"camera", DataType::kService},
           {"area", DataType::kString},
           {"quality", DataType::kInt, AttributeKind::kVirtual},
           {"delay", DataType::kReal, AttributeKind::kVirtual},
           {"photo", DataType::kBlob, AttributeKind::kVirtual}},
          {BindingPattern(MakeCheckPhotoPrototype(), "camera"),
           BindingPattern(MakeTakePhotoPrototype(), "camera")})
          .ValueOrDie();
  XRelation r(schema);
  r.Insert(Tuple{Value::String("camera01"), Value::String("office")})
      .ValueOrDie();
  r.Insert(Tuple{Value::String("camera02"), Value::String("corridor")})
      .ValueOrDie();
  r.Insert(Tuple{Value::String("webcam07"), Value::String("roof")})
      .ValueOrDie();
  return r;
}

// ---------------------------------------------------------------------------
// Set operators
// ---------------------------------------------------------------------------

TEST(SetOpsTest, UnionIntersectDifference) {
  XRelation a = MakeContacts();
  XRelation b(a.schema_ptr());
  b.Insert(Tuple{Value::String("Carla"), Value::String("carla@elysee.fr"),
                 Value::String("email")})
      .ValueOrDie();
  b.Insert(Tuple{Value::String("Angela"), Value::String("angela@bund.de"),
                 Value::String("sms")})
      .ValueOrDie();

  XRelation u = Union(a, b).ValueOrDie();
  EXPECT_EQ(u.size(), 4u);  // 3 + 2 with Carla deduplicated.

  XRelation i = Intersect(a, b).ValueOrDie();
  EXPECT_EQ(i.size(), 1u);

  XRelation d = Difference(a, b).ValueOrDie();
  EXPECT_EQ(d.size(), 2u);  // Nicolas, Francois.
  XRelation d2 = Difference(b, a).ValueOrDie();
  EXPECT_EQ(d2.size(), 1u);  // Angela.
}

TEST(SetOpsTest, SchemaMismatchRejected) {
  XRelation contacts = MakeContacts();
  XRelation cameras = MakeCameras();
  EXPECT_FALSE(Union(contacts, cameras).ok());
  EXPECT_FALSE(Intersect(contacts, cameras).ok());
  EXPECT_FALSE(Difference(contacts, cameras).ok());
}

TEST(SetOpsTest, ResultKeepsBindingPatterns) {
  XRelation a = MakeContacts();
  XRelation b(a.schema_ptr());
  XRelation u = Union(a, b).ValueOrDie();
  EXPECT_EQ(u.schema().binding_patterns().size(), 1u);
  EXPECT_NE(u.schema().FindBindingPattern("sendMessage"), nullptr);
}

// ---------------------------------------------------------------------------
// Projection (Table 3 (a))
// ---------------------------------------------------------------------------

TEST(ProjectTest, ReducesRealAndVirtualSchema) {
  XRelation contacts = MakeContacts();
  XRelation r = Project(contacts, {"name", "messenger", "text"}).ValueOrDie();
  EXPECT_EQ(r.schema().RealNames(),
            (std::vector<std::string>{"name", "messenger"}));
  EXPECT_EQ(r.schema().VirtualNames(), (std::vector<std::string>{"text"}));
  EXPECT_EQ(r.size(), 3u);
  // Binding pattern dropped: `address` (an input) was projected away.
  EXPECT_TRUE(r.schema().binding_patterns().empty());
}

TEST(ProjectTest, KeepsValidBindingPattern) {
  XRelation contacts = MakeContacts();
  // Keep everything sendMessage needs: service attr + inputs + outputs.
  XRelation r =
      Project(contacts, {"address", "text", "messenger", "sent"})
          .ValueOrDie();
  ASSERT_EQ(r.schema().binding_patterns().size(), 1u);
  EXPECT_EQ(r.schema().binding_patterns()[0].prototype().name(),
            "sendMessage");
}

TEST(ProjectTest, ProjectionCanCollapseTuples) {
  XRelation contacts = MakeContacts();
  XRelation r = Project(contacts, {"messenger"}).ValueOrDie();
  // Nicolas and Carla both use email: set semantics collapse them.
  EXPECT_EQ(r.size(), 2u);
}

TEST(ProjectTest, UnknownAttributeRejected) {
  XRelation contacts = MakeContacts();
  EXPECT_FALSE(Project(contacts, {"name", "nope"}).ok());
}

TEST(ProjectTest, ProjectionOrderFollowsSchemaOrder) {
  XRelation contacts = MakeContacts();
  // Request in scrambled order; schema order prevails (attr_R numbering).
  XRelation r = Project(contacts, {"messenger", "name"}).ValueOrDie();
  EXPECT_EQ(r.schema().AllNames(),
            (std::vector<std::string>{"name", "messenger"}));
}

// ---------------------------------------------------------------------------
// Selection (Table 3 (b))
// ---------------------------------------------------------------------------

TEST(SelectTest, FiltersTuples) {
  XRelation contacts = MakeContacts();
  FormulaPtr f = Formula::Compare(Operand::Attr("messenger"), CompareOp::kEq,
                                  Operand::Const(Value::String("email")));
  XRelation r = Select(contacts, f).ValueOrDie();
  EXPECT_EQ(r.size(), 2u);
  EXPECT_TRUE(r.schema().SameAttributes(contacts.schema()));
}

TEST(SelectTest, VirtualAttributeInFormulaRejected) {
  XRelation contacts = MakeContacts();
  FormulaPtr f = Formula::Compare(Operand::Attr("text"), CompareOp::kEq,
                                  Operand::Const(Value::String("x")));
  EXPECT_FALSE(Select(contacts, f).ok());
}

TEST(SelectTest, ComplexFormula) {
  XRelation contacts = MakeContacts();
  // messenger = 'email' AND NOT name = 'Carla'.
  FormulaPtr f = Formula::And(
      Formula::Compare(Operand::Attr("messenger"), CompareOp::kEq,
                       Operand::Const(Value::String("email"))),
      Formula::Not(Formula::Compare(Operand::Attr("name"), CompareOp::kEq,
                                    Operand::Const(Value::String("Carla")))));
  XRelation r = Select(contacts, f).ValueOrDie();
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.ProjectValue(r.tuples()[0], "name").ValueOrDie(),
            Value::String("Nicolas"));
}

TEST(SelectTest, OrderingOnStringsAndNumbers) {
  XRelation contacts = MakeContacts();
  FormulaPtr f = Formula::Compare(Operand::Attr("name"), CompareOp::kLt,
                                  Operand::Const(Value::String("D")));
  XRelation r = Select(contacts, f).ValueOrDie();
  EXPECT_EQ(r.size(), 1u);  // Only "Carla" < "D".
}

TEST(SelectTest, ContainsPredicate) {
  XRelation contacts = MakeContacts();
  FormulaPtr f =
      Formula::Compare(Operand::Attr("address"), CompareOp::kContains,
                       Operand::Const(Value::String("elysee")));
  XRelation r = Select(contacts, f).ValueOrDie();
  EXPECT_EQ(r.size(), 2u);
}

// ---------------------------------------------------------------------------
// Renaming (Table 3 (c))
// ---------------------------------------------------------------------------

TEST(RenameTest, RenamesAttributeKeepingKind) {
  XRelation cameras = MakeCameras();
  XRelation r = Rename(cameras, "area", "zone").ValueOrDie();
  EXPECT_TRUE(r.schema().Contains("zone"));
  EXPECT_FALSE(r.schema().Contains("area"));
  EXPECT_TRUE(r.schema().IsReal("zone"));
  EXPECT_EQ(r.size(), 3u);
  // checkPhoto/takePhoto need input `area`, which is gone: both dropped.
  EXPECT_TRUE(r.schema().binding_patterns().empty());
}

TEST(RenameTest, ServiceAttributeRenameFollowsBindingPattern) {
  XRelation cameras = MakeCameras();
  XRelation r = Rename(cameras, "camera", "device").ValueOrDie();
  ASSERT_EQ(r.schema().binding_patterns().size(), 2u);
  EXPECT_EQ(r.schema().binding_patterns()[0].service_attribute(), "device");
  EXPECT_EQ(r.schema().binding_patterns()[1].service_attribute(), "device");
}

TEST(RenameTest, RejectsCollisionAndMissing) {
  XRelation cameras = MakeCameras();
  EXPECT_FALSE(Rename(cameras, "area", "camera").ok());  // Collision.
  EXPECT_FALSE(Rename(cameras, "nope", "x").ok());       // Missing.
}

TEST(RenameTest, VirtualAttributeRenameDropsPattern) {
  XRelation cameras = MakeCameras();
  // `photo` is takePhoto's output; renaming it invalidates that pattern
  // but keeps checkPhoto.
  XRelation r = Rename(cameras, "photo", "picture").ValueOrDie();
  EXPECT_TRUE(r.schema().IsVirtual("picture"));
  ASSERT_EQ(r.schema().binding_patterns().size(), 1u);
  EXPECT_EQ(r.schema().binding_patterns()[0].prototype().name(),
            "checkPhoto");
}

// ---------------------------------------------------------------------------
// Natural join (Table 3 (d))
// ---------------------------------------------------------------------------

TEST(JoinTest, JoinsOnCommonRealAttributes) {
  XRelation cameras = MakeCameras();
  auto areas_schema =
      ExtendedSchema::Create("zones", {{"area", DataType::kString},
                                       {"floor", DataType::kInt}})
          .ValueOrDie();
  XRelation zones(areas_schema);
  zones.Insert(Tuple{Value::String("office"), Value::Int(2)}).ValueOrDie();
  zones.Insert(Tuple{Value::String("roof"), Value::Int(5)}).ValueOrDie();

  XRelation joined = NaturalJoin(cameras, zones).ValueOrDie();
  EXPECT_EQ(joined.size(), 2u);  // corridor has no floor entry.
  EXPECT_EQ(joined.schema().AllNames(),
            (std::vector<std::string>{"camera", "area", "quality", "delay",
                                      "photo", "floor"}));
  // Patterns survive: their attributes are intact and outputs still virtual.
  EXPECT_EQ(joined.schema().binding_patterns().size(), 2u);
}

TEST(JoinTest, AllVirtualJoinAttributesMeanCartesianProduct) {
  XRelation cameras = MakeCameras();
  // Second relation shares only `quality`, virtual in cameras.
  auto schema = ExtendedSchema::Create("grades",
                                       {{"quality", DataType::kInt},
                                        {"grade", DataType::kString}})
                    .ValueOrDie();
  XRelation grades(schema);
  grades.Insert(Tuple{Value::Int(5), Value::String("ok")}).ValueOrDie();
  grades.Insert(Tuple{Value::Int(9), Value::String("great")}).ValueOrDie();

  XRelation joined = NaturalJoin(cameras, grades).ValueOrDie();
  // No join predicate: 3 cameras x 2 grades.
  EXPECT_EQ(joined.size(), 6u);
  // Implicit realization: quality became real (value from `grades`).
  EXPECT_TRUE(joined.schema().IsReal("quality"));
  // takePhoto's input quality is now real - fine; but checkPhoto's OUTPUT
  // quality became real: checkPhoto is eliminated.
  ASSERT_EQ(joined.schema().binding_patterns().size(), 1u);
  EXPECT_EQ(joined.schema().binding_patterns()[0].prototype().name(),
            "takePhoto");
}

TEST(JoinTest, RealOverridesVirtualInResultKind) {
  XRelation contacts = MakeContacts();
  auto schema = ExtendedSchema::Create("texts",
                                       {{"name", DataType::kString},
                                        {"text", DataType::kString}})
                    .ValueOrDie();
  XRelation texts(schema);
  texts.Insert(Tuple{Value::String("Carla"), Value::String("Ciao")})
      .ValueOrDie();

  XRelation joined = NaturalJoin(contacts, texts).ValueOrDie();
  ASSERT_EQ(joined.size(), 1u);
  EXPECT_TRUE(joined.schema().IsReal("text"));
  EXPECT_TRUE(joined.schema().IsVirtual("sent"));
  EXPECT_EQ(joined.ProjectValue(joined.tuples()[0], "text").ValueOrDie(),
            Value::String("Ciao"));
  // sendMessage survives: inputs address+text present, output sent virtual.
  EXPECT_EQ(joined.schema().binding_patterns().size(), 1u);
}

TEST(JoinTest, IncompatibleSharedTypesRejected) {
  auto s1 = ExtendedSchema::Create("a", {{"x", DataType::kInt}}).ValueOrDie();
  auto s2 =
      ExtendedSchema::Create("b", {{"x", DataType::kString}}).ValueOrDie();
  XRelation r1(s1);
  XRelation r2(s2);
  EXPECT_FALSE(NaturalJoin(r1, r2).ok());
}

TEST(JoinTest, IntJoinsWithRealByNumericEquality) {
  auto s1 = ExtendedSchema::Create("a", {{"x", DataType::kInt},
                                         {"tag", DataType::kString}})
                .ValueOrDie();
  auto s2 = ExtendedSchema::Create("b", {{"x", DataType::kReal},
                                         {"mark", DataType::kString}})
                .ValueOrDie();
  XRelation r1(s1);
  r1.Insert(Tuple{Value::Int(2), Value::String("two")}).ValueOrDie();
  XRelation r2(s2);
  r2.Insert(Tuple{Value::Real(2.0), Value::String("deux")}).ValueOrDie();
  XRelation joined = NaturalJoin(r1, r2).ValueOrDie();
  EXPECT_EQ(joined.size(), 1u);
  EXPECT_EQ(joined.schema().FindAttribute("x")->type, DataType::kReal);
}

// ---------------------------------------------------------------------------
// The join build table both cores share
// ---------------------------------------------------------------------------

/// The `tag` (coordinate 1) of every build row matching `probe` on
/// coordinate 0, in visit order.
std::vector<std::string> MatchTags(const JoinBuildTable& table,
                                   const Tuple& probe) {
  std::vector<std::string> tags;
  table.ForEachMatch(probe, {0}, [&tags](const Tuple& row) {
    tags.push_back(row[1].string_value());
  });
  return tags;
}

using Tags = std::vector<std::string>;

TEST(OperatorsJoinTableTest, DuplicateKeysComeOutNewestFirst) {
  const std::vector<Tuple> rows = {
      {Value::Int(1), Value::String("a")}, {Value::Int(2), Value::String("b")},
      {Value::Int(1), Value::String("c")}, {Value::Int(1), Value::String("d")},
      {Value::Int(2), Value::String("e")}};
  const std::vector<std::size_t> key = {0};
  const JoinBuildTable table(rows, key);
  EXPECT_EQ(MatchTags(table, {Value::Int(1)}), (Tags{"d", "c", "a"}));
  EXPECT_EQ(MatchTags(table, {Value::Int(2)}), (Tags{"e", "b"}));
  EXPECT_TRUE(MatchTags(table, {Value::Int(3)}).empty());

  // Many keys on two coordinates, far past the index's first growth:
  // every key still lists its rows newest first.
  std::vector<Tuple> many;
  for (int i = 0; i < 600; ++i) {
    many.push_back({Value::Int(i % 37), Value::String(i % 2 ? "odd" : "even"),
                    Value::Int(i)});
  }
  const std::vector<std::size_t> pair_key = {0, 1};
  const JoinBuildTable wide(many, pair_key);
  for (int k = 0; k < 37; ++k) {
    for (const char* parity : {"odd", "even"}) {
      std::vector<std::int64_t> seen;
      wide.ForEachMatch({Value::String(parity), Value::Int(k)}, {1, 0},
                        [&seen](const Tuple& row) {
                          seen.push_back(row[2].int_value());
                        });
      std::vector<std::int64_t> expected;
      for (int i = 599; i >= 0; --i) {
        if (i % 37 == k && (i % 2 == 1) == (parity[0] == 'o')) {
          expected.push_back(i);
        }
      }
      EXPECT_EQ(seen, expected) << "key " << k << " " << parity;
    }
  }
}

TEST(OperatorsJoinTableTest, IntAndRealKeysMatchAcrossKinds) {
  // A Real(2.0) build key matches an Int(2) probe and vice versa.
  const std::vector<Tuple> reals = {{Value::Real(2.0), Value::String("r")}};
  const std::vector<std::size_t> key = {0};
  const JoinBuildTable real_table(reals, key);
  EXPECT_EQ(MatchTags(real_table, {Value::Int(2)}), (Tags{"r"}));

  // Int(2) and Real(2.0) build keys are separate runs; a probe equal to
  // both gets their rows merged back into one newest-first sequence.
  const std::vector<Tuple> mixed = {{Value::Int(2), Value::String("a")},
                                    {Value::Real(2.0), Value::String("b")},
                                    {Value::Int(2), Value::String("c")},
                                    {Value::Real(-0.0), Value::String("d")},
                                    {Value::Real(2.0), Value::String("e")},
                                    {Value::Int(0), Value::String("f")}};
  const JoinBuildTable table(mixed, key);
  EXPECT_EQ(MatchTags(table, {Value::Int(2)}), (Tags{"e", "c", "b", "a"}));
  EXPECT_EQ(MatchTags(table, {Value::Real(2.0)}), (Tags{"e", "c", "b", "a"}));
  EXPECT_EQ(MatchTags(table, {Value::Real(0.0)}), (Tags{"f", "d"}));

  // Past 2^53 equality is not transitive across kinds: Real(2^53) equals
  // both Int(2^53) and Int(2^53 + 1), which differ. Every build row equal
  // to the probe key still matches.
  constexpr std::int64_t kBig = std::int64_t{1} << 53;
  const std::vector<Tuple> big = {
      {Value::Int(kBig), Value::String("a")},
      {Value::Int(kBig + 1), Value::String("b")},
      {Value::Real(static_cast<double>(kBig)), Value::String("c")}};
  const JoinBuildTable big_table(big, key);
  EXPECT_EQ(MatchTags(big_table, {Value::Int(kBig + 1)}), (Tags{"c", "b"}));
  EXPECT_EQ(MatchTags(big_table, {Value::Int(kBig)}), (Tags{"c", "a"}));
  EXPECT_EQ(MatchTags(big_table, {Value::Real(static_cast<double>(kBig))}),
            (Tags{"c", "b", "a"}));

  // Through NaturalJoin: the Real side is the build side (the smaller).
  auto s1 = ExtendedSchema::Create("a", {{"x", DataType::kInt},
                                         {"tag", DataType::kString}})
                .ValueOrDie();
  auto s2 = ExtendedSchema::Create("b", {{"x", DataType::kReal},
                                         {"mark", DataType::kString}})
                .ValueOrDie();
  XRelation r1(s1);
  r1.Insert(Tuple{Value::Int(2), Value::String("two")}).ValueOrDie();
  r1.Insert(Tuple{Value::Int(3), Value::String("three")}).ValueOrDie();
  XRelation r2(s2);
  r2.Insert(Tuple{Value::Real(2.0), Value::String("deux")}).ValueOrDie();
  const XRelation joined = NaturalJoin(r1, r2).ValueOrDie();
  ASSERT_EQ(joined.size(), 1u);
  // Side 1 supplies the shared attribute: the Int survives.
  EXPECT_TRUE(joined.tuples()[0][0].is_int());
}

TEST(OperatorsJoinTableTest, NanKeysNeverMatch) {
  const double nan = std::nan("");
  const std::vector<Tuple> rows = {{Value::Real(nan), Value::String("a")},
                                   {Value::Real(1.0), Value::String("b")},
                                   {Value::Real(nan), Value::String("c")}};
  const std::vector<std::size_t> key = {0};
  const JoinBuildTable table(rows, key);
  EXPECT_TRUE(MatchTags(table, {Value::Real(nan)}).empty());
  EXPECT_EQ(MatchTags(table, {Value::Real(1.0)}), (Tags{"b"}));

  auto schema = ExtendedSchema::Create("n", {{"k", DataType::kReal},
                                             {"tag", DataType::kString}})
                    .ValueOrDie();
  auto other = ExtendedSchema::Create("m", {{"k", DataType::kReal},
                                            {"mark", DataType::kString}})
                   .ValueOrDie();
  XRelation r1(schema);
  for (const Tuple& row : rows) r1.Insert(row).ValueOrDie();
  XRelation r2(other);
  r2.Insert(Tuple{Value::Real(nan), Value::String("x")}).ValueOrDie();
  r2.Insert(Tuple{Value::Real(1.0), Value::String("y")}).ValueOrDie();
  const XRelation joined = NaturalJoin(r1, r2).ValueOrDie();
  ASSERT_EQ(joined.size(), 1u);
  EXPECT_EQ(joined.tuples()[0][1], Value::String("b"));
}

TEST(OperatorsJoinTableTest, EmptyBuildSideMatchesNothing) {
  const std::vector<Tuple> rows;
  const std::vector<std::size_t> key = {0};
  const JoinBuildTable table(rows, key);
  EXPECT_TRUE(table.empty());
  EXPECT_TRUE(MatchTags(table, {Value::Int(1)}).empty());

  auto s1 = ExtendedSchema::Create("a", {{"x", DataType::kInt}}).ValueOrDie();
  auto s2 = ExtendedSchema::Create("b", {{"x", DataType::kInt},
                                         {"y", DataType::kString}})
                .ValueOrDie();
  XRelation r1(s1);
  r1.Insert(Tuple{Value::Int(1)}).ValueOrDie();
  const XRelation joined = NaturalJoin(r1, XRelation(s2)).ValueOrDie();
  EXPECT_TRUE(joined.empty());
  EXPECT_EQ(joined.schema().AllNames(),
            (std::vector<std::string>{"x", "y"}));
}

TEST(OperatorsJoinTableTest, CartesianProductKeepsOperandOrder) {
  // No shared attribute: no build table, every pair in r1-major order.
  auto s1 = ExtendedSchema::Create("a", {{"x", DataType::kInt}}).ValueOrDie();
  auto s2 =
      ExtendedSchema::Create("b", {{"y", DataType::kString}}).ValueOrDie();
  XRelation r1(s1);
  r1.Insert(Tuple{Value::Int(1)}).ValueOrDie();
  r1.Insert(Tuple{Value::Int(2)}).ValueOrDie();
  XRelation r2(s2);
  for (const char* y : {"p", "q", "r"}) {
    r2.Insert(Tuple{Value::String(y)}).ValueOrDie();
  }
  const XRelation joined = NaturalJoin(r1, r2).ValueOrDie();
  std::vector<std::string> rendered;
  for (const Tuple& t : joined.tuples()) rendered.push_back(t.ToString());
  EXPECT_EQ(rendered, (std::vector<std::string>{"(1, 'p')", "(1, 'q')",
                                                "(1, 'r')", "(2, 'p')",
                                                "(2, 'q')", "(2, 'r')"}));
}

}  // namespace
}  // namespace serena
