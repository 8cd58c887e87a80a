#include "xrel/xrelation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "common/random.h"
#include "schema/extended_schema.h"
#include "service/prototype.h"
#include "xrel/flat_tuple_index.h"

namespace serena {
namespace {

RelationSchema MakeSchema(std::vector<Attribute> attrs) {
  return RelationSchema::Create(std::move(attrs)).ValueOrDie();
}

PrototypePtr SendMessageProto() {
  return Prototype::Create(
             "sendMessage",
             MakeSchema({{"address", DataType::kString},
                         {"text", DataType::kString}}),
             MakeSchema({{"sent", DataType::kBool}}),
             /*active=*/true)
      .ValueOrDie();
}

/// The `contacts` X-Relation of Example 4.
ExtendedSchemaPtr ContactSchema() {
  return ExtendedSchema::Create(
             "contacts",
             {{"name", DataType::kString},
              {"address", DataType::kString},
              {"text", DataType::kString, AttributeKind::kVirtual},
              {"messenger", DataType::kService},
              {"sent", DataType::kBool, AttributeKind::kVirtual}},
             {BindingPattern(SendMessageProto(), "messenger")})
      .ValueOrDie();
}

TEST(ExtendedSchemaTest, PartitionAndCoordinates) {
  auto schema = ContactSchema();
  EXPECT_EQ(schema->size(), 5u);
  EXPECT_EQ(schema->real_arity(), 3u);
  EXPECT_EQ(schema->RealNames(),
            (std::vector<std::string>{"name", "address", "messenger"}));
  EXPECT_EQ(schema->VirtualNames(),
            (std::vector<std::string>{"text", "sent"}));
  // Example 4: messenger = attr_Contact(4) maps to coordinate 3 (1-based)
  // i.e. index 2 (0-based).
  EXPECT_EQ(schema->CoordinateOf("messenger"), std::size_t{2});
  EXPECT_EQ(schema->CoordinateOf("name"), std::size_t{0});
  EXPECT_EQ(schema->CoordinateOf("address"), std::size_t{1});
  EXPECT_FALSE(schema->CoordinateOf("text").has_value());
  EXPECT_FALSE(schema->CoordinateOf("nonexistent").has_value());
}

TEST(ExtendedSchemaTest, RejectsBindingPatternOnVirtualServiceAttribute) {
  auto result = ExtendedSchema::Create(
      "bad",
      {{"address", DataType::kString},
       {"text", DataType::kString, AttributeKind::kVirtual},
       {"messenger", DataType::kService, AttributeKind::kVirtual},
       {"sent", DataType::kBool, AttributeKind::kVirtual}},
      {BindingPattern(SendMessageProto(), "messenger")});
  EXPECT_FALSE(result.ok());
}

TEST(ExtendedSchemaTest, RejectsRealOutputAttribute) {
  // `sent` must be virtual because it is an output of sendMessage.
  auto result = ExtendedSchema::Create(
      "bad",
      {{"address", DataType::kString},
       {"text", DataType::kString, AttributeKind::kVirtual},
       {"messenger", DataType::kService},
       {"sent", DataType::kBool}},
      {BindingPattern(SendMessageProto(), "messenger")});
  EXPECT_FALSE(result.ok());
}

TEST(ExtendedSchemaTest, RejectsMissingInputAttribute) {
  auto result = ExtendedSchema::Create(
      "bad",
      {{"text", DataType::kString, AttributeKind::kVirtual},
       {"messenger", DataType::kService},
       {"sent", DataType::kBool, AttributeKind::kVirtual}},
      {BindingPattern(SendMessageProto(), "messenger")});
  EXPECT_FALSE(result.ok());  // `address` missing.
}

TEST(ExtendedSchemaTest, RejectsDuplicateAttributes) {
  auto result = ExtendedSchema::Create(
      "bad", {{"a", DataType::kInt}, {"a", DataType::kString}});
  EXPECT_FALSE(result.ok());
}

TEST(XRelationTest, InsertProjectAndDedup) {
  XRelation contacts(ContactSchema());
  // Example 4's first tuple.
  Tuple nicolas{Value::String("Nicolas"), Value::String("nicolas@elysee.fr"),
                Value::String("email")};
  ASSERT_TRUE(contacts.Insert(nicolas).ValueOrDie());
  EXPECT_FALSE(contacts.Insert(nicolas).ValueOrDie());  // Set semantics.
  EXPECT_EQ(contacts.size(), 1u);

  // t[messenger] = 'email' (Example 4).
  EXPECT_EQ(contacts.ProjectValue(nicolas, "messenger").ValueOrDie(),
            Value::String("email"));
  EXPECT_EQ(contacts.ProjectValue(nicolas, "address").ValueOrDie(),
            Value::String("nicolas@elysee.fr"));
  // Projection onto a virtual attribute is an error.
  EXPECT_FALSE(contacts.ProjectValue(nicolas, "text").ok());
}

TEST(XRelationTest, ValidatesArityAndTypes) {
  XRelation contacts(ContactSchema());
  // Wrong arity: 5 values (virtual attributes carry no coordinate).
  EXPECT_FALSE(contacts
                   .Insert(Tuple{Value::String("a"), Value::String("b"),
                                 Value::String("c"), Value::String("d"),
                                 Value::Bool(true)})
                   .ok());
  // Wrong type for messenger.
  EXPECT_FALSE(
      contacts.Insert(Tuple{Value::String("a"), Value::String("b"),
                            Value::Int(3)})
          .ok());
}

TEST(XRelationTest, EraseAndContains) {
  XRelation contacts(ContactSchema());
  Tuple a{Value::String("A"), Value::String("a@x"), Value::String("email")};
  Tuple b{Value::String("B"), Value::String("b@x"), Value::String("jabber")};
  ASSERT_TRUE(contacts.Insert(a).ValueOrDie());
  ASSERT_TRUE(contacts.Insert(b).ValueOrDie());
  EXPECT_TRUE(contacts.Contains(a));
  EXPECT_TRUE(contacts.Erase(a));
  EXPECT_FALSE(contacts.Contains(a));
  EXPECT_TRUE(contacts.Contains(b));
  EXPECT_FALSE(contacts.Erase(a));
  EXPECT_EQ(contacts.size(), 1u);
}

TEST(XRelationTest, SetEquals) {
  XRelation r1(ContactSchema());
  XRelation r2(ContactSchema());
  Tuple a{Value::String("A"), Value::String("a@x"), Value::String("email")};
  Tuple b{Value::String("B"), Value::String("b@x"), Value::String("jabber")};
  ASSERT_TRUE(r1.Insert(a).ok());
  ASSERT_TRUE(r1.Insert(b).ok());
  ASSERT_TRUE(r2.Insert(b).ok());
  EXPECT_FALSE(r1.SetEquals(r2));
  ASSERT_TRUE(r2.Insert(a).ok());
  EXPECT_TRUE(r1.SetEquals(r2));  // Order-insensitive.
}

TEST(XRelationTest, TableStringShowsVirtualStar) {
  XRelation contacts(ContactSchema());
  ASSERT_TRUE(contacts
                  .Insert(Tuple{Value::String("Nicolas"),
                                Value::String("nicolas@elysee.fr"),
                                Value::String("email")})
                  .ok());
  const std::string table = contacts.ToTableString();
  EXPECT_NE(table.find("text"), std::string::npos);
  EXPECT_NE(table.find("*"), std::string::npos);
  EXPECT_NE(table.find("'Nicolas'"), std::string::npos);
}

// --- Set contract: XRelation against an insertion-order reference model ---

/// The reference for the set contract: a vector in insertion order, with
/// `Erase` moving the last element into the hole.
class ModelRelation {
 public:
  bool Insert(const Tuple& t) {
    if (Find(t) != tuples_.size()) return false;
    tuples_.push_back(t);
    return true;
  }
  bool Erase(const Tuple& t) {
    const std::size_t i = Find(t);
    if (i == tuples_.size()) return false;
    tuples_[i] = tuples_.back();
    tuples_.pop_back();
    return true;
  }
  bool Contains(const Tuple& t) const { return Find(t) != tuples_.size(); }
  void Clear() { tuples_.clear(); }
  const std::vector<Tuple>& tuples() const { return tuples_; }

 private:
  std::size_t Find(const Tuple& t) const {
    return static_cast<std::size_t>(
        std::find(tuples_.begin(), tuples_.end(), t) - tuples_.begin());
  }
  std::vector<Tuple> tuples_;
};

ExtendedSchemaPtr PairSchema() {
  return ExtendedSchema::Create("pairs", {{"a", DataType::kInt},
                                          {"b", DataType::kString}})
      .ValueOrDie();
}

/// Drives `Insert`/`InsertUnchecked`/`InsertHashed`/`Erase`/`Contains`/
/// `Clear` on one relation and the model with the same seeded operations
/// over a value domain of about 2×`target` tuples, so the relation hovers
/// near `target` and crosses every growth step up to it. Erases hit the
/// last tuple, missing tuples and runs of insertion-order neighbours.
void DriveAgainstModel(std::uint64_t seed, std::size_t target) {
  SCOPED_TRACE("seed " + std::to_string(seed) + ", target " +
               std::to_string(target));
  Rng rng(seed);
  const std::int64_t domain = static_cast<std::int64_t>(target) + 1;
  auto random_tuple = [&] {
    return Tuple{Value::Int(rng.NextInt(0, domain)),
                 Value::String(rng.NextBool(0.5) ? "x" : "y")};
  };
  XRelation relation(PairSchema());
  ModelRelation model;
  auto expect_same = [&](const char* after) {
    SCOPED_TRACE(after);
    ASSERT_EQ(relation.tuples(), model.tuples());
    for (const Tuple& t : model.tuples()) ASSERT_TRUE(relation.Contains(t));
  };
  const std::size_t ops = 6 * target + 64;
  // Whole-relation comparisons are O(n); space them out on big relations.
  const std::size_t check_every = target < 64 ? 1 : 97;
  for (std::size_t op = 0; op < ops; ++op) {
    const std::uint64_t kind = rng.NextBounded(100);
    if (kind < 45) {
      Tuple t = random_tuple();
      const bool expected = model.Insert(t);
      switch (op % 3) {
        case 0:
          ASSERT_EQ(relation.Insert(t).ValueOrDie(), expected);
          break;
        case 1:
          ASSERT_EQ(relation.InsertUnchecked(t), expected);
          break;
        default: {
          const std::uint64_t hash = t.Hash();
          ASSERT_EQ(relation.InsertHashed(std::move(t), hash), expected);
        }
      }
    } else if (kind < 65) {
      const Tuple t = random_tuple();  // Present or missing.
      ASSERT_EQ(relation.Erase(t), model.Erase(t));
    } else if (kind < 72 && !model.tuples().empty()) {
      const Tuple last = model.tuples().back();
      ASSERT_TRUE(model.Erase(last));
      ASSERT_TRUE(relation.Erase(last));
    } else if (kind < 80 && !model.tuples().empty()) {
      // A run of neighbours: each erase moves the then-last tuple into the
      // hole, so the run mixes positions from both ends.
      const std::size_t start = rng.NextBounded(model.tuples().size());
      const std::size_t run =
          std::min<std::size_t>(1 + rng.NextBounded(8),
                                model.tuples().size() - start);
      std::vector<Tuple> victims(model.tuples().begin() + start,
                                 model.tuples().begin() + start + run);
      for (const Tuple& t : victims) {
        ASSERT_TRUE(model.Erase(t));
        ASSERT_TRUE(relation.Erase(t));
        ASSERT_FALSE(relation.Contains(t));
      }
    } else if (kind < 81) {
      // Clear, then re-insert earlier tuples: each is admitted exactly once.
      const std::vector<Tuple> before = model.tuples();
      relation.Clear();
      model.Clear();
      ASSERT_TRUE(relation.empty());
      for (const Tuple& t : before) {
        ASSERT_FALSE(relation.Contains(t));
        ASSERT_TRUE(relation.InsertUnchecked(t));
        ASSERT_FALSE(relation.InsertUnchecked(t));
        model.Insert(t);
      }
    } else {
      const Tuple t = random_tuple();
      ASSERT_EQ(relation.Contains(t), model.Contains(t));
    }
    ASSERT_EQ(relation.size(), model.tuples().size());
    if (op % check_every == 0) expect_same("operation");
  }
  expect_same("end of run");

  // Copies are independent of their source.
  XRelation copy = relation;
  ASSERT_EQ(copy.tuples(), model.tuples());
  const Tuple fresh{Value::Int(domain + 1), Value::String("z")};
  ASSERT_TRUE(copy.InsertUnchecked(fresh));
  ASSERT_FALSE(relation.Contains(fresh));
  if (!model.tuples().empty()) {
    const Tuple first = model.tuples().front();
    ASSERT_TRUE(copy.Erase(first));
    ASSERT_TRUE(relation.Contains(first));
  }
  expect_same("copy mutated");

  // A move carries the set; the moved-from relation is reusable once
  // cleared.
  XRelation moved = std::move(relation);
  ASSERT_EQ(moved.tuples(), model.tuples());
  for (const Tuple& t : model.tuples()) ASSERT_FALSE(moved.InsertUnchecked(t));
  relation = std::move(copy);
  relation.Clear();
  ASSERT_TRUE(relation.InsertUnchecked(fresh));
  ASSERT_FALSE(relation.InsertUnchecked(fresh));
  ASSERT_EQ(relation.size(), 1u);
}

TEST(XRelationTest, SetContractMatchesInsertionOrderModel) {
  for (std::uint64_t seed : {1, 2, 3}) {
    for (std::size_t target : {1, 2, 3, 5, 8, 13, 40, 300, 2500}) {
      DriveAgainstModel(seed * 1000 + target, target);
      if (HasFatalFailure()) return;
    }
  }
}

// --- FlatTupleIndex: probe runs that wrap around the table end -----------

/// Hashes below 2^32 are their own tag, so `hash & 15` is the home slot in
/// a 16-slot table and a test can place entries exactly.
TEST(FlatTupleIndexTest, BackwardShiftWrapsAroundTheTableEnd) {
  std::vector<Tuple> stored;
  for (std::int64_t i = 0; i < 8; ++i) stored.push_back(Tuple{Value::Int(i)});
  const auto at = [&stored](std::size_t p) -> const Tuple& {
    return stored[p];
  };
  // Homes 14, 15, 15, 14, 0, 15: one run occupying slots 14..15 and 0..3.
  const std::vector<std::uint64_t> hashes = {14, 15, 15, 14, 0, 15};
  for (std::size_t erase_first = 0; erase_first < hashes.size();
       ++erase_first) {
    SCOPED_TRACE("erase " + std::to_string(erase_first) + " first");
    FlatTupleIndex index;
    for (std::size_t p = 0; p < hashes.size(); ++p) {
      ASSERT_TRUE(index.Insert(stored[p], hashes[p], p, at));
      ASSERT_FALSE(index.Insert(stored[p], hashes[p], p, at));
    }
    // Erase in rotating order; every survivor must stay reachable from
    // its home slot after each backward shift.
    std::vector<bool> present(hashes.size(), true);
    for (std::size_t k = 0; k < hashes.size(); ++k) {
      const std::size_t victim = (erase_first + k) % hashes.size();
      ASSERT_EQ(index.Erase(stored[victim], hashes[victim], at), victim);
      ASSERT_EQ(index.Erase(stored[victim], hashes[victim], at),
                FlatTupleIndex::kNotFound);
      present[victim] = false;
      for (std::size_t p = 0; p < hashes.size(); ++p) {
        ASSERT_EQ(index.Find(stored[p], hashes[p], at),
                  present[p] ? p : FlatTupleIndex::kNotFound)
            << "position " << p;
      }
    }
    EXPECT_EQ(index.size(), 0u);
  }
}

TEST(FlatTupleIndexTest, EqualHashesCompareContents) {
  std::vector<Tuple> stored = {Tuple{Value::Int(1)}, Tuple{Value::Int(2)},
                               Tuple{Value::Int(3)}};
  const auto at = [&stored](std::size_t p) -> const Tuple& {
    return stored[p];
  };
  FlatTupleIndex index;
  for (std::size_t p = 0; p < stored.size(); ++p) {
    ASSERT_TRUE(index.Insert(stored[p], 7, p, at));
  }
  EXPECT_FALSE(index.Insert(Tuple{Value::Int(2)}, 7, 9, at));
  EXPECT_EQ(index.Find(Tuple{Value::Int(3)}, 7, at), 2u);
  EXPECT_EQ(index.Find(Tuple{Value::Int(4)}, 7, at),
            FlatTupleIndex::kNotFound);
  // Moving the tuple at position 2 to position 0 repoints its entry.
  ASSERT_EQ(index.Erase(stored[0], 7, at), 0u);
  index.Relocate(7, 2, 0);
  stored[0] = stored[2];
  EXPECT_EQ(index.Find(Tuple{Value::Int(3)}, 7, at), 0u);
  EXPECT_EQ(index.Find(Tuple{Value::Int(2)}, 7, at), 1u);
}

TEST(FlatTupleIndexTest, FindOrInsertMatchesKeysInPlace) {
  // Keys live only as the first coordinate of the rows that introduced
  // them; the matcher compares a probe row's coordinate in place.
  const std::vector<std::size_t> key = {0};
  std::vector<Tuple> groups;
  FlatTupleIndex index;
  const auto group_of = [&](const Tuple& row) {
    const auto [position, inserted] = index.FindOrInsert(
        row.ProjectedHash(key), groups.size(), [&](std::size_t p) {
          return row.ProjectedEquals(key, groups[p], {0});
        });
    if (inserted) groups.push_back(row.Project(key));
    return position;
  };
  EXPECT_EQ(group_of(Tuple{Value::String("a"), Value::Int(1)}), 0u);
  EXPECT_EQ(group_of(Tuple{Value::String("b"), Value::Int(1)}), 1u);
  EXPECT_EQ(group_of(Tuple{Value::String("a"), Value::Int(2)}), 0u);
  EXPECT_EQ(group_of(Tuple{Value::Int(2), Value::Int(0)}), 2u);
  EXPECT_EQ(group_of(Tuple{Value::Real(2.0), Value::Int(0)}), 2u);
  EXPECT_EQ(index.size(), 3u);
  EXPECT_EQ(groups.size(), 3u);
}

TEST(FlatTupleIndexTest, HitsNeverGrowTheTable) {
  // 8 entries fill 16 slots to the 50% bound: looking any of them up
  // again must leave the slot array alone; only a 9th key grows it.
  std::vector<Tuple> stored;
  FlatTupleIndex index;
  const auto at = [&](std::size_t p) -> const Tuple& { return stored[p]; };
  for (int i = 0; i < 8; ++i) {
    stored.push_back(Tuple{Value::Int(i)});
    ASSERT_TRUE(index.Insert(stored.back(), stored.back().Hash(),
                             stored.size() - 1, at));
  }
  ASSERT_EQ(index.capacity(), 16u);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 8; ++i) {
      const Tuple probe{Value::Int(i)};
      const auto [position, inserted] = index.FindOrInsert(
          probe.Hash(), stored.size(),
          [&](std::size_t p) { return stored[p] == probe; });
      EXPECT_FALSE(inserted);
      EXPECT_EQ(position, static_cast<std::size_t>(i));
      EXPECT_FALSE(index.Insert(probe, probe.Hash(), stored.size(), at));
    }
  }
  EXPECT_EQ(index.capacity(), 16u);
  EXPECT_EQ(index.size(), 8u);

  stored.push_back(Tuple{Value::Int(8)});
  ASSERT_TRUE(index.Insert(stored.back(), stored.back().Hash(), 8, at));
  EXPECT_EQ(index.capacity(), 32u);
  for (int i = 0; i <= 8; ++i) {
    EXPECT_EQ(index.Find(Tuple{Value::Int(i)}, Tuple{Value::Int(i)}.Hash(), at),
              static_cast<std::size_t>(i));
  }
}

}  // namespace
}  // namespace serena
