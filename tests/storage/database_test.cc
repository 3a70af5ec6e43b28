#include "storage/database.h"

#include <gtest/gtest.h>

#include <optional>

#include "gen/client_buy.h"

namespace dbrepair {
namespace {

TEST(DatabaseTest, InsertAndLookup) {
  Database db(MakeClientBuySchema());
  const auto ref =
      db.Insert("Client", {Value::Int(1), Value::Int(20), Value::Int(30)});
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(ref.value().relation, 0u);
  EXPECT_EQ(ref.value().row, 0u);
  EXPECT_EQ(db.tuple(ref.value()).value(1), Value::Int(20));
  EXPECT_EQ(db.TotalTuples(), 1u);
}

TEST(DatabaseTest, UnknownRelation) {
  Database db(MakeClientBuySchema());
  EXPECT_EQ(db.Insert("Nope", {Value::Int(1)}).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(db.FindTable("Nope"), nullptr);
  EXPECT_FALSE(db.RelationIndex("Nope").ok());
}

TEST(DatabaseTest, RelationIndexOrder) {
  Database db(MakeClientBuySchema());
  EXPECT_EQ(db.RelationIndex("Client").value(), 0u);
  EXPECT_EQ(db.RelationIndex("Buy").value(), 1u);
}

TEST(DatabaseTest, CloneIsDeepAndIndependent) {
  auto schema = std::make_shared<Schema>();
  ASSERT_TRUE(schema
                  ->AddRelation(RelationSchema(
                      "Person",
                      {AttributeDef{"ID", Type::kInt64, false, 1.0},
                       AttributeDef{"A", Type::kInt64, true, 1.0},
                       AttributeDef{"Name", Type::kString, false, 1.0}},
                      {"ID"}))
                  .ok());
  std::optional<Database> db(std::in_place, schema);
  ASSERT_TRUE(db->Insert("Person", {Value::Int(1), Value::Int(20),
                                    Value::String("ada")})
                  .ok());
  ASSERT_TRUE(db->Insert("Person", {Value::Int(2), Value::Int(30),
                                    Value::String("bob")})
                  .ok());
  Database copy = db->Clone();
  ASSERT_TRUE(copy.mutable_table(0).UpdateValue(0, 1, Value::Int(99)).ok());
  ASSERT_TRUE(
      copy.mutable_table(0).UpdateValue(0, 2, Value::String("eve")).ok());
  EXPECT_EQ(copy.table(0).row(0).value(1), Value::Int(99));
  EXPECT_EQ(copy.table(0).row(0).value(2), Value::String("eve"));
  EXPECT_EQ(db->table(0).row(0).value(1), Value::Int(20));
  EXPECT_EQ(db->table(0).row(0).value(2), Value::String("ada"));
  // The clone shares the schema object.
  EXPECT_EQ(&copy.schema(), &db->schema());
  // The copies share string payloads; destroying the original first leaves
  // the clone's strings readable (ASan would flag a use after free).
  db.reset();
  EXPECT_EQ(copy.table(0).row(0).value(2), Value::String("eve"));
  EXPECT_EQ(copy.table(0).row(1).value(2), Value::String("bob"));
}

TEST(DatabaseTest, ClonePreservesKeyIndex) {
  Database db(MakeClientBuySchema());
  ASSERT_TRUE(
      db.Insert("Client", {Value::Int(5), Value::Int(20), Value::Int(30)})
          .ok());
  Database copy = db.Clone();
  EXPECT_EQ(copy.table(0).LookupByKey({Value::Int(5)}).value(), 0u);
  // Duplicate keys still rejected after cloning.
  EXPECT_FALSE(
      copy.Insert("Client", {Value::Int(5), Value::Int(1), Value::Int(1)})
          .ok());
}

TEST(DatabaseTest, InsertsAfterCloneStayOnTheirSide) {
  Database db(MakeClientBuySchema());
  for (int64_t id = 0; id < 100; ++id) {
    ASSERT_TRUE(
        db.Insert("Client", {Value::Int(id), Value::Int(20), Value::Int(30)})
            .ok());
  }
  Database copy = db.Clone();
  // Into the clone: visible there only.
  ASSERT_TRUE(
      copy.Insert("Client", {Value::Int(500), Value::Int(1), Value::Int(1)})
          .ok());
  EXPECT_EQ(copy.table(0).LookupByKey({Value::Int(500)}).value(), 100u);
  EXPECT_FALSE(db.table(0).LookupByKey({Value::Int(500)}).ok());
  EXPECT_EQ(db.table(0).size(), 100u);
  // Into the source: visible there only, and the same key is still free
  // in the clone's own index.
  ASSERT_TRUE(
      db.Insert("Client", {Value::Int(600), Value::Int(2), Value::Int(2)})
          .ok());
  EXPECT_EQ(db.table(0).LookupByKey({Value::Int(600)}).value(), 100u);
  EXPECT_FALSE(copy.table(0).LookupByKey({Value::Int(600)}).ok());
  ASSERT_TRUE(
      copy.Insert("Client", {Value::Int(600), Value::Int(3), Value::Int(3)})
          .ok());
  EXPECT_EQ(copy.table(0).size(), 102u);
  for (int64_t id = 0; id < 100; ++id) {
    EXPECT_EQ(copy.table(0).LookupByKey({Value::Int(id)}).value(),
              static_cast<size_t>(id));
  }
}

}  // namespace
}  // namespace dbrepair
