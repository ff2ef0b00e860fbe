#include "sql/catalog.h"

#include <gtest/gtest.h>

#include "sql/hash_index.h"

namespace rdfrel::sql {
namespace {

Schema PeopleSchema() {
  return Schema({{"id", ValueType::kInt64}, {"name", ValueType::kInt64}});
}

TEST(CatalogTest, CreateGetDrop) {
  Catalog cat;
  auto t = cat.CreateTable("People", PeopleSchema());
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(cat.HasTable("people"));  // case-insensitive
  EXPECT_TRUE(cat.GetTable("PEOPLE").ok());
  EXPECT_TRUE(cat.CreateTable("people", PeopleSchema())
                  .status()
                  .IsAlreadyExists());
  ASSERT_TRUE(cat.DropTable("People").ok());
  EXPECT_FALSE(cat.HasTable("people"));
  EXPECT_TRUE(cat.DropTable("people").IsNotFound());
}

TEST(CatalogTest, TableNamesListed) {
  Catalog cat;
  ASSERT_TRUE(cat.CreateTable("b", PeopleSchema()).ok());
  ASSERT_TRUE(cat.CreateTable("a", PeopleSchema()).ok());
  auto names = cat.TableNames();
  ASSERT_EQ(names.size(), 2u);
}

TEST(TableTest, IndexMaintainedOnInsert) {
  Table t("people", PeopleSchema());
  ASSERT_TRUE(t.CreateIndex("idx_id", "id").ok());
  auto rid = t.Insert({Value::Int(1), Value::Int(100)});
  ASSERT_TRUE(rid.ok());
  const IndexInfo* idx = t.FindIndexOn("id");
  ASSERT_NE(idx, nullptr);
  auto rids = idx->Lookup(Value::Int(1));
  ASSERT_EQ(rids.size(), 1u);
  EXPECT_EQ(rids[0], *rid);
}

TEST(TableTest, IndexBackfillsExistingRows) {
  Table t("people", PeopleSchema());
  ASSERT_TRUE(t.Insert({Value::Int(1), Value::Int(101)}).ok());
  ASSERT_TRUE(t.Insert({Value::Int(2), Value::Int(102)}).ok());
  ASSERT_TRUE(t.CreateIndex("idx_id", "id").ok());
  const IndexInfo* idx = t.FindIndexOn("id");
  ASSERT_NE(idx, nullptr);
  EXPECT_EQ(idx->Lookup(Value::Int(2)).size(), 1u);
}

TEST(TableTest, IndexFollowsUpdateAndDelete) {
  Table t("people", PeopleSchema());
  ASSERT_TRUE(t.CreateIndex("idx_id", "id").ok());
  auto rid = t.Insert({Value::Int(1), Value::Int(100)});
  ASSERT_TRUE(rid.ok());
  ASSERT_TRUE(t.Update(*rid, {Value::Int(99), Value::Int(100)}).ok());
  const IndexInfo* idx = t.FindIndexOn("id");
  EXPECT_TRUE(idx->Lookup(Value::Int(1)).empty());
  EXPECT_EQ(idx->Lookup(Value::Int(99)), std::vector<RowId>{*rid});
  ASSERT_TRUE(t.Delete(*rid).ok());
  EXPECT_TRUE(idx->Lookup(Value::Int(99)).empty());
}

TEST(TableTest, NullKeysNotIndexed) {
  Table t("people", PeopleSchema());
  ASSERT_TRUE(t.CreateIndex("idx_id", "id").ok());
  ASSERT_TRUE(t.Insert({Value::Null(), Value::Int(103)}).ok());
  const IndexInfo* idx = t.FindIndexOn("id");
  EXPECT_EQ(idx->Lookup(Value::Null()).size(), 0u);
}

TEST(TableTest, DuplicateIndexRejected) {
  Table t("people", PeopleSchema());
  ASSERT_TRUE(t.CreateIndex("idx", "id").ok());
  EXPECT_TRUE(
      t.CreateIndex("idx", "name").IsAlreadyExists());
  EXPECT_TRUE(
      t.CreateIndex("idx2", "missing").IsNotFound());
}

TEST(HashIndexTest, Basics) {
  HashIndex idx;
  idx.Insert(Value::Int(101), RowId{1});
  idx.Insert(Value::Int(101), RowId{2});
  idx.Insert(Value::Int(101), RowId{1});  // dup ignored
  idx.Insert(Value::Int(102), RowId{100});
  EXPECT_EQ(idx.size(), 3u);
  EXPECT_EQ(idx.num_keys(), 2u);
  EXPECT_EQ(idx.Lookup(Value::Int(101)).size(), 2u);
  EXPECT_TRUE(idx.Lookup(Value::Int(104)).empty());
  EXPECT_TRUE(idx.Remove(Value::Int(101), RowId{1}));
  EXPECT_FALSE(idx.Remove(Value::Int(101), RowId{1}));
  EXPECT_EQ(idx.Lookup(Value::Int(101)).size(), 1u);
  EXPECT_TRUE(idx.Remove(Value::Int(102), RowId{100}));
  EXPECT_FALSE(idx.Contains(Value::Int(102)));
}

}  // namespace
}  // namespace rdfrel::sql
