#include <gtest/gtest.h>

#include "sql/heap_file.h"
#include "sql/page.h"
#include "sql/row.h"
#include "sql/table_storage.h"

namespace rdfrel::sql {
namespace {

Schema TestSchema() {
  return Schema({{"id", ValueType::kInt64},
                 {"name", ValueType::kString},
                 {"score", ValueType::kDouble}});
}

TEST(RowSerdeTest, RoundTrip) {
  Schema s = TestSchema();
  Row row = {Value::Int(7), Value::Str("alice"), Value::Real(3.25)};
  std::string bytes;
  ASSERT_TRUE(SerializeRow(s, row, &bytes).ok());
  auto back = DeserializeRow(s, bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, row);
}

TEST(RowSerdeTest, NullsCostNothingButBitmap) {
  Schema s = TestSchema();
  Row all_null = {Value::Null(), Value::Null(), Value::Null()};
  std::string bytes;
  ASSERT_TRUE(SerializeRow(s, all_null, &bytes).ok());
  EXPECT_EQ(bytes.size(), 1u);  // 3 columns -> 1 bitmap byte
  auto back = DeserializeRow(s, bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, all_null);
}

TEST(RowSerdeTest, WideNullHeavyRowStaysCompact) {
  // 100 int columns, 2 populated: bitmap 13 bytes + 16 value bytes.
  std::vector<ColumnDef> cols;
  for (int i = 0; i < 100; ++i) {
    cols.push_back(
        {std::string("c").append(std::to_string(i)), ValueType::kInt64});
  }
  Schema s(std::move(cols));
  Row row(100);
  row[3] = Value::Int(1);
  row[97] = Value::Int(2);
  EXPECT_EQ(SerializedRowSize(s, row), 13u + 16u);
}

TEST(RowSerdeTest, IntWidensIntoDoubleColumn) {
  Schema s({{"d", ValueType::kDouble}});
  Row row = {Value::Int(4)};
  std::string bytes;
  ASSERT_TRUE(SerializeRow(s, row, &bytes).ok());
  auto back = DeserializeRow(s, bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ((*back)[0].AsDouble(), 4.0);
}

TEST(RowSerdeTest, TypeMismatchRejected) {
  Schema s({{"i", ValueType::kInt64}});
  std::string bytes;
  EXPECT_TRUE(SerializeRow(s, {Value::Str("x")}, &bytes)
                  .IsInvalidArgument());
  EXPECT_TRUE(SerializeRow(s, {}, &bytes).IsInvalidArgument());
}

TEST(RowSerdeTest, SerializedSizeMatchesActual) {
  Schema s = TestSchema();
  Row row = {Value::Int(7), Value::Str("some name here"), Value::Null()};
  std::string bytes;
  ASSERT_TRUE(SerializeRow(s, row, &bytes).ok());
  EXPECT_EQ(bytes.size(), SerializedRowSize(s, row));
}

TEST(PageTest, InsertGetDelete) {
  Page p(1024);
  auto s1 = p.Insert("hello");
  ASSERT_TRUE(s1.ok());
  auto s2 = p.Insert("world!");
  ASSERT_TRUE(s2.ok());
  EXPECT_NE(*s1, *s2);
  EXPECT_EQ(*p.Get(*s1), "hello");
  EXPECT_EQ(*p.Get(*s2), "world!");
  ASSERT_TRUE(p.Delete(*s1).ok());
  EXPECT_TRUE(p.Get(*s1).status().IsNotFound());
  EXPECT_TRUE(p.Delete(*s1).IsNotFound());
  EXPECT_EQ(*p.Get(*s2), "world!");
}

TEST(PageTest, FillsUntilCapacity) {
  Page p(256);
  int inserted = 0;
  while (true) {
    auto r = p.Insert("0123456789");
    if (!r.ok()) {
      EXPECT_TRUE(r.status().IsCapacityExceeded());
      break;
    }
    ++inserted;
  }
  EXPECT_GT(inserted, 5);
  EXPECT_LT(inserted, 26);
}

TEST(PageTest, UpdateInPlaceAndGrow) {
  Page p(256);
  auto slot = p.Insert("aaaaaaaaaa");
  ASSERT_TRUE(slot.ok());
  // Shrink in place.
  ASSERT_TRUE(p.Update(*slot, "bb").ok());
  EXPECT_EQ(*p.Get(*slot), "bb");
  // Grow within page free space.
  ASSERT_TRUE(p.Update(*slot, "cccccccccccccccc").ok());
  EXPECT_EQ(*p.Get(*slot), "cccccccccccccccc");
}

TEST(PageTest, UpdateOverflowSignalsCapacity) {
  Page p(128);
  auto slot = p.Insert("x");
  ASSERT_TRUE(slot.ok());
  std::string big(500, 'y');
  EXPECT_TRUE(p.Update(*slot, big).IsCapacityExceeded());
  EXPECT_EQ(*p.Get(*slot), "x");  // unchanged
}

TEST(PageTest, LiveAndDeadBytes) {
  Page p(1024);
  auto a = p.Insert("12345");
  auto b = p.Insert("123");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(p.LiveBytes(), 8u);
  ASSERT_TRUE(p.Delete(*a).ok());
  EXPECT_EQ(p.LiveBytes(), 3u);
  EXPECT_EQ(p.DeadBytes(), 5u);
}

TEST(HeapFileTest, SpansPages) {
  HeapFile h(256);
  std::vector<RowId> rids;
  for (int i = 0; i < 100; ++i) {
    auto r = h.Insert("payload-" + std::to_string(i));
    ASSERT_TRUE(r.ok());
    rids.push_back(*r);
  }
  EXPECT_GT(h.num_pages(), 1u);
  for (size_t i = 0; i < 100; ++i) {
    auto cell = h.Get(rids[i]);
    ASSERT_TRUE(cell.ok());
    EXPECT_EQ(*cell, "payload-" + std::to_string(i));
  }
}

TEST(HeapFileTest, OversizeCellRejected) {
  HeapFile h(128);
  std::string big(1000, 'z');
  EXPECT_TRUE(h.Insert(big).status().IsCapacityExceeded());
}

TEST(HeapFileTest, UpdateMayRelocate) {
  HeapFile h(256);
  auto rid = h.Insert("small");
  ASSERT_TRUE(rid.ok());
  // Fill the page so the grown cell cannot stay.
  while (true) {
    auto r = h.Insert("fill-fill-fill-fill");
    ASSERT_TRUE(r.ok());
    if (r->page != rid->page) break;
  }
  std::string grown(100, 'g');
  auto new_rid = h.Update(*rid, grown);
  ASSERT_TRUE(new_rid.ok());
  EXPECT_FALSE(*new_rid == *rid);
  EXPECT_EQ(*h.Get(*new_rid), grown);
  EXPECT_TRUE(h.Get(*rid).status().IsNotFound());
}

TEST(HeapFileTest, ScanVisitsLiveOnly) {
  HeapFile h(256);
  auto a = h.Insert("a");
  auto b = h.Insert("b");
  auto c = h.Insert("c");
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  ASSERT_TRUE(h.Delete(*b).ok());
  std::vector<std::string> seen;
  ASSERT_TRUE(h.Scan([&](RowId, std::string_view cell) {
                 seen.emplace_back(cell);
                 return Status::OK();
               }).ok());
  EXPECT_EQ(seen, (std::vector<std::string>{"a", "c"}));
}

TEST(TableStorageTest, CrudRoundTrip) {
  TableStorage t(TestSchema(), 512);
  Row r1 = {Value::Int(1), Value::Str("a"), Value::Real(0.5)};
  Row r2 = {Value::Int(2), Value::Null(), Value::Null()};
  auto rid1 = t.Insert(r1);
  auto rid2 = t.Insert(r2);
  ASSERT_TRUE(rid1.ok() && rid2.ok());
  EXPECT_EQ(t.row_count(), 2u);
  EXPECT_EQ(*t.Get(*rid1), r1);
  EXPECT_EQ(*t.Get(*rid2), r2);

  Row r1b = {Value::Int(1), Value::Str("a-updated"), Value::Real(0.7)};
  auto rid1b = t.Update(*rid1, r1b);
  ASSERT_TRUE(rid1b.ok());
  EXPECT_EQ(*t.Get(*rid1b), r1b);

  ASSERT_TRUE(t.Delete(*rid2).ok());
  EXPECT_EQ(t.row_count(), 1u);
}

TEST(TableStorageTest, ManyRowsScanCount) {
  TableStorage t(TestSchema());
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(
        t.Insert({Value::Int(i),
                  Value::Str(std::string("n").append(std::to_string(i))),
                  Value::Real(i * 0.5)})
            .ok());
  }
  size_t count = 0;
  ASSERT_TRUE(t.Scan([&](RowId, const Row&) {
                 ++count;
                 return Status::OK();
               }).ok());
  EXPECT_EQ(count, 5000u);
  EXPECT_GT(t.num_pages(), 1u);
}

}  // namespace
}  // namespace rdfrel::sql
