#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "sql/catalog.h"
#include "sql/database.h"
#include "sql/row_batch.h"
#include "util/random.h"

namespace rdfrel::sql {
namespace {

Schema TestSchema() {
  return Schema({{"id", ValueType::kInt64},
                 {"name", ValueType::kInt64},
                 {"score", ValueType::kDouble}});
}

std::vector<Row> ScanAll(const Table& t) {
  std::vector<Row> rows;
  EXPECT_TRUE(t.Scan([&](RowId, const Row& row) {
                 rows.push_back(row);
                 return Status::OK();
               }).ok());
  return rows;
}

TEST(TableTest, CrudRoundTrip) {
  Table t("t", TestSchema());
  Row r1 = {Value::Int(1), Value::Int(100), Value::Real(0.5)};
  Row r2 = {Value::Int(2), Value::Null(), Value::Null()};
  auto rid1 = t.Insert(r1);
  auto rid2 = t.Insert(r2);
  ASSERT_TRUE(rid1.ok() && rid2.ok());
  EXPECT_EQ(t.row_count(), 2u);
  EXPECT_EQ(*t.Get(*rid1), r1);
  EXPECT_EQ(*t.Get(*rid2), r2);

  Row r1b = {Value::Int(1), Value::Int(101), Value::Real(0.7)};
  ASSERT_TRUE(t.Update(*rid1, r1b).ok());
  EXPECT_EQ(*t.Get(*rid1), r1b);

  ASSERT_TRUE(t.Delete(*rid2).ok());
  EXPECT_EQ(t.row_count(), 1u);
}

TEST(TableTest, RowRoundTripsThroughGetAndScan) {
  Table t("t", TestSchema());
  Row row = {Value::Int(7), Value::Int(102), Value::Real(3.25)};
  auto rid = t.Insert(row);
  ASSERT_TRUE(rid.ok());
  EXPECT_EQ(*t.Get(*rid), row);
  ASSERT_NE(t.Find(*rid), nullptr);
  EXPECT_EQ(*t.Find(*rid), row);
  EXPECT_EQ(ScanAll(t), std::vector<Row>{row});
}

TEST(TableTest, IntWidensIntoDoubleColumn) {
  Table t("t", Schema({{"d", ValueType::kDouble}}));
  auto rid = t.Insert({Value::Int(4)});
  ASSERT_TRUE(rid.ok());
  Row back = *t.Get(*rid);
  EXPECT_TRUE(back[0].is_double());
  EXPECT_EQ(back[0].AsDouble(), 4.0);

  ASSERT_TRUE(t.Update(*rid, {Value::Int(9)}).ok());
  back = *t.Get(*rid);
  EXPECT_TRUE(back[0].is_double());
  EXPECT_EQ(back[0].AsDouble(), 9.0);
}

TEST(TableTest, TypeMismatchRejected) {
  Table t("t", Schema({{"i", ValueType::kInt64}}));
  EXPECT_TRUE(t.Insert({Value::Real(1.5)}).status().IsInvalidArgument());
  EXPECT_TRUE(t.Insert({}).status().IsInvalidArgument());
  EXPECT_EQ(t.row_count(), 0u);

  auto rid = t.Insert({Value::Int(1)});
  ASSERT_TRUE(rid.ok());
  EXPECT_TRUE(t.Update(*rid, {Value::Real(1.5)}).IsInvalidArgument());
  EXPECT_TRUE(t.Update(*rid, {Value::Int(1), Value::Int(2)})
                  .IsInvalidArgument());
  EXPECT_EQ(*t.Get(*rid), (Row{Value::Int(1)}));  // unchanged
}

TEST(TableTest, InsertGetDelete) {
  Table t("t", TestSchema());
  auto a = t.Insert({Value::Int(1), Value::Int(103), Value::Null()});
  auto b = t.Insert({Value::Int(2), Value::Int(104), Value::Null()});
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(*a, *b);
  ASSERT_TRUE(t.Delete(*a).ok());
  EXPECT_TRUE(t.Get(*a).status().IsNotFound());
  EXPECT_EQ(t.Find(*a), nullptr);
  EXPECT_TRUE(t.Delete(*a).IsNotFound());
  EXPECT_TRUE(t.Update(*a, {Value::Int(3), Value::Null(), Value::Null()})
                  .IsNotFound());
  EXPECT_EQ((*t.Get(*b))[1].AsInt(), 104);
  // Out of range.
  EXPECT_TRUE(t.Get(static_cast<RowId>(t.num_slots())).status().IsNotFound());
  EXPECT_TRUE(t.Get(~RowId{0}).status().IsNotFound());
}

TEST(TableTest, UpdateInPlaceKeepsRowId) {
  Table t("t", TestSchema());
  ASSERT_TRUE(t.CreateIndex("t_name", "name").ok());
  auto rid = t.Insert({Value::Int(1), Value::Int(10), Value::Null()});
  ASSERT_TRUE(rid.ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        t.Insert({Value::Int(i), Value::Int(20), Value::Null()}).ok());
  }
  // An updated row stays at its slot, and the index follows the new key.
  ASSERT_TRUE(t.Update(*rid, {Value::Int(1), Value::Int(30),
                              Value::Real(1.5)})
                  .ok());
  EXPECT_EQ((*t.Get(*rid))[1].AsInt(), 30);
  const IndexInfo* idx = t.FindIndexByName("t_name");
  EXPECT_TRUE(idx->Lookup(Value::Int(10)).empty());
  EXPECT_EQ(idx->Lookup(Value::Int(30)), std::vector<RowId>{*rid});
  EXPECT_EQ(t.row_count(), 51u);
}

TEST(TableTest, UpdateShrinksThenGrows) {
  // A row loses its values to NULLs and gains them back in place.
  Table t("t", TestSchema());
  const Row full = {Value::Int(1), Value::Int(2), Value::Real(3.5)};
  auto rid = t.Insert(full);
  ASSERT_TRUE(rid.ok());
  const Row sparse = {Value::Int(1), Value::Null(), Value::Null()};
  ASSERT_TRUE(t.Update(*rid, sparse).ok());
  EXPECT_EQ(*t.Get(*rid), sparse);
  ASSERT_TRUE(t.Update(*rid, full).ok());
  EXPECT_EQ(*t.Get(*rid), full);
  EXPECT_EQ(t.num_slots(), 1u);
}

TEST(TableTest, RejectedUpdateLeavesRowAndIndex) {
  Table t("t", TestSchema());
  ASSERT_TRUE(t.CreateIndex("t_id", "id").ok());
  Row row = {Value::Int(1), Value::Int(5), Value::Null()};
  auto rid = t.Insert(row);
  ASSERT_TRUE(rid.ok());
  // The new key would move the index entry, but the row fails validation:
  // neither the row nor its index entry may change.
  EXPECT_TRUE(t.Update(*rid, {Value::Int(2), Value::Real(3.5), Value::Null()})
                  .IsInvalidArgument());
  EXPECT_EQ(*t.Get(*rid), row);
  const IndexInfo* idx = t.FindIndexByName("t_id");
  EXPECT_EQ(idx->Lookup(Value::Int(1)), std::vector<RowId>{*rid});
  EXPECT_TRUE(idx->Lookup(Value::Int(2)).empty());
}

TEST(TableTest, LargeRowStoredWhole) {
  // A row far wider than any store's (DPH/RPH are 2 + 2k columns).
  std::vector<ColumnDef> cols;
  for (int i = 0; i < 4096; ++i) {
    cols.push_back({"c" + std::to_string(i), ValueType::kInt64});
  }
  Table t("t", Schema(std::move(cols)));
  Row big;
  for (int i = 0; i < 4096; ++i) {
    big.push_back(i % 3 == 0 ? Value::Null() : Value::Int(i));
  }
  auto rid = t.Insert(big);
  ASSERT_TRUE(rid.ok());
  EXPECT_EQ(*t.Get(*rid), big);
}

TEST(TableTest, ScanVisitsLiveOnly) {
  Table t("t", Schema({{"s", ValueType::kInt64}}));
  auto a = t.Insert({Value::Int(1)});
  auto b = t.Insert({Value::Int(2)});
  auto c = t.Insert({Value::Int(3)});
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  ASSERT_TRUE(t.Delete(*b).ok());
  EXPECT_EQ(ScanAll(t),
            (std::vector<Row>{{Value::Int(1)}, {Value::Int(3)}}));
  EXPECT_TRUE(t.has_dead_slots());
}

TEST(TableTest, ManyRowsScanCount) {
  Table t("t", TestSchema());
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(
        t.Insert({Value::Int(i),
                  Value::Int(1000 + i),
                  Value::Real(i * 0.5)})
            .ok());
  }
  EXPECT_EQ(ScanAll(t).size(), 5000u);
  EXPECT_EQ(t.row_count(), 5000u);
  EXPECT_FALSE(t.has_dead_slots());
}

TEST(TableTest, ManyRowsGetById) {
  Table t("t", Schema({{"s", ValueType::kInt64}}));
  std::vector<RowId> rids;
  for (int i = 0; i < 100; ++i) {
    auto r = t.Insert({Value::Int(1000 + i)});
    ASSERT_TRUE(r.ok());
    rids.push_back(*r);
  }
  for (size_t i = 0; i < rids.size(); ++i) {
    auto row = t.Get(rids[i]);
    ASSERT_TRUE(row.ok());
    EXPECT_EQ((*row)[0].AsInt(), 1000 + static_cast<int64_t>(i));
  }
}

TEST(TableTest, DeletedSlotIsReusedAndReindexed) {
  Table t("t", Schema({{"k", ValueType::kInt64}}));
  ASSERT_TRUE(t.CreateIndex("t_k", "k").ok());
  auto a = t.Insert({Value::Int(7)});
  auto b = t.Insert({Value::Int(8)});
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(t.Delete(*a).ok());
  auto c = t.Insert({Value::Int(9)});
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*c, *a);  // the freed slot is taken again
  EXPECT_EQ(t.num_slots(), 2u);
  EXPECT_FALSE(t.has_dead_slots());
  const IndexInfo* idx = t.FindIndexByName("t_k");
  EXPECT_TRUE(idx->Lookup(Value::Int(7)).empty());
  EXPECT_EQ(idx->Lookup(Value::Int(9)), std::vector<RowId>{*c});
  EXPECT_EQ(idx->Lookup(Value::Int(8)), std::vector<RowId>{*b});
}

// Random inserts, updates and deletes against a reference map from RowId
// to row. After each round the table must agree with the reference through
// Table::Scan, a full SELECT (SeqScan over windows that contain dead slots),
// indexed SELECTs and direct index lookups (after slot reuse), and Get.
class TableRandomTest : public ::testing::Test {
 protected:
  static constexpr int64_t kKeys = 40;

  void SetUp() override {
    ASSERT_TRUE(db_.Execute("CREATE TABLE t (id INT, k INT, s BIGINT, "
                            "d DOUBLE)")
                    .ok());
    ASSERT_TRUE(db_.Execute("CREATE INDEX t_k ON t (k)").ok());
    table_ = db_.catalog().GetTable("t").value();
  }

  Row MakeRow() {
    const int64_t id = next_id_++;
    Value s = rng_.Bernoulli(0.2)
                  ? Value::Null()
                  : Value::Int(static_cast<int64_t>(rng_.Uniform(1000)));
    return {Value::Int(id),
            Value::Int(static_cast<int64_t>(rng_.Uniform(kKeys))),
            std::move(s), Value::Real(static_cast<double>(id) / 4)};
  }

  void InsertOne() {
    Row row = MakeRow();
    auto rid = table_->Insert(row);
    ASSERT_TRUE(rid.ok()) << rid.status().ToString();
    ASSERT_EQ(ref_.count(*rid), 0u) << "slot " << *rid << " handed out twice";
    ref_[*rid] = std::move(row);
  }

  RowId PickLive() {
    auto it = ref_.begin();
    std::advance(it, static_cast<long>(rng_.Uniform(ref_.size())));
    return it->first;
  }

  void UpdateOne() {
    if (ref_.empty()) return;
    RowId rid = PickLive();
    Row row = MakeRow();
    ASSERT_TRUE(table_->Update(rid, row).ok());
    ref_[rid] = std::move(row);
  }

  void DeleteOne(RowId rid) {
    ASSERT_TRUE(table_->Delete(rid).ok());
    ref_.erase(rid);
    dead_.push_back(rid);
  }

  static std::vector<Row> Sorted(std::vector<Row> rows) {
    std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
      return a[0].AsInt() < b[0].AsInt();
    });
    return rows;
  }

  std::vector<Row> Select(const std::string& sql, const char* op) {
    std::string profile;
    auto qr = db_.QueryProfiled(sql, &profile);
    EXPECT_TRUE(qr.ok()) << qr.status().ToString();
    EXPECT_NE(profile.find(op), std::string::npos) << profile;
    return qr.ok() ? qr->rows : std::vector<Row>{};
  }

  void CheckAgainstReference() {
    ASSERT_EQ(table_->row_count(), ref_.size());
    std::vector<Row> expected;
    for (const auto& [rid, row] : ref_) expected.push_back(row);

    // Scan: live rows in slot order, each at its own RowId.
    std::vector<Row> scanned;
    ASSERT_TRUE(table_->Scan([&](RowId rid, const Row& row) {
                  auto it = ref_.find(rid);
                  EXPECT_TRUE(it != ref_.end() && it->second == row)
                      << "slot " << rid;
                  scanned.push_back(row);
                  return Status::OK();
                }).ok());
    EXPECT_EQ(scanned, expected);

    // Full SELECT through SeqScanOp, bare and under a filter (which must
    // narrow the scan's selection, never widen it to a dead slot).
    EXPECT_EQ(Sorted(Select("SELECT id, k, s, d FROM t", "SeqScan(t)")),
              Sorted(expected));
    std::vector<Row> with_s;
    for (const Row& row : expected) {
      if (!row[2].is_null()) with_s.push_back(row);
    }
    EXPECT_EQ(Sorted(Select("SELECT id, k, s, d FROM t WHERE s IS NOT NULL",
                            "SeqScan(t)")),
              Sorted(with_s));

    // Index: direct lookups and indexed SELECTs for every key.
    const IndexInfo* idx = table_->FindIndexByName("t_k");
    ASSERT_NE(idx, nullptr);
    for (int64_t key = 0; key < kKeys; ++key) {
      std::vector<RowId> want;
      std::vector<Row> want_rows;
      for (const auto& [rid, row] : ref_) {
        if (row[1].AsInt() == key) {
          want.push_back(rid);
          want_rows.push_back(row);
        }
      }
      std::vector<RowId> got = idx->Lookup(Value::Int(key));
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, want) << "key " << key;
      if (key % 8 == 0) {
        EXPECT_EQ(Sorted(Select("SELECT id, k, s, d FROM t WHERE k = " +
                                    std::to_string(key),
                                "IndexScan(t)")),
                  Sorted(want_rows))
            << "key " << key;
      }
    }

    // Get: live rows come back; dead and out-of-range slots are errors.
    for (const auto& [rid, row] : ref_) {
      auto got = table_->Get(rid);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(*got, row);
    }
    for (RowId rid : dead_) {
      if (ref_.count(rid) == 0) {
        EXPECT_TRUE(table_->Get(rid).status().IsNotFound()) << rid;
      }
    }
    EXPECT_FALSE(
        table_->Get(static_cast<RowId>(table_->num_slots())).ok());
  }

  Database db_;
  Table* table_ = nullptr;
  Random rng_{20260418};
  std::map<RowId, Row> ref_;
  std::vector<RowId> dead_;
  int64_t next_id_ = 0;
};

TEST_F(TableRandomTest, MutationsMatchReference) {
  constexpr size_t kWindow = RowBatch::kDefaultCapacity;
  for (size_t i = 0; i < 3 * kWindow - 100; ++i) InsertOne();
  ASSERT_FALSE(HasFatalFailure());
  // Dead slots inside the first window, across the first window boundary,
  // and filling the whole (partial) last window.
  for (RowId rid = 10; rid < 20; ++rid) DeleteOne(rid);
  for (RowId rid = kWindow - 50; rid < kWindow + 50; ++rid) DeleteOne(rid);
  for (RowId rid = 2 * kWindow; rid < 3 * kWindow - 100; ++rid) {
    DeleteOne(rid);
  }
  CheckAgainstReference();

  for (int round = 0; round < 6; ++round) {
    for (int op = 0; op < 400; ++op) {
      const uint64_t dice = rng_.Uniform(10);
      if (dice < 4) {
        InsertOne();
      } else if (dice < 7) {
        UpdateOne();
      } else if (!ref_.empty()) {
        DeleteOne(PickLive());
      }
      ASSERT_FALSE(HasFatalFailure());
    }
    CheckAgainstReference();
    ASSERT_FALSE(HasFatalFailure());
  }
  // The free list was drawn on: some deleted slots hold rows again.
  size_t reused = 0;
  for (RowId rid : dead_) reused += ref_.count(rid);
  EXPECT_GT(reused, 0u);
}

}  // namespace
}  // namespace rdfrel::sql
