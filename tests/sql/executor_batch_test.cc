/// Vectorized-execution tests: RowBatch semantics, the row-fallback
/// adapter, and row-vs-batch differential checks for the join operators at
/// batch-boundary input sizes (0, 1, capacity-1, capacity, capacity+1),
/// with duplicate build keys and NULL join keys; plus serial end-to-end
/// checks of cancellation, deadlines during CTE materialization, LIMIT
/// order and joins against materialized subqueries.

#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sql/database.h"
#include "sql/executor.h"
#include "sql/row_batch.h"

namespace rdfrel::sql {
namespace {

// ------------------------------------------------------------- RowBatch

TEST(RowBatchTest, OwnedRowsAreReusedAcrossReset) {
  RowBatch b(4);
  for (int round = 0; round < 3; ++round) {
    b.Reset();
    EXPECT_EQ(b.size(), 0u);
    while (!b.Full()) {
      Row* r = b.AddRow();
      r->assign({Value::Int(round)});
    }
    EXPECT_EQ(b.size(), 4u);
    EXPECT_EQ(b.ActiveSize(), 4u);
    for (size_t i = 0; i < b.ActiveSize(); ++i) {
      EXPECT_EQ(b.Active(i)[0].AsInt(), round);
    }
  }
}

TEST(RowBatchTest, PopRowUndoesAdd) {
  RowBatch b;
  b.AddRow()->assign({Value::Int(1)});
  b.AddRow()->assign({Value::Int(2)});
  b.PopRow();
  EXPECT_EQ(b.ActiveSize(), 1u);
  EXPECT_EQ(b.Active(0)[0].AsInt(), 1);
}

TEST(RowBatchTest, SelectionFiltersWithoutMovingRows) {
  RowBatch b;
  for (int i = 0; i < 10; ++i) b.AddRow()->assign({Value::Int(i)});
  b.SetSelection({1, 4, 7});
  EXPECT_EQ(b.size(), 10u);
  EXPECT_EQ(b.ActiveSize(), 3u);
  EXPECT_EQ(b.Active(0)[0].AsInt(), 1);
  EXPECT_EQ(b.Active(2)[0].AsInt(), 7);
  EXPECT_EQ(b.ActiveIndex(1), 4u);
  // Stacked selection (a second filter) keeps physical indices.
  b.SetSelection({4});
  EXPECT_EQ(b.Active(0)[0].AsInt(), 4);
}

TEST(RowBatchTest, BorrowIsZeroCopyAndResetDetaches) {
  std::vector<Row> src;
  for (int i = 0; i < 5; ++i) src.push_back({Value::Int(i)});
  RowBatch b;
  b.Borrow(src.data(), src.size());
  EXPECT_EQ(b.ActiveSize(), 5u);
  EXPECT_EQ(&b.Active(2), &src[2]);  // same storage, no copy
  b.Reset();
  EXPECT_EQ(b.size(), 0u);
}

TEST(RowBatchTest, FlushToCollectsActiveRows) {
  RowBatch b;
  for (int i = 0; i < 6; ++i) b.AddRow()->assign({Value::Int(i)});
  b.SetSelection({0, 5});
  std::vector<Row> out;
  b.FlushTo(&out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1][0].AsInt(), 5);
}

// ------------------------------------------------- row-fallback adapter

/// An operator with only a row implementation; NextBatch must come from
/// the base adapter.
class RowOnlyOp final : public Operator {
 public:
  explicit RowOnlyOp(int n) : n_(n) { scope_.Add("t", "x"); }
  Status Open() override {
    pos_ = 0;
    return Status::OK();
  }
  std::string name() const override { return "RowOnly"; }

 protected:
  Result<bool> NextImpl(Row* out) override {
    if (pos_ >= n_) return false;
    out->assign({Value::Int(pos_++)});
    return true;
  }

 private:
  int n_;
  int pos_ = 0;
};

TEST(BatchAdapterTest, AdapterChunksRowStreamIntoFullBatches) {
  RowOnlyOp op(2500);
  ASSERT_TRUE(op.Open().ok());
  RowBatch batch;
  int64_t total = 0;
  int batches = 0;
  while (true) {
    auto has = op.NextBatch(&batch);
    ASSERT_TRUE(has.ok());
    if (!*has) break;
    ++batches;
    EXPECT_LE(batch.ActiveSize(), RowBatch::kDefaultCapacity);
    for (size_t i = 0; i < batch.ActiveSize(); ++i) {
      EXPECT_EQ(batch.Active(i)[0].AsInt(), total++);
    }
  }
  EXPECT_EQ(total, 2500);
  EXPECT_EQ(batches, 3);  // 1024 + 1024 + 452
  EXPECT_EQ(op.stats().rows, 2500u);
  EXPECT_EQ(op.stats().batches, 3u);
}

TEST(BatchAdapterTest, EmptyStreamYieldsNoBatch) {
  RowOnlyOp op(0);
  ASSERT_TRUE(op.Open().ok());
  RowBatch batch;
  auto has = op.NextBatch(&batch);
  ASSERT_TRUE(has.ok());
  EXPECT_FALSE(*has);
}

// ------------------------------------ join edge cases, row vs batch diff

std::multiset<std::string> Sig(const QueryResult& qr) {
  std::multiset<std::string> out;
  for (const auto& row : qr.rows) {
    std::string s;
    for (const auto& v : row) {
      s += v.ToString();
      s += "\x1f";
    }
    out.insert(s);
  }
  return out;
}

/// Runs \p q in both modes and asserts identical (order-insensitive)
/// results; returns the row count.
size_t ExpectModesAgree(Database& db, const std::string& q) {
  db.set_exec_mode(ExecMode::kRow);
  auto row_res = db.Query(q);
  db.set_exec_mode(ExecMode::kBatch);
  auto batch_res = db.Query(q);
  EXPECT_EQ(row_res.ok(), batch_res.ok()) << q;
  if (!row_res.ok() || !batch_res.ok()) return 0;
  EXPECT_EQ(Sig(*row_res), Sig(*batch_res))
      << q << "\nrow path: " << row_res->rows.size()
      << " rows, batch path: " << batch_res->rows.size() << " rows";
  return row_res->rows.size();
}

/// Bulk insert in chunks (multi-row VALUES).
void InsertRows(Database& db, const std::string& table,
                const std::vector<std::string>& tuples) {
  for (size_t i = 0; i < tuples.size();) {
    std::string sql = "INSERT INTO " + table + " VALUES ";
    for (size_t j = 0; j < 256 && i < tuples.size(); ++j, ++i) {
      if (j) sql += ", ";
      sql += tuples[i];
    }
    auto st = db.Execute(sql);
    ASSERT_TRUE(st.ok()) << st.status().ToString();
  }
}

/// Builds the probe table `l(a,b)` with \p n rows: key cycles over 0..12
/// (hitting duplicated and absent build keys), every 10th key is NULL.
void BuildProbeSide(Database& db, size_t n) {
  ASSERT_TRUE(db.Execute("CREATE TABLE l (a INTEGER, b INTEGER)").ok());
  std::vector<std::string> tuples;
  tuples.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    std::string key =
        (i % 10 == 9) ? "NULL" : std::to_string(i % 13);
    tuples.push_back("(" + key + ", " + std::to_string(i) + ")");
  }
  InsertRows(db, "l", tuples);
}

/// Builds the build-side table `r(a,c)`: keys 0..6 each duplicated 3x,
/// plus two NULL-key rows (which must never join).
void BuildBuildSide(Database& db, bool with_index) {
  ASSERT_TRUE(db.Execute("CREATE TABLE r (a INTEGER, c INTEGER)").ok());
  std::vector<std::string> tuples;
  for (int dup = 0; dup < 3; ++dup) {
    for (int k = 0; k < 7; ++k) {
      tuples.push_back(std::string("(").append(std::to_string(k)) + ", " +
                       std::to_string(dup * 100 + k) + ")");
    }
  }
  tuples.push_back("(NULL, 900)");
  tuples.push_back("(NULL, 901)");
  InsertRows(db, "r", tuples);
  if (with_index) {
    ASSERT_TRUE(db.Execute("CREATE INDEX idx_r_a ON r (a)").ok());
  }
}

class JoinBoundaryTest : public ::testing::TestWithParam<size_t> {};

TEST_P(JoinBoundaryTest, HashJoinRowAndBatchAgree) {
  Database db;
  BuildProbeSide(db, GetParam());
  BuildBuildSide(db, /*with_index=*/false);  // no index => hash join
  ExpectModesAgree(db, "SELECT * FROM l, r WHERE l.a = r.a");
  ExpectModesAgree(db,
                   "SELECT l.b, r.c FROM l LEFT JOIN r ON l.a = r.a");
  // Residual predicate on top of the equi-key.
  ExpectModesAgree(
      db, "SELECT * FROM l, r WHERE l.a = r.a AND l.b + r.c > 50");
}

TEST_P(JoinBoundaryTest, IndexNLJoinRowAndBatchAgree) {
  Database db;
  BuildProbeSide(db, GetParam());
  BuildBuildSide(db, /*with_index=*/true);  // index => index NL join
  ExpectModesAgree(db, "SELECT * FROM l, r WHERE l.a = r.a");
  ExpectModesAgree(db,
                   "SELECT l.b, r.c FROM l LEFT JOIN r ON l.a = r.a");
  ExpectModesAgree(
      db, "SELECT * FROM l, r WHERE l.a = r.a AND l.b + r.c > 50");
}

TEST_P(JoinBoundaryTest, NestedLoopJoinRowAndBatchAgree) {
  Database db;
  // Cap the cross-product: NLJ sizes use min(n, 64) probe rows.
  BuildProbeSide(db, std::min<size_t>(GetParam(), 64));
  BuildBuildSide(db, /*with_index=*/false);
  // Non-equi predicate forces the nested-loop fallback.
  ExpectModesAgree(db, "SELECT * FROM l, r WHERE l.a < r.a");
}

INSTANTIATE_TEST_SUITE_P(BatchBoundaries, JoinBoundaryTest,
                         ::testing::Values(0, 1, 1023, 1024, 1025));

// ------------------------------------------- SQL-level mode differential

TEST(ExecModeDifferentialTest, WorkloadAgreesAcrossModes) {
  Database db;
  ASSERT_TRUE(
      db.Execute("CREATE TABLE t (id INTEGER, grp INTEGER, v DOUBLE, "
                 "s VARCHAR)")
          .ok());
  std::vector<std::string> tuples;
  for (int i = 0; i < 3000; ++i) {
    std::string v = (i % 17 == 0) ? "NULL" : std::to_string(i * 0.5);
    std::string s = (i % 23 == 0) ? "NULL" : "'s" + std::to_string(i % 50) + "'";
    tuples.push_back(std::string("(").append(std::to_string(i)) + ", " +
                     std::to_string(i % 7) + ", " + v + ", " + s + ")");
  }
  InsertRows(db, "t", tuples);

  const std::string queries[] = {
      "SELECT * FROM t",
      "SELECT * FROM t WHERE v > 100",
      "SELECT * FROM t WHERE v IS NULL",
      "SELECT id + grp, v * 2 FROM t WHERE grp <= 2",
      "SELECT DISTINCT grp FROM t",
      "SELECT grp, COUNT(*), SUM(v), MIN(s) FROM t GROUP BY grp",
      "SELECT * FROM t ORDER BY grp, id DESC LIMIT 10",
      "SELECT * FROM t ORDER BY id LIMIT 100 OFFSET 2995",
      "SELECT * FROM t WHERE id < 5 UNION ALL SELECT * FROM t "
      "WHERE id >= 2995",
      "WITH big AS (SELECT id, v FROM t WHERE v > 500) "
      "SELECT COUNT(*) FROM big",
      "SELECT a.id FROM t a, t b WHERE a.id = b.id AND a.grp = 0",
      "SELECT x.m FROM (SELECT grp, MAX(v) AS m FROM t GROUP BY grp) x "
      "WHERE x.m > 100",
      "SELECT CASE WHEN grp < 3 THEN 'lo' ELSE 'hi' END, COUNT(*) "
      "FROM t GROUP BY CASE WHEN grp < 3 THEN 'lo' ELSE 'hi' END",
  };
  for (const auto& q : queries) {
    ExpectModesAgree(db, q);
  }
}

TEST(ExecModeDifferentialTest, ProfiledQueryReportsOperatorStats) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (id INTEGER)").ok());
  std::vector<std::string> tuples;
  for (int i = 0; i < 2000; ++i) {
    tuples.push_back(std::string("(").append(std::to_string(i)) + ")");
  }
  InsertRows(db, "t", tuples);
  std::string profile;
  auto qr = db.QueryProfiled("SELECT id FROM t WHERE id >= 1000", &profile);
  ASSERT_TRUE(qr.ok()) << qr.status().ToString();
  EXPECT_EQ(qr->rows.size(), 1000u);
  EXPECT_NE(profile.find("SeqScan(t)"), std::string::npos) << profile;
  EXPECT_NE(profile.find("Filter"), std::string::npos) << profile;
  EXPECT_NE(profile.find("rows=1000"), std::string::npos) << profile;
  EXPECT_NE(profile.find("ms="), std::string::npos) << profile;
}

// ------------------------------------------------ serial engine end to end

/// `fact(id, grp, val)`: ids 0..kRows-1 in insertion order, grp = id % 10,
/// val = id * 7 % 101.
class SerialEngineTest : public ::testing::Test {
 protected:
  static constexpr int kRows = 3000;

  void SetUp() override {
    ASSERT_TRUE(
        db_.Execute("CREATE TABLE fact (id BIGINT, grp BIGINT, val BIGINT)")
            .ok());
    std::vector<std::string> tuples;
    for (int i = 0; i < kRows; ++i) {
      tuples.push_back(std::string("(").append(std::to_string(i)) + ", " +
                       std::to_string(i % 10) + ", " +
                       std::to_string(i * 7 % 101) + ")");
    }
    InsertRows(db_, "fact", tuples);
  }

  /// Streams \p sql under \p control, collecting every active row.
  Status Stream(const std::string& sql, const ExecControl* control,
                std::vector<Row>* rows,
                std::vector<std::string>* columns = nullptr) {
    return db_.QueryStreaming(sql, control, columns,
                              [&](const RowBatch& batch) -> Status {
                                for (size_t r = 0; r < batch.ActiveSize();
                                     ++r) {
                                  rows->push_back(batch.Active(r));
                                }
                                return Status::OK();
                              });
  }

  Database db_;
};

TEST_F(SerialEngineTest, CancelAfterSecondBatchOfHashSelfJoin) {
  std::atomic<bool> cancel{false};
  ExecControl control;
  control.cancel = &cancel;
  int batches = 0;
  Status st = db_.QueryStreaming(
      "SELECT f1.id FROM fact f1, fact f2 WHERE f1.grp = f2.grp", &control,
      nullptr, [&](const RowBatch&) -> Status {
        if (++batches == 2) cancel.store(true);
        return Status::OK();
      });
  EXPECT_EQ(st.code(), StatusCode::kCancelled) << st.ToString();
  // The join yields kRows * kRows / 10 rows; the token stops it at the
  // next batch boundary.
  EXPECT_EQ(batches, 2);
}

TEST_F(SerialEngineTest, ExpiredDeadlineStopsCteMaterialization) {
  ExecControl control;
  control.has_deadline = true;
  control.deadline = std::chrono::steady_clock::now() - std::chrono::seconds(1);
  std::vector<Row> rows;
  std::vector<std::string> columns;
  Status st = Stream("WITH c AS (SELECT id FROM fact WHERE val > 5) "
                     "SELECT id FROM c",
                     &control, &rows, &columns);
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded) << st.ToString();
  // The body never opened: the CTE, materialized during planning, failed.
  EXPECT_TRUE(columns.empty());
  EXPECT_TRUE(rows.empty());
}

TEST_F(SerialEngineTest, LimitReturnsLeadingRowsInScanOrder) {
  std::vector<Row> rows;
  ASSERT_TRUE(Stream("SELECT id FROM fact LIMIT 10", nullptr, &rows).ok());
  ASSERT_EQ(rows.size(), 10u);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i][0].AsInt(), static_cast<int64_t>(i));
  }
}

TEST_F(SerialEngineTest, JoinAgainstGroupBySubquery) {
  std::vector<Row> rows;
  ASSERT_TRUE(
      Stream("SELECT f.id, s.c FROM fact f, "
             "(SELECT grp AS g, COUNT(*) AS c FROM fact GROUP BY grp) s "
             "WHERE f.grp = s.g AND f.val > 90",
             nullptr, &rows)
          .ok());
  // Every group holds kRows / 10 ids, so each qualifying id pairs with
  // that count.
  std::multiset<std::pair<int64_t, int64_t>> expected;
  for (int64_t i = 0; i < kRows; ++i) {
    if (i * 7 % 101 > 90) expected.insert({i, kRows / 10});
  }
  std::multiset<std::pair<int64_t, int64_t>> got;
  for (const Row& r : rows) got.insert({r[0].AsInt(), r[1].AsInt()});
  EXPECT_FALSE(expected.empty());
  EXPECT_EQ(got, expected);
}

}  // namespace
}  // namespace rdfrel::sql
