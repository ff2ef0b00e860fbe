/// Vectorized-execution tests: RowBatch semantics, the NextBatch wrapper's
/// counters, and the join operators at batch-boundary input sizes (0, 1,
/// capacity-1, capacity, capacity+1), with duplicate build keys and NULL
/// join keys, checked against rows each test computes from its own
/// generated tuples; plus serial end-to-end checks of cancellation,
/// deadlines during CTE materialization, LIMIT order and joins against
/// materialized subqueries.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <optional>
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

// ------------------------------------------------------ NextBatch wrapper

/// Emits 0..n-1 in batches of at most \p chunk rows.
class CountingOp final : public Operator {
 public:
  CountingOp(int n, size_t chunk) : n_(n), chunk_(chunk) {
    scope_.Add("t", "x");
  }
  Status Open() override {
    pos_ = 0;
    return Status::OK();
  }
  std::string name() const override { return "Counting"; }

 protected:
  Result<bool> NextBatchImpl(RowBatch* out) override {
    if (pos_ >= n_) return false;
    for (size_t i = 0; i < chunk_ && pos_ < n_; ++i) {
      out->AddRow()->assign({Value::Int(pos_++)});
    }
    return true;
  }

 private:
  int n_;
  size_t chunk_;
  int pos_ = 0;
};

TEST(NextBatchTest, CountsActiveRowsAndBatches) {
  CountingOp op(2500, RowBatch::kDefaultCapacity);
  ASSERT_TRUE(op.Open().ok());
  RowBatch batch;
  int64_t total = 0;
  int batches = 0;
  while (true) {
    auto has = op.NextBatch(&batch);
    ASSERT_TRUE(has.ok());
    if (!*has) break;
    ++batches;
    for (size_t i = 0; i < batch.ActiveSize(); ++i) {
      EXPECT_EQ(batch.Active(i)[0].AsInt(), total++);
    }
  }
  EXPECT_EQ(total, 2500);
  EXPECT_EQ(batches, 3);  // 1024 + 1024 + 452
  EXPECT_EQ(op.stats().rows, 2500u);
  EXPECT_EQ(op.stats().batches, 3u);
}

TEST(NextBatchTest, EmptyStreamYieldsNoBatch) {
  CountingOp op(0, 8);
  ASSERT_TRUE(op.Open().ok());
  RowBatch batch;
  auto has = op.NextBatch(&batch);
  ASSERT_TRUE(has.ok());
  EXPECT_FALSE(*has);
  EXPECT_EQ(op.stats().batches, 0u);
}

// -------------------------------- join edge cases against expected rows

using Expected = std::vector<Row>;

std::string RowSig(const Row& row) {
  std::string s;
  for (const auto& v : row) {
    s += v.ToString();
    s += "\x1f";
  }
  return s;
}

std::multiset<std::string> Sig(const std::vector<Row>& rows) {
  std::multiset<std::string> out;
  for (const auto& row : rows) out.insert(RowSig(row));
  return out;
}

/// Runs \p q with profiling and asserts that the plan contains \p op (when
/// non-empty) and that the answer equals \p expected — as a multiset, or in
/// order when \p ordered. Returns the row count.
size_t ExpectRows(Database& db, const std::string& q, const Expected& expected,
                  const std::string& op = "", bool ordered = false) {
  std::string profile;
  auto res = db.QueryProfiled(q, &profile);
  EXPECT_TRUE(res.ok()) << q << "\n" << res.status().ToString();
  if (!res.ok()) return 0;
  if (!op.empty()) {
    EXPECT_NE(profile.find(op), std::string::npos) << q << "\n" << profile;
  }
  if (ordered) {
    std::vector<std::string> got, want;
    for (const auto& r : res->rows) got.push_back(RowSig(r));
    for (const auto& r : expected) want.push_back(RowSig(r));
    EXPECT_EQ(got, want) << q;
  } else {
    EXPECT_EQ(Sig(res->rows), Sig(expected))
        << q << "\nengine: " << res->rows.size()
        << " rows, expected: " << expected.size() << " rows";
  }
  return res->rows.size();
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

Value IntOrNull(std::optional<int64_t> v) {
  return v.has_value() ? Value::Int(*v) : Value::Null();
}

/// The probe table `l(a,b)` with \p n rows: key cycles over 0..12 (hitting
/// duplicated and absent build keys), every 10th key is NULL; b = row index.
struct ProbeRow {
  std::optional<int64_t> a;
  int64_t b;
};
std::vector<ProbeRow> BuildProbeSide(Database& db, size_t n) {
  EXPECT_TRUE(db.Execute("CREATE TABLE l (a INTEGER, b INTEGER)").ok());
  std::vector<ProbeRow> rows;
  std::vector<std::string> tuples;
  for (size_t i = 0; i < n; ++i) {
    ProbeRow r{std::nullopt, static_cast<int64_t>(i)};
    if (i % 10 != 9) r.a = static_cast<int64_t>(i % 13);
    rows.push_back(r);
    tuples.push_back("(" + (r.a ? std::to_string(*r.a) : "NULL") + ", " +
                     std::to_string(i) + ")");
  }
  InsertRows(db, "l", tuples);
  return rows;
}

/// The build-side table `r(a,c)`: keys 0..6 each duplicated 3x with
/// c = dup * 100 + key, plus two NULL-key rows (which must never join).
struct BuildRow {
  std::optional<int64_t> a;
  int64_t c;
};
std::vector<BuildRow> BuildBuildSide(Database& db, bool with_index) {
  EXPECT_TRUE(db.Execute("CREATE TABLE r (a INTEGER, c INTEGER)").ok());
  std::vector<BuildRow> rows;
  for (int64_t dup = 0; dup < 3; ++dup) {
    for (int64_t k = 0; k < 7; ++k) rows.push_back({k, dup * 100 + k});
  }
  rows.push_back({std::nullopt, 900});
  rows.push_back({std::nullopt, 901});
  std::vector<std::string> tuples;
  for (const auto& r : rows) {
    tuples.push_back("(" + (r.a ? std::to_string(*r.a) : "NULL") + ", " +
                     std::to_string(r.c) + ")");
  }
  InsertRows(db, "r", tuples);
  if (with_index) {
    EXPECT_TRUE(db.Execute("CREATE INDEX idx_r_a ON r (a)").ok());
  }
  return rows;
}

/// Expected rows of `l JOIN r ON pred` projected as (l.a, l.b, r.a, r.c) —
/// or, with \p outer_bc, `l LEFT JOIN r ON pred` projected as (l.b, r.c).
template <typename Pred>
Expected JoinRows(const std::vector<ProbeRow>& l,
                  const std::vector<BuildRow>& r, Pred pred,
                  bool outer_bc = false) {
  Expected out;
  for (const auto& lr : l) {
    bool matched = false;
    for (const auto& rr : r) {
      if (!pred(lr, rr)) continue;
      matched = true;
      if (outer_bc) {
        out.push_back({Value::Int(lr.b), Value::Int(rr.c)});
      } else {
        out.push_back(
            {IntOrNull(lr.a), Value::Int(lr.b), IntOrNull(rr.a),
             Value::Int(rr.c)});
      }
    }
    if (outer_bc && !matched) out.push_back({Value::Int(lr.b), Value::Null()});
  }
  return out;
}

bool EquiKey(const ProbeRow& l, const BuildRow& r) {
  return l.a && r.a && *l.a == *r.a;
}
bool LessKey(const ProbeRow& l, const BuildRow& r) {
  return l.a && r.a && *l.a < *r.a;
}

// The test names predate the deletion of the row-at-a-time executor; each
// now checks the batch engine against rows computed from the tuples.
class JoinBoundaryTest : public ::testing::TestWithParam<size_t> {};

void ExpectEquiJoins(Database& db, const std::vector<ProbeRow>& l,
                     const std::vector<BuildRow>& r, const std::string& op) {
  ExpectRows(db, "SELECT * FROM l, r WHERE l.a = r.a",
             JoinRows(l, r, EquiKey), op);
  ExpectRows(db, "SELECT l.b, r.c FROM l LEFT JOIN r ON l.a = r.a",
             JoinRows(l, r, EquiKey, /*outer_bc=*/true), op);
  // Residual predicate on top of the equi-key.
  ExpectRows(db, "SELECT * FROM l, r WHERE l.a = r.a AND l.b + r.c > 50",
             JoinRows(l, r,
                      [](const ProbeRow& lr, const BuildRow& rr) {
                        return EquiKey(lr, rr) && lr.b + rr.c > 50;
                      }),
             op);
}

TEST_P(JoinBoundaryTest, HashJoinRowAndBatchAgree) {
  Database db;
  auto l = BuildProbeSide(db, GetParam());
  auto r = BuildBuildSide(db, /*with_index=*/false);  // no index => hash join
  ExpectEquiJoins(db, l, r, "HashJoin");
}

TEST_P(JoinBoundaryTest, IndexNLJoinRowAndBatchAgree) {
  Database db;
  auto l = BuildProbeSide(db, GetParam());
  auto r = BuildBuildSide(db, /*with_index=*/true);  // index => index NL join
  ExpectEquiJoins(db, l, r, "IndexNLJoin");
}

TEST_P(JoinBoundaryTest, NestedLoopJoinRowAndBatchAgree) {
  Database db;
  auto l = BuildProbeSide(db, GetParam());
  auto r = BuildBuildSide(db, /*with_index=*/false);
  // Non-equi predicates force the nested-loop fallback.
  ExpectRows(db, "SELECT * FROM l, r WHERE l.a < r.a",
             JoinRows(l, r, LessKey), "NestedLoopJoin");
  ExpectRows(db, "SELECT l.b, r.c FROM l LEFT JOIN r ON l.a < r.a",
             JoinRows(l, r, LessKey, /*outer_bc=*/true), "NestedLoopJoin");
  // Residuals, inner and left-outer.
  ExpectRows(db, "SELECT * FROM l, r WHERE l.a < r.a AND l.b + r.c > 150",
             JoinRows(l, r,
                      [](const ProbeRow& lr, const BuildRow& rr) {
                        return LessKey(lr, rr) && lr.b + rr.c > 150;
                      }),
             "NestedLoopJoin");
  ExpectRows(db,
             "SELECT l.b, r.c FROM l LEFT JOIN r ON l.a < r.a AND r.c > 100",
             JoinRows(l, r,
                      [](const ProbeRow& lr, const BuildRow& rr) {
                        return LessKey(lr, rr) && rr.c > 100;
                      },
                      /*outer_bc=*/true),
             "NestedLoopJoin");
}

INSTANTIATE_TEST_SUITE_P(BatchBoundaries, JoinBoundaryTest,
                         ::testing::Values(0, 1, 1023, 1024, 1025));

// ------------------------------------ SQL-level checks on generated tuples

TEST(ExecModeDifferentialTest, WorkloadAgreesAcrossModes) {
  // t(id, grp, v, s): grp = id % 7; v = id * 0.5, NULL when id % 17 == 0;
  // s = 's' + id % 50, NULL when id % 23 == 0.
  constexpr int kRows = 3000;
  Database db;
  ASSERT_TRUE(
      db.Execute("CREATE TABLE t (id INTEGER, grp INTEGER, v DOUBLE, "
                 "s VARCHAR)")
          .ok());
  auto v_of = [](int i) -> std::optional<double> {
    if (i % 17 == 0) return std::nullopt;
    return i * 0.5;
  };
  auto s_of = [](int i) -> std::optional<std::string> {
    if (i % 23 == 0) return std::nullopt;
    return "s" + std::to_string(i % 50);
  };
  auto tuple = [&](int i) -> Row {
    return {Value::Int(i), Value::Int(i % 7),
            v_of(i) ? Value::Real(*v_of(i)) : Value::Null(),
            s_of(i) ? Value::Str(*s_of(i)) : Value::Null()};
  };
  std::vector<std::string> tuples;
  for (int i = 0; i < kRows; ++i) {
    std::string v = v_of(i) ? std::to_string(*v_of(i)) : "NULL";
    std::string s = s_of(i) ? "'" + *s_of(i) + "'" : "NULL";
    tuples.push_back(std::string("(").append(std::to_string(i)) + ", " +
                     std::to_string(i % 7) + ", " + v + ", " + s + ")");
  }
  InsertRows(db, "t", tuples);

  Expected all, v_gt_100, v_null, computed, grp0, low_and_high;
  std::map<int, Row> per_grp;  // grp -> (grp, COUNT(*), SUM(v), MIN(s))
  std::map<int, double> max_v;
  int64_t v_gt_500 = 0, lo = 0;
  for (int i = 0; i < kRows; ++i) {
    const Row row = tuple(i);
    all.push_back(row);
    const auto v = v_of(i);
    if (v && *v > 100) v_gt_100.push_back(row);
    if (v && *v > 500) ++v_gt_500;
    if (!v) v_null.push_back(row);
    if (i % 7 <= 2) {
      computed.push_back({Value::Int(i + i % 7),
                          v ? Value::Real(*v * 2) : Value::Null()});
      ++lo;
    }
    if (i % 7 == 0) grp0.push_back({Value::Int(i)});
    if (i < 5 || i >= 2995) low_and_high.push_back(row);
    Row& g = per_grp.try_emplace(i % 7, Row{Value::Int(i % 7), Value::Int(0),
                                            Value::Null(), Value::Null()})
                 .first->second;
    g[1] = Value::Int(g[1].AsInt() + 1);
    if (v) {
      g[2] = Value::Real((g[2].is_null() ? 0.0 : g[2].AsDouble()) + *v);
      auto [it, fresh] = max_v.try_emplace(i % 7, *v);
      if (!fresh) it->second = std::max(it->second, *v);
    }
    const auto s = s_of(i);
    if (s && (g[3].is_null() || *s < g[3].AsString())) g[3] = Value::Str(*s);
  }
  Expected distinct_grp, grouped, max_over_100;
  for (const auto& [grp, row] : per_grp) {
    distinct_grp.push_back({Value::Int(grp)});
    grouped.push_back(row);
  }
  for (const auto& [grp, m] : max_v) {
    if (m > 100) max_over_100.push_back({Value::Real(m)});
  }
  // ORDER BY grp, id DESC LIMIT 10: grp 0 holds the multiples of 7.
  Expected top10;
  for (int i = (kRows - 1) / 7 * 7; top10.size() < 10; i -= 7) {
    top10.push_back(tuple(i));
  }
  Expected tail;
  for (int i = 2995; i < kRows; ++i) tail.push_back(tuple(i));

  ExpectRows(db, "SELECT * FROM t", all);
  ExpectRows(db, "SELECT * FROM t WHERE v > 100", v_gt_100);
  ExpectRows(db, "SELECT * FROM t WHERE v IS NULL", v_null);
  ExpectRows(db, "SELECT id + grp, v * 2 FROM t WHERE grp <= 2", computed);
  ExpectRows(db, "SELECT DISTINCT grp FROM t", distinct_grp);
  ExpectRows(db, "SELECT grp, COUNT(*), SUM(v), MIN(s) FROM t GROUP BY grp",
             grouped);
  ExpectRows(db, "SELECT * FROM t ORDER BY grp, id DESC LIMIT 10", top10, "",
             /*ordered=*/true);
  ExpectRows(db, "SELECT * FROM t ORDER BY id LIMIT 100 OFFSET 2995", tail,
             "", /*ordered=*/true);
  ExpectRows(db,
             "SELECT * FROM t WHERE id < 5 UNION ALL SELECT * FROM t "
             "WHERE id >= 2995",
             low_and_high);
  ExpectRows(db,
             "WITH big AS (SELECT id, v FROM t WHERE v > 500) "
             "SELECT COUNT(*) FROM big",
             {{Value::Int(v_gt_500)}});
  ExpectRows(db, "SELECT a.id FROM t a, t b WHERE a.id = b.id AND a.grp = 0",
             grp0);
  ExpectRows(db,
             "SELECT x.m FROM (SELECT grp, MAX(v) AS m FROM t GROUP BY grp) x "
             "WHERE x.m > 100",
             max_over_100);
  ExpectRows(db,
             "SELECT CASE WHEN grp < 3 THEN 'lo' ELSE 'hi' END, COUNT(*) "
             "FROM t GROUP BY CASE WHEN grp < 3 THEN 'lo' ELSE 'hi' END",
             {{Value::Str("lo"), Value::Int(lo)},
              {Value::Str("hi"), Value::Int(kRows - lo)}});
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
