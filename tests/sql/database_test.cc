#include "sql/database.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace rdfrel::sql {
namespace {

class DatabaseTest : public ::testing::Test {
 protected:
  // Names are ids, as the stores keep terms: ann 101, bob 102, cat 103,
  // dan 104, eve 105; departments empty 200, eng 201, sales 202.
  void SetUp() override {
    Exec("CREATE TABLE emp (id BIGINT, name BIGINT, dept BIGINT, "
         "salary DOUBLE)");
    Exec("CREATE TABLE dept (id BIGINT, dname BIGINT)");
    Exec("CREATE INDEX idx_emp_id ON emp (id)");
    Exec("CREATE INDEX idx_dept_id ON dept (id)");
    Exec("INSERT INTO dept VALUES (1, 201), (2, 202), (3, 200)");
    Exec("INSERT INTO emp VALUES "
         "(10, 101, 1, 100.0), "
         "(11, 102, 1, 90.0), "
         "(12, 103, 2, 80.0), "
         "(13, 104, NULL, 70.0)");
  }

  void Exec(const std::string& sql) {
    auto r = db_.Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  }

  QueryResult Q(const std::string& sql) {
    auto r = db_.Query(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? std::move(*r) : QueryResult{};
  }

  Database db_;
};

TEST_F(DatabaseTest, SelectStar) {
  auto r = Q("SELECT * FROM emp");
  EXPECT_EQ(r.columns.size(), 4u);
  EXPECT_EQ(r.rows.size(), 4u);
}

TEST_F(DatabaseTest, ProjectionAndAlias) {
  auto r = Q("SELECT name AS who, salary * 2 AS dbl FROM emp WHERE id = 10");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.columns, (std::vector<std::string>{"who", "dbl"}));
  EXPECT_EQ(r.rows[0][0].AsInt(), 101);
  EXPECT_DOUBLE_EQ(r.rows[0][1].AsDouble(), 200.0);
}

TEST_F(DatabaseTest, IndexScanOnEquality) {
  auto r = Q("SELECT name FROM emp WHERE id = 12");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 103);
}

TEST_F(DatabaseTest, InListOnIndexedColumnProbesEachKeyOnce) {
  // Repeated (12, and 10 as 10.0), absent (99) and NULL keys: each row
  // comes out once, and the index scan answers the IN without a filter.
  std::string profile;
  auto r = db_.QueryProfiled(
      "SELECT name FROM emp WHERE id IN (12, 10, 12, 99, 10.0, NULL)",
      &profile);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::vector<int64_t> names;
  for (const auto& row : r->rows) names.push_back(row[0].AsInt());
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<int64_t>{101, 103}));
  EXPECT_NE(profile.find("IndexScan(emp)"), std::string::npos) << profile;
  EXPECT_EQ(profile.find("Filter"), std::string::npos) << profile;
  EXPECT_TRUE(Q("SELECT name FROM emp WHERE id IN (98, 99)").rows.empty());
  EXPECT_TRUE(Q("SELECT name FROM emp WHERE id IN (NULL)").rows.empty());
}

TEST_F(DatabaseTest, InListOnUnindexedColumnFilters) {
  auto r = Q("SELECT name FROM emp WHERE salary IN (90, 70.0, 1)");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 102);
  EXPECT_EQ(r.rows[1][0].AsInt(), 104);
}

TEST_F(DatabaseTest, RowValueInListOverAJoin) {
  auto r = Q(
      "SELECT e.name FROM emp AS e, dept AS d WHERE e.dept = d.id AND "
      "(e.id, d.dname) IN ((10, 201), (12, 201), (11, 290))");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 101);
  // A NULL operand never passes a WHERE.
  EXPECT_TRUE(Q("SELECT name FROM emp WHERE (dept, id) IN ((NULL, 13))")
                  .rows.empty());
}

/// Sorted rows of \p r, rendered for comparison.
std::vector<std::string> SortedRows(const QueryResult& r) {
  std::vector<std::string> out;
  for (const auto& row : r.rows) {
    std::string line;
    for (const auto& v : row) line += v.ToString() + "|";
    out.push_back(std::move(line));
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST_F(DatabaseTest, NumericKeysMatchAcrossIntAndDouble) {
  // An index finds a key written as the other numeric type: 5 in a DOUBLE
  // column (stored as 5.0) and 5.0 against a BIGINT column. Each indexed
  // table must answer exactly as its unindexed twin.
  for (const char* t : {"d_idx", "d_seq"}) {
    Exec(std::string("CREATE TABLE ") + t + " (x DOUBLE, tag BIGINT)");
    Exec(std::string("INSERT INTO ") + t +
         " VALUES (5, 1), (5.0, 2), (5.5, 3), (7, 4), (NULL, 5)");
  }
  for (const char* t : {"i_idx", "i_seq"}) {
    Exec(std::string("CREATE TABLE ") + t + " (k BIGINT, tag BIGINT)");
    Exec(std::string("INSERT INTO ") + t +
         " VALUES (5, 1), (5, 2), (6, 3), (7, 4), (NULL, 5)");
  }
  Exec("CREATE INDEX d_idx_x ON d_idx (x)");
  Exec("CREATE INDEX i_idx_k ON i_idx (k)");
  Exec("CREATE TABLE probe_i (v BIGINT)");
  Exec("INSERT INTO probe_i VALUES (5), (7), (8)");
  Exec("CREATE TABLE probe_d (v DOUBLE)");
  Exec("INSERT INTO probe_d VALUES (5.0), (5.5), (7.0), (6.5)");

  struct Case {
    std::string indexed;
    std::string unindexed;
    std::string op;
  };
  const std::vector<Case> cases = {
      {"SELECT tag FROM d_idx WHERE x = 5",
       "SELECT tag FROM d_seq WHERE x = 5", "IndexScan(d_idx)"},
      {"SELECT tag FROM i_idx WHERE k = 5.0",
       "SELECT tag FROM i_seq WHERE k = 5.0", "IndexScan(i_idx)"},
      {"SELECT p.v, t.tag FROM probe_i AS p, d_idx AS t WHERE p.v = t.x",
       "SELECT p.v, t.tag FROM probe_i AS p, d_seq AS t WHERE p.v = t.x",
       "IndexNLJoin(d_idx)"},
      {"SELECT p.v, t.tag FROM probe_d AS p, i_idx AS t WHERE p.v = t.k",
       "SELECT p.v, t.tag FROM probe_d AS p, i_seq AS t WHERE p.v = t.k",
       "IndexNLJoin(i_idx)"},
  };
  for (const Case& c : cases) {
    std::string profile;
    auto indexed = db_.QueryProfiled(c.indexed, &profile);
    ASSERT_TRUE(indexed.ok()) << c.indexed << " -> "
                              << indexed.status().ToString();
    EXPECT_NE(profile.find(c.op), std::string::npos) << profile;
    const QueryResult unindexed = Q(c.unindexed);
    EXPECT_FALSE(unindexed.rows.empty()) << c.unindexed;
    EXPECT_EQ(SortedRows(*indexed), SortedRows(unindexed)) << c.indexed;
  }
}

TEST_F(DatabaseTest, FilterNonIndexed) {
  auto r = Q("SELECT name FROM emp WHERE salary >= 90.0");
  EXPECT_EQ(r.rows.size(), 2u);
}

TEST_F(DatabaseTest, CommaJoinUsesEquiPred) {
  auto r = Q("SELECT e.name, d.dname FROM emp e, dept d "
             "WHERE e.dept = d.id");
  // dan has NULL dept -> no join
  EXPECT_EQ(SortedRows(r),
            (std::vector<std::string>{"101|201|", "102|201|", "103|202|"}));
}

TEST_F(DatabaseTest, ExplicitInnerJoin) {
  // Inner joins are comma joins with WHERE predicates; [INNER] JOIN is not
  // in the subset.
  for (const char* join : {"JOIN", "INNER JOIN"}) {
    EXPECT_TRUE(db_.Query(std::string("SELECT e.name FROM emp e ") + join +
                          " dept d ON e.dept = d.id")
                    .status()
                    .IsParseError())
        << join;
  }
  auto r = Q("SELECT e.name FROM emp e, dept d "
             "WHERE e.dept = d.id AND d.dname = 201");
  EXPECT_EQ(SortedRows(r), (std::vector<std::string>{"101|", "102|"}));
}

TEST_F(DatabaseTest, LeftOuterJoinPadsNulls) {
  auto r = Q("SELECT e.name, d.dname FROM emp e "
             "LEFT OUTER JOIN dept d ON e.dept = d.id");
  // dan's dept is NULL -> dname NULL.
  EXPECT_EQ(SortedRows(r), (std::vector<std::string>{"101|201|", "102|201|",
                                                     "103|202|",
                                                     "104|NULL|"}));
}

TEST_F(DatabaseTest, LeftOuterJoinUnmatchedRight) {
  auto r = Q("SELECT d.dname, e.name FROM dept d "
             "LEFT OUTER JOIN emp e ON d.id = e.dept");
  // eng x2, sales x1, empty x1 (padded).
  EXPECT_EQ(SortedRows(r), (std::vector<std::string>{"200|NULL|", "201|101|",
                                                     "201|102|",
                                                     "202|103|"}));
}

TEST_F(DatabaseTest, CrossJoinNoPredicate) {
  auto r = Q("SELECT e.name FROM emp e, dept d");
  EXPECT_EQ(r.rows.size(), 12u);
}

TEST_F(DatabaseTest, UnionAll) {
  auto r = Q("SELECT name FROM emp WHERE dept = 1 "
             "UNION ALL SELECT dname FROM dept");
  EXPECT_EQ(r.rows.size(), 5u);
}

TEST_F(DatabaseTest, UnionAllArityMismatchRejected) {
  auto st = db_.Query("SELECT id, name FROM emp UNION ALL SELECT id FROM dept")
                .status();
  EXPECT_TRUE(st.IsInvalidArgument());
}

TEST_F(DatabaseTest, Distinct) {
  auto r = Q("SELECT DISTINCT dept FROM emp");
  EXPECT_EQ(r.rows.size(), 3u);  // 1, 2, NULL
}

TEST_F(DatabaseTest, OrderByDescAndLimit) {
  // The stores sort decoded terms, so SQL ORDER BY is a parse error, in a
  // CTE body too.
  for (const char* sql :
       {"SELECT name FROM emp ORDER BY salary DESC LIMIT 2",
        "WITH t AS (SELECT name FROM emp ORDER BY name) SELECT name FROM t"}) {
    const Status st = db_.Query(sql).status();
    EXPECT_TRUE(st.IsParseError()) << sql;
    EXPECT_NE(st.message().find("decoded terms"), std::string::npos)
        << st.ToString();
  }
}

TEST_F(DatabaseTest, LimitOffset) {
  // A sequential scan returns rows in insertion order.
  auto r = Q("SELECT name FROM emp LIMIT 2 OFFSET 1");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 102);
  EXPECT_EQ(r.rows[1][0].AsInt(), 103);
}

TEST_F(DatabaseTest, CteChain) {
  auto r = Q("WITH eng AS (SELECT id, name FROM emp WHERE dept = 1), "
             "top AS (SELECT name FROM eng WHERE id = 10) "
             "SELECT name FROM top");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 101);
}

TEST_F(DatabaseTest, CteReferencedTwice) {
  auto r = Q("WITH e AS (SELECT id FROM emp WHERE dept = 1) "
             "SELECT a.id, b.id FROM e a, e b WHERE a.id = b.id");
  EXPECT_EQ(r.rows.size(), 2u);
}

TEST_F(DatabaseTest, CteJoinedToIndexedBaseTable) {
  // The DB2RDF translation shape: a CTE driving an index probe into a base
  // table listed first in FROM (planner must flip the join orientation).
  auto r = Q("WITH seed AS (SELECT id AS eid FROM emp WHERE dept = 2) "
             "SELECT t.name FROM emp AS t, seed WHERE t.id = seed.eid");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 103);
}

TEST_F(DatabaseTest, DerivedTable) {
  // CTEs are the only materialization: a derived table is a parse error.
  EXPECT_TRUE(
      db_.Query("SELECT q.name FROM (SELECT name FROM emp WHERE dept = 1) q")
          .status()
          .IsParseError());
  auto r = Q("WITH q AS (SELECT name FROM emp WHERE dept = 1) "
             "SELECT q.name FROM q");
  EXPECT_EQ(SortedRows(r), (std::vector<std::string>{"101|", "102|"}));
}

TEST_F(DatabaseTest, UnnestFlipsColumnsToRows) {
  auto r = Q("SELECT e.name, lt.v FROM emp e, UNNEST(e.id, e.dept) AS lt(v) "
             "WHERE e.name = 101");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][1].AsInt(), 10);
  EXPECT_EQ(r.rows[1][1].AsInt(), 1);
}

TEST_F(DatabaseTest, UnnestKeepsNullsForIsNotNullFiltering) {
  auto r = Q("SELECT lt.v FROM emp e, UNNEST(e.dept) AS lt(v) "
             "WHERE lt.v IS NOT NULL");
  EXPECT_EQ(r.rows.size(), 3u);  // dan's NULL dept filtered out
}

TEST_F(DatabaseTest, CaseAndCoalesceInProjection) {
  auto r = Q("SELECT name, CASE WHEN dept = 1 THEN 201 ELSE 299 END "
             "AS tag, COALESCE(dept, -1) AS d FROM emp");
  EXPECT_EQ(SortedRows(r),
            (std::vector<std::string>{"101|201|1|", "102|201|1|",
                                      "103|299|2|", "104|299|-1|"}));
}

TEST_F(DatabaseTest, WherePredicateOnUnknownColumnRejected) {
  EXPECT_FALSE(db_.Query("SELECT name FROM emp WHERE nothere = 1").ok());
}

TEST_F(DatabaseTest, UnknownTableRejected) {
  EXPECT_TRUE(db_.Query("SELECT x FROM missing").status().IsNotFound());
}

TEST_F(DatabaseTest, InsertArityMismatchRejected) {
  auto st = db_.Execute("INSERT INTO dept (id) VALUES (7, 290)").status();
  EXPECT_TRUE(st.IsInvalidArgument());
}

TEST_F(DatabaseTest, InsertPartialColumnsDefaultsNull) {
  Exec("INSERT INTO emp (id, name) VALUES (99, 105)");
  auto r = Q("SELECT salary FROM emp WHERE id = 99");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_TRUE(r.rows[0][0].is_null());
}

TEST_F(DatabaseTest, PaperFigure13Shape) {
  // A structurally faithful miniature of the paper's generated SQL: CTE
  // chain, OR-merged predicate test with CASE projection, UNNEST flip,
  // then LEFT OUTER JOIN for the OPTIONAL part.
  Exec("CREATE TABLE dph (entry BIGINT, spill BIGINT, "
       "pred0 BIGINT, val0 BIGINT, pred1 BIGINT, val1 BIGINT)");
  Exec("CREATE INDEX idx_dph_entry ON dph (entry)");
  // entity 1: pred0=100 (founder) -> 7, pred1=101 (member) -> 8
  Exec("INSERT INTO dph VALUES (1, 0, 100, 7, 101, 8)");
  // entity 2: only founder.
  Exec("INSERT INTO dph VALUES (2, 0, 100, 9, NULL, NULL)");
  // entity 3: nothing relevant.
  Exec("INSERT INTO dph VALUES (3, 0, 102, 5, NULL, NULL)");

  auto r = Q(
      "WITH q23 AS ("
      "  SELECT T.entry AS x, "
      "    CASE WHEN T.pred0 = 100 THEN T.val0 ELSE NULL END AS v0, "
      "    CASE WHEN T.pred1 = 101 THEN T.val1 ELSE NULL END AS v1 "
      "  FROM dph AS T WHERE T.pred0 = 100 OR T.pred1 = 101), "
      "flip AS ("
      "  SELECT q23.x, lt.y FROM q23, UNNEST(q23.v0, q23.v1) AS lt(y) "
      "  WHERE lt.y IS NOT NULL) "
      "SELECT x, y FROM flip");
  EXPECT_EQ(SortedRows(r), (std::vector<std::string>{"1|7|", "1|8|", "2|9|"}));
}

TEST_F(DatabaseTest, GlobalAggregates) {
  auto r = Q("SELECT COUNT(*), COUNT(dept), MIN(salary), MAX(salary), "
             "SUM(salary), AVG(salary) FROM emp");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 4);  // COUNT(*)
  EXPECT_EQ(r.rows[0][1].AsInt(), 3);  // COUNT(dept): dan's NULL skipped
  EXPECT_DOUBLE_EQ(r.rows[0][2].AsDouble(), 70.0);
  EXPECT_DOUBLE_EQ(r.rows[0][3].AsDouble(), 100.0);
  EXPECT_DOUBLE_EQ(r.rows[0][4].AsDouble(), 340.0);
  EXPECT_DOUBLE_EQ(r.rows[0][5].AsDouble(), 85.0);
}

TEST_F(DatabaseTest, GlobalAggregateOverEmptyInput) {
  auto r = Q("SELECT COUNT(*), MAX(salary) FROM emp WHERE id = 999");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 0);
  EXPECT_TRUE(r.rows[0][1].is_null());
}

TEST_F(DatabaseTest, GroupByCounts) {
  auto r = Q("SELECT dept, COUNT(*) AS n FROM emp GROUP BY dept");
  // dept 1 (ann, bob), dept 2, and the NULL dept as its own group.
  EXPECT_EQ(SortedRows(r),
            (std::vector<std::string>{"1|2|", "2|1|", "NULL|1|"}));
}

TEST_F(DatabaseTest, GroupByWithJoinAndHaving) {
  // No HAVING in the subset; filter the grouped CTE instead.
  auto r = Q("WITH q AS (SELECT d.dname AS dname, COUNT(*) AS n "
             "FROM emp e, dept d WHERE e.dept = d.id GROUP BY d.dname) "
             "SELECT q.dname, q.n FROM q WHERE q.n > 1");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 201);
  EXPECT_EQ(r.rows[0][1].AsInt(), 2);
}

TEST_F(DatabaseTest, CountDistinct) {
  auto r = Q("SELECT COUNT(DISTINCT dept) FROM emp");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 2);  // 1 and 2; NULL not counted
}

TEST_F(DatabaseTest, NonAggregateItemMustBeGrouped) {
  auto st =
      db_.Query("SELECT name, COUNT(*) FROM emp GROUP BY dept").status();
  EXPECT_TRUE(st.IsInvalidArgument());
}

TEST_F(DatabaseTest, AggregateInCte) {
  auto r = Q("WITH sizes AS (SELECT dept, COUNT(*) AS n FROM emp "
             "GROUP BY dept) "
             "SELECT d.dname FROM sizes, dept d "
             "WHERE sizes.dept = d.id AND sizes.n = 1");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 202);
}

}  // namespace
}  // namespace rdfrel::sql
