#include "sql/parser.h"

#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "sql/lexer.h"

namespace rdfrel::sql {
namespace {

using ast::ExprKind;
using ast::FromKind;
using ast::JoinType;
using ast::StatementKind;

TEST(LexerTest, BasicTokens) {
  auto toks = LexSql("SELECT a.b, 'it''s' FROM t WHERE x <= 1.5 -- c\n;");
  ASSERT_TRUE(toks.ok());
  std::vector<std::string> texts;
  for (const auto& t : *toks) texts.push_back(t.text);
  EXPECT_EQ(texts,
            (std::vector<std::string>{"SELECT", "a", ".", "b", ",", "it's",
                                      "FROM", "t", "WHERE", "x", "<=", "1.5",
                                      ";", ""}));
}

TEST(LexerTest, RejectsUnterminatedString) {
  EXPECT_TRUE(LexSql("SELECT 'oops").status().IsParseError());
}

TEST(LexerTest, NumbersAndExponents) {
  auto toks = LexSql("1 2.5 3e4 5e 6E+2");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ((*toks)[0].kind, TokenKind::kInteger);
  EXPECT_EQ((*toks)[1].kind, TokenKind::kFloat);
  EXPECT_EQ((*toks)[2].kind, TokenKind::kFloat);
  EXPECT_EQ((*toks)[3].kind, TokenKind::kInteger);  // "5" then ident "e"
  EXPECT_EQ((*toks)[4].text, "e");
  EXPECT_EQ((*toks)[5].kind, TokenKind::kFloat);
}

TEST(ParserTest, SimpleSelect) {
  auto r = ParseSelect("SELECT a, b FROM t WHERE a = 1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto& stmt = **r;
  ASSERT_EQ(stmt.cores.size(), 1u);
  const auto& core = stmt.cores[0];
  EXPECT_EQ(core.items.size(), 2u);
  EXPECT_EQ(core.from.size(), 1u);
  EXPECT_EQ(core.from[0].table_name, "t");
  EXPECT_EQ(core.from[0].alias, "t");
  ASSERT_NE(core.where, nullptr);
  EXPECT_EQ(core.where->kind, ExprKind::kBinary);
}

TEST(ParserTest, AliasesWithAndWithoutAs) {
  auto r = ParseSelect("SELECT x AS a, y b FROM t1 AS u, t2 v");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto& core = (*r)->cores[0];
  EXPECT_EQ(core.items[0].alias, "a");
  EXPECT_EQ(core.items[1].alias, "b");
  EXPECT_EQ(core.from[0].alias, "u");
  EXPECT_EQ(core.from[1].alias, "v");
}

TEST(ParserTest, JoinForms) {
  auto r = ParseSelect(
      "SELECT * FROM a LEFT OUTER JOIN b ON a.x = b.y, c "
      "LEFT JOIN d ON d.z = a.x");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto& core = (*r)->cores[0];
  ASSERT_EQ(core.from.size(), 4u);
  EXPECT_EQ(core.from[1].join, JoinType::kLeftOuter);
  ASSERT_NE(core.from[1].on, nullptr);
  EXPECT_EQ(core.from[2].join, JoinType::kComma);
  EXPECT_EQ(core.from[2].on, nullptr);
  EXPECT_EQ(core.from[3].join, JoinType::kLeftOuter);
}

TEST(ParserTest, RejectsBareJoin) {
  // Inner joins are comma joins; the error names the keyword.
  const std::pair<const char*, const char*> cases[] = {
      {"SELECT * FROM a JOIN b ON a.x = b.y", "near 'JOIN'"},
      {"SELECT * FROM a INNER JOIN b ON a.x = b.y", "near 'INNER'"},
      {"SELECT * FROM a AS t, b JOIN c ON t.x = c.y", "near 'JOIN'"},
  };
  for (const auto& [sql, near] : cases) {
    auto r = ParseSelect(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_TRUE(r.status().IsParseError()) << r.status().ToString();
    EXPECT_NE(r.status().message().find(near), std::string::npos)
        << r.status().ToString();
  }
}

TEST(ParserTest, WithCtes) {
  auto r = ParseSelect(
      "WITH q1 AS (SELECT a FROM t), q2 AS (SELECT a FROM q1) "
      "SELECT a FROM q2");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ((*r)->ctes.size(), 2u);
  EXPECT_EQ((*r)->ctes[0].name, "q1");
  EXPECT_EQ((*r)->ctes[1].name, "q2");
}

TEST(ParserTest, UnionAllOrderLimit) {
  auto r = ParseSelect(
      "SELECT a FROM t UNION ALL SELECT b FROM u LIMIT 10 OFFSET 5");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*r)->cores.size(), 2u);
  EXPECT_EQ((*r)->limit, 10);
  EXPECT_EQ((*r)->offset, 5);
  EXPECT_TRUE(ParseSelect("SELECT a FROM t UNION ALL SELECT b FROM u "
                          "ORDER BY a LIMIT 10")
                  .status()
                  .IsParseError());
}

TEST(ParserTest, RejectsOrderBy) {
  for (const char* sql :
       {"SELECT a FROM t ORDER BY a", "SELECT a FROM t ORDER BY a DESC",
        "SELECT a AS order_key FROM t ORDER BY order_key LIMIT 1",
        "WITH q AS (SELECT a FROM t ORDER BY a) SELECT a FROM q"}) {
    auto r = ParseSelect(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_TRUE(r.status().IsParseError()) << r.status().ToString();
    EXPECT_NE(r.status().message().find("ORDER BY"), std::string::npos)
        << r.status().ToString();
    EXPECT_NE(r.status().message().find("decoded terms"), std::string::npos)
        << r.status().ToString();
  }
}

TEST(ParserTest, CaseCoalesceIsNull) {
  auto r = ParseSelect(
      "SELECT CASE WHEN a = 1 THEN 10 ELSE 20 END, "
      "COALESCE(b, c, 0), d IS NOT NULL FROM t");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto& items = (*r)->cores[0].items;
  EXPECT_EQ(items[0].expr->kind, ExprKind::kCase);
  EXPECT_EQ(items[1].expr->kind, ExprKind::kCoalesce);
  EXPECT_EQ(items[1].expr->args.size(), 3u);
  EXPECT_EQ(items[2].expr->kind, ExprKind::kIsNull);
  EXPECT_TRUE(items[2].expr->negated);
}

TEST(ParserTest, Unnest) {
  auto r = ParseSelect(
      "SELECT lt.v FROM t, UNNEST(t.a, t.b) AS lt(v) WHERE lt.v IS NOT NULL");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto& f = (*r)->cores[0].from;
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f[1].kind, FromKind::kUnnest);
  EXPECT_EQ(f[1].unnest_args.size(), 2u);
  EXPECT_EQ(f[1].alias, "lt");
  EXPECT_EQ(f[1].unnest_column, "v");
}

TEST(ParserTest, RejectsDerivedTable) {
  // CTEs are the only materialization: FROM ( is a parse error, aliased or
  // not, first in FROM or later.
  for (const char* sql : {"SELECT q.a FROM (SELECT a FROM t) AS q",
                          "SELECT a FROM (SELECT a FROM t)",
                          "SELECT t.a FROM t, (SELECT b FROM u) q"}) {
    auto r = ParseSelect(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_TRUE(r.status().IsParseError()) << r.status().ToString();
    EXPECT_NE(r.status().message().find("near '('"), std::string::npos)
        << r.status().ToString();
  }
}

TEST(ParserTest, OperatorPrecedence) {
  auto r = ParseSelect("SELECT a FROM t WHERE a = 1 OR b = 2 AND c = 3");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // OR must be the root (AND binds tighter).
  const auto& w = *(*r)->cores[0].where;
  EXPECT_EQ(w.op, ast::BinaryOp::kOr);
  EXPECT_EQ(w.rhs->op, ast::BinaryOp::kAnd);
}

TEST(ParserTest, ArithmeticPrecedence) {
  auto r = ParseSelect("SELECT 1 + 2 * 3 FROM t");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto& e = *(*r)->cores[0].items[0].expr;
  EXPECT_EQ(e.op, ast::BinaryOp::kAdd);
  EXPECT_EQ(e.rhs->op, ast::BinaryOp::kMul);
}

TEST(ParserTest, CreateTable) {
  auto r = ParseSql(
      "CREATE TABLE t (id BIGINT, name INTEGER, score DOUBLE)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->kind, StatementKind::kCreateTable);
  const auto& ct = *r->create_table;
  EXPECT_EQ(ct.table_name, "t");
  ASSERT_EQ(ct.columns.size(), 3u);
  EXPECT_EQ(ct.columns[0].type, ValueType::kInt64);
  EXPECT_EQ(ct.columns[1].type, ValueType::kInt64);
  EXPECT_EQ(ct.columns[2].type, ValueType::kDouble);
}

TEST(ParserTest, RejectsStringLiterals) {
  // Terms live in the dictionary; SQL carries only their ids.
  for (const char* sql :
       {"SELECT 'text' FROM t", "SELECT a FROM t WHERE a = 'x'",
        "SELECT a FROM t WHERE a IN (1, 'it''s')",
        "SELECT CASE WHEN a = 1 THEN 'one' END FROM t",
        "WITH q AS (SELECT a FROM t WHERE b = '') SELECT a FROM q"}) {
    auto r = ParseSelect(sql);
    ASSERT_TRUE(r.status().IsParseError()) << sql;
    EXPECT_NE(r.status().message().find("string literals are unsupported"),
              std::string::npos)
        << r.status().ToString();
  }
  auto ins = ParseSql("INSERT INTO t (id, name) VALUES (1, 'a')");
  EXPECT_TRUE(ins.status().IsParseError()) << ins.status().ToString();
}

TEST(ParserTest, RejectsStringColumnTypes) {
  for (const char* ty : {"VARCHAR(100)", "VARCHAR", "text", "STRING"}) {
    const std::string sql =
        std::string("CREATE TABLE t (id BIGINT, name ") + ty + ")";
    auto r = ParseSql(sql);
    ASSERT_TRUE(r.status().IsParseError()) << sql;
    EXPECT_NE(r.status().message().find("is unsupported: columns are BIGINT "
                                        "or DOUBLE"),
              std::string::npos)
        << r.status().ToString();
  }
}

TEST(ParserTest, CreateIndexVariants) {
  auto r1 = ParseSql("CREATE INDEX i1 ON t (id)");
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->create_index->index_name, "i1");
  EXPECT_EQ(r1->create_index->table_name, "t");
  EXPECT_EQ(r1->create_index->column_name, "id");
  // Every index is an equality hash index; there is no kind to choose.
  auto r2 = ParseSql("CREATE HASH INDEX i2 ON t (id)");
  EXPECT_TRUE(r2.status().IsParseError()) << r2.status().ToString();
}

TEST(ParserTest, InsertMultiRow) {
  auto r = ParseSql(
      "INSERT INTO t (id, name) VALUES (1, 7), (2, NULL)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->kind, StatementKind::kInsert);
  EXPECT_EQ(r->insert->columns.size(), 2u);
  EXPECT_EQ(r->insert->rows.size(), 2u);
}

TEST(ParserTest, TrailingGarbageRejected) {
  EXPECT_TRUE(ParseSelect("SELECT a FROM t garbage garbage")
                  .status()
                  .IsParseError());
}

TEST(ParserTest, OutOfRangeNumbersAreParseErrors) {
  for (const char* sql :
       {"SELECT a FROM t WHERE a > 1e999", "SELECT 1.5e-99999 FROM t",
        "SELECT a FROM t LIMIT 99999999999999999999",
        "SELECT a FROM t LIMIT 1 OFFSET 99999999999999999999",
        "SELECT a FROM t WHERE a = 99999999999999999999"}) {
    EXPECT_TRUE(ParseSelect(sql).status().IsParseError()) << sql;
  }
  auto ok = ParseSelect("SELECT a FROM t WHERE a > 1.5e300 LIMIT 5 OFFSET 2");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ((*ok)->limit, 5);
  EXPECT_EQ((*ok)->offset, 2);
}

TEST(ParserTest, ErrorsCarryParseErrorCode) {
  auto st = ParseSelect("SELECT FROM").status();
  EXPECT_EQ(st.code(), StatusCode::kParseError);
}

TEST(ParserTest, ExprToStringRoundTripParses) {
  auto r = ParseSelect(
      "SELECT CASE WHEN a = 1 AND b IS NULL THEN COALESCE(c, 5) "
      "ELSE -d END FROM t WHERE NOT (x < 3)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::string text = (*r)->cores[0].items[0].expr->ToString();
  // Must be re-parseable as an expression inside a SELECT.
  auto again = ParseSelect("SELECT " + text + " FROM t");
  EXPECT_TRUE(again.ok()) << again.status().ToString() << "\n" << text;
}

TEST(ParserTest, SingleColumnInList) {
  auto r = ParseSelect("SELECT a FROM t WHERE T.entry IN (3, -4, 5.5, 7)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const ast::Expr& in = *(*r)->cores[0].where;
  ASSERT_EQ(in.kind, ExprKind::kIn);
  ASSERT_EQ(in.args.size(), 1u);
  EXPECT_EQ(in.args[0]->column, "entry");
  ASSERT_EQ(in.in_rows.size(), 4u);
  for (const auto& row : in.in_rows) EXPECT_EQ(row.size(), 1u);
  EXPECT_EQ(in.in_rows[2][0]->literal, Value::Real(5.5));
  EXPECT_EQ(in.in_rows[3][0]->literal, Value::Int(7));
  EXPECT_EQ(in.args[0]->ToString() + " " + in.in_rows[1][0]->ToString(),
            "T.entry (-4)");
  // IN binds tighter than AND and looser than arithmetic.
  auto conj = ParseSelect("SELECT a FROM t WHERE a + 1 IN (2) AND b = 1");
  ASSERT_TRUE(conj.ok()) << conj.status().ToString();
  const ast::Expr& w = *(*conj)->cores[0].where;
  ASSERT_EQ(w.kind, ExprKind::kBinary);
  EXPECT_EQ(w.lhs->kind, ExprKind::kIn);
  EXPECT_EQ(w.lhs->args[0]->kind, ExprKind::kBinary);
}

TEST(ParserTest, RowValueInList) {
  auto r = ParseSelect(
      "SELECT a FROM t WHERE (q1.h0, T.val3, COALESCE(S.elm, 2)) IN "
      "((1, 2, 3), (4, 5, NULL))");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const ast::Expr& in = *(*r)->cores[0].where;
  ASSERT_EQ(in.kind, ExprKind::kIn);
  ASSERT_EQ(in.args.size(), 3u);
  EXPECT_EQ(in.args[2]->kind, ExprKind::kCoalesce);
  ASSERT_EQ(in.in_rows.size(), 2u);
  EXPECT_EQ(in.in_rows[1].size(), 3u);
  // The text form parses back to the same text.
  auto again = ParseSelect("SELECT a FROM t WHERE " + in.ToString());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ((*again)->cores[0].where->ToString(), in.ToString());
}

TEST(ParserTest, InListNestsInsideExpressions) {
  auto r = ParseSelect(
      "SELECT CASE WHEN (a, b) IN ((1, 2)) THEN 1 ELSE 0 END FROM t "
      "WHERE NOT (c IN (1, 2)) OR (a, b) IN ((3, 4), (5, 6))");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*r)->cores[0].items[0].expr->branches[0].when->kind,
            ExprKind::kIn);
}

TEST(ParserTest, MalformedInListsAreParseErrors) {
  for (const char* sql : {
           "SELECT a FROM t WHERE a IN ()",            // empty list
           "SELECT a FROM t WHERE (a, b) IN ()",       // empty row list
           "SELECT a FROM t WHERE (a, b) IN ((1, 2), (3))",  // arity
           "SELECT a FROM t WHERE (a, b) IN ((1, 2, 3))",    // arity
           "SELECT a FROM t WHERE (a, b) IN (1, 2)",   // rows unparenthesized
           "SELECT a FROM t WHERE a IN ((1, 2))",      // row for one operand
           "SELECT a FROM t WHERE ((a, b), c) IN ((1, 2, 3))",  // nested row
           "SELECT a FROM t WHERE (a, b) = (1, 2)",    // row outside IN
           "SELECT a FROM t WHERE a IN (1, 2",         // unterminated
           "SELECT a FROM t WHERE a IN 1",             // no parentheses
       }) {
    auto r = ParseSelect(sql);
    EXPECT_TRUE(r.status().IsParseError()) << sql << ": "
                                           << r.status().ToString();
  }
}

}  // namespace
}  // namespace rdfrel::sql
