#include "sql/parser.h"

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
      "SELECT * FROM a LEFT OUTER JOIN b ON a.x = b.y "
      "JOIN c ON c.z = a.x");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto& core = (*r)->cores[0];
  ASSERT_EQ(core.from.size(), 3u);
  EXPECT_EQ(core.from[1].join, JoinType::kLeftOuter);
  ASSERT_NE(core.from[1].on, nullptr);
  EXPECT_EQ(core.from[2].join, JoinType::kInner);
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
      "SELECT a FROM t UNION ALL SELECT b FROM u "
      "ORDER BY a DESC, a ASC LIMIT 10 OFFSET 5");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*r)->cores.size(), 2u);
  ASSERT_EQ((*r)->order_by.size(), 2u);
  EXPECT_TRUE((*r)->order_by[0].descending);
  EXPECT_FALSE((*r)->order_by[1].descending);
  EXPECT_EQ((*r)->limit, 10);
  EXPECT_EQ((*r)->offset, 5);
}

TEST(ParserTest, CaseCoalesceIsNull) {
  auto r = ParseSelect(
      "SELECT CASE WHEN a = 1 THEN 'one' ELSE 'other' END, "
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

TEST(ParserTest, DerivedTable) {
  auto r = ParseSelect("SELECT q.a FROM (SELECT a FROM t) AS q");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto& f = (*r)->cores[0].from;
  EXPECT_EQ(f[0].kind, FromKind::kSubquery);
  EXPECT_EQ(f[0].alias, "q");
}

TEST(ParserTest, DerivedTableRequiresAlias) {
  EXPECT_TRUE(
      ParseSelect("SELECT a FROM (SELECT a FROM t)").status().IsParseError());
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
      "CREATE TABLE t (id BIGINT, name VARCHAR(100), score DOUBLE)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->kind, StatementKind::kCreateTable);
  const auto& ct = *r->create_table;
  EXPECT_EQ(ct.table_name, "t");
  ASSERT_EQ(ct.columns.size(), 3u);
  EXPECT_EQ(ct.columns[0].type, ValueType::kInt64);
  EXPECT_EQ(ct.columns[1].type, ValueType::kString);
  EXPECT_EQ(ct.columns[2].type, ValueType::kDouble);
}

TEST(ParserTest, CreateIndexVariants) {
  auto r1 = ParseSql("CREATE INDEX i1 ON t (id)");
  ASSERT_TRUE(r1.ok());
  EXPECT_FALSE(r1->create_index->hash);
  auto r2 = ParseSql("CREATE HASH INDEX i2 ON t (id)");
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->create_index->hash);
}

TEST(ParserTest, InsertMultiRow) {
  auto r = ParseSql(
      "INSERT INTO t (id, name) VALUES (1, 'a'), (2, NULL)");
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

}  // namespace
}  // namespace rdfrel::sql
