#include "sql/expression.h"

#include <gtest/gtest.h>

#include "sql/parser.h"

namespace rdfrel::sql {
namespace {

/// Parses `expr` (as a SELECT item) and binds it against a scope with
/// columns a, b, c (unqualified) holding the given row.
class ExprEval {
 public:
  ExprEval() {
    scope_.Add("t", "a");
    scope_.Add("t", "b");
    scope_.Add("t", "c");
  }

  Result<Value> Eval(const std::string& text, Row row) {
    auto sel = ParseSelect("SELECT " + text + " FROM dummy");
    if (!sel.ok()) return sel.status();
    RDFREL_ASSIGN_OR_RETURN(
        BoundExprPtr bound,
        BindExpr(*(*sel)->cores[0].items[0].expr, scope_));
    return bound->Evaluate(row);
  }

 private:
  Scope scope_;
};

/// Evaluates \p predicate over \p rows (columns a, b, c) both per row and
/// batch-wise, which must pass exactly the rows on which Evaluate is TRUE.
/// A lone IN takes FilterBatch's fast path; an AND of them does not.
void ExpectFilterBatchAgrees(const std::string& predicate,
                             const std::vector<Row>& rows) {
  auto sel = ParseSelect("SELECT 1 FROM t WHERE " + predicate);
  ASSERT_TRUE(sel.ok()) << sel.status().ToString();
  Scope scope;
  scope.Add("t", "a");
  scope.Add("t", "b");
  scope.Add("t", "c");
  auto bound = BindExpr(*(*sel)->cores[0].where, scope);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  RowBatch batch;
  for (const Row& r : rows) *batch.AddRow() = r;
  batch.SetSelection({0, 2, 3, 5, 6});  // skip some physical rows
  std::vector<uint32_t> expected;
  for (size_t i = 0; i < batch.ActiveSize(); ++i) {
    auto v = (*bound)->Evaluate(batch.Active(i));
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    if (!v->is_null() && v->NumericValue() != 0) {
      expected.push_back(batch.ActiveIndex(i));
    }
  }
  std::vector<uint32_t> passing;
  auto handled = (*bound)->FilterBatch(batch, &passing);
  ASSERT_TRUE(handled.ok()) << handled.status().ToString();
  const bool single_in = predicate.find(" AND ") == std::string::npos;
  EXPECT_EQ(*handled, single_in) << predicate;
  if (*handled) {
    EXPECT_EQ(passing, expected) << predicate;
  }
  std::vector<uint32_t> generic;
  ASSERT_TRUE(EvalPredicateBatch(**bound, batch, &generic).ok());
  EXPECT_EQ(generic, expected) << predicate;
}

TEST(ScopeTest, ResolveQualifiedAndUnqualified) {
  Scope s;
  s.Add("t", "x");
  s.Add("u", "y");
  EXPECT_EQ(*s.Resolve("t", "x"), 0);
  EXPECT_EQ(*s.Resolve("", "y"), 1);
  EXPECT_TRUE(s.Resolve("u", "x").status().IsNotFound());
  EXPECT_TRUE(s.Resolve("", "z").status().IsNotFound());
}

TEST(ScopeTest, AmbiguousUnqualified) {
  Scope s;
  s.Add("t", "x");
  s.Add("u", "x");
  EXPECT_TRUE(s.Resolve("", "x").status().IsInvalidArgument());
  EXPECT_EQ(*s.Resolve("u", "x"), 1);
}

TEST(ScopeTest, CaseInsensitive) {
  Scope s;
  s.Add("T", "EntryCol");
  EXPECT_EQ(*s.Resolve("t", "entrycol"), 0);
  EXPECT_EQ(*s.Resolve("T", "ENTRYCOL"), 0);
}

TEST(ExprTest, ArithmeticAndComparison) {
  ExprEval e;
  Row r = {Value::Int(10), Value::Int(3), Value::Null()};
  EXPECT_EQ(e.Eval("a + b", r)->AsInt(), 13);
  EXPECT_EQ(e.Eval("a - b", r)->AsInt(), 7);
  EXPECT_EQ(e.Eval("a * b", r)->AsInt(), 30);
  EXPECT_DOUBLE_EQ(e.Eval("a / b", r)->AsDouble(), 10.0 / 3.0);
  EXPECT_EQ(e.Eval("a > b", r)->AsInt(), 1);
  EXPECT_EQ(e.Eval("a <= b", r)->AsInt(), 0);
  EXPECT_EQ(e.Eval("a = 10", r)->AsInt(), 1);
  EXPECT_EQ(e.Eval("a <> 10", r)->AsInt(), 0);
}

TEST(ExprTest, NullPropagation) {
  ExprEval e;
  Row r = {Value::Int(10), Value::Null(), Value::Null()};
  EXPECT_TRUE(e.Eval("a + b", r)->is_null());
  EXPECT_TRUE(e.Eval("b = b", r)->is_null());
  EXPECT_TRUE(e.Eval("b < 1", r)->is_null());
  EXPECT_TRUE(e.Eval("NOT b", r)->is_null());
  EXPECT_TRUE(e.Eval("-b", r)->is_null());
}

TEST(ExprTest, ThreeValuedAndOr) {
  ExprEval e;
  Row r = {Value::Int(1), Value::Int(0), Value::Null()};
  // AND: F dominates NULL.
  EXPECT_EQ(e.Eval("b = 1 AND c = 1", r)->AsInt(), 0);
  EXPECT_TRUE(e.Eval("a = 1 AND c = 1", r)->is_null());
  // OR: T dominates NULL.
  EXPECT_EQ(e.Eval("a = 1 OR c = 1", r)->AsInt(), 1);
  EXPECT_TRUE(e.Eval("b = 1 OR c = 1", r)->is_null());
}

TEST(ExprTest, IsNull) {
  ExprEval e;
  Row r = {Value::Int(1), Value::Null(), Value::Null()};
  EXPECT_EQ(e.Eval("a IS NULL", r)->AsInt(), 0);
  EXPECT_EQ(e.Eval("b IS NULL", r)->AsInt(), 1);
  EXPECT_EQ(e.Eval("b IS NOT NULL", r)->AsInt(), 0);
  EXPECT_EQ(e.Eval("a IS NOT NULL", r)->AsInt(), 1);
}

TEST(ExprTest, CaseSearchedForm) {
  ExprEval e;
  Row r = {Value::Int(2), Value::Int(0), Value::Null()};
  auto v = e.Eval(
      "CASE WHEN a = 1 THEN 10 WHEN a = 2 THEN 20 ELSE 99 END", r);
  EXPECT_EQ(v->AsInt(), 20);
  auto v2 = e.Eval("CASE WHEN a = 9 THEN 90 END", r);
  EXPECT_TRUE(v2->is_null());
  // NULL condition does not select the branch.
  auto v3 = e.Eval("CASE WHEN c = 1 THEN 1 ELSE 2.5 END", r);
  EXPECT_EQ(v3->AsDouble(), 2.5);
}

TEST(ExprTest, Coalesce) {
  ExprEval e;
  Row r = {Value::Null(), Value::Int(5), Value::Null()};
  EXPECT_EQ(e.Eval("COALESCE(a, b, 9)", r)->AsInt(), 5);
  EXPECT_EQ(e.Eval("COALESCE(a, c, 9)", r)->AsInt(), 9);
  EXPECT_TRUE(e.Eval("COALESCE(a, c)", r)->is_null());
}

TEST(ExprTest, ErrorsAsStatuses) {
  ExprEval e;
  Row r = {Value::Real(0.5), Value::Int(1), Value::Int(0)};
  // Division by zero, for BIGINT and DOUBLE dividends.
  EXPECT_TRUE(e.Eval("a / c", r).status().IsExecutionError());
  EXPECT_TRUE(e.Eval("b / c", r).status().IsExecutionError());
  // Unknown column.
  EXPECT_TRUE(e.Eval("zzz", r).status().IsNotFound());
}

TEST(ExprTest, EvalPredicateNullIsFalse) {
  Scope s;
  s.Add("t", "a");
  auto sel = ParseSelect("SELECT a = 1 FROM d");
  ASSERT_TRUE(sel.ok());
  auto bound = BindExpr(*(*sel)->cores[0].items[0].expr, s);
  ASSERT_TRUE(bound.ok());
  auto pass = EvalPredicate(**bound, {Value::Null()});
  ASSERT_TRUE(pass.ok());
  EXPECT_FALSE(*pass);
}

TEST(ExprTest, InListThreeValued) {
  ExprEval e;
  const Row row = {Value::Int(1), Value::Int(2), Value::Null()};
  auto is = [&](const std::string& text, const Value& want) {
    auto v = e.Eval(text, row);
    ASSERT_TRUE(v.ok()) << text << ": " << v.status().ToString();
    EXPECT_EQ(*v, want) << text;
  };
  const Value t = Value::Bool(true), f = Value::Bool(false);
  is("a IN (3, 1)", t);
  is("a IN (3, 4)", f);
  is("a IN (1.0)", t);            // SQL equality across int and double
  is("a IN (3, NULL)", Value::Null());
  is("a IN (1, NULL)", t);
  is("c IN (1, 2)", Value::Null());  // NULL operand
  is("(a, b) IN ((1, 2))", t);
  is("(a, b) IN ((2, 1), (1, 3))", f);
  is("(a, b) IN ((1, NULL))", Value::Null());
  is("(a, b) IN ((2, NULL))", f);  // decided by the non-NULL column
  is("(a, c) IN ((1, 5))", Value::Null());
  is("(a, c) IN ((2, 5))", f);
  is("(a, b + 1) IN ((1, 3))", t);
  is("NOT (a IN (3, NULL))", Value::Null());
  is("a IN (0 - 1, 2 - 1)", t);  // constant expressions fold
}

TEST(ExprTest, InListRejectsColumnsInTheList) {
  ExprEval e;
  const Row row = {Value::Int(1), Value::Int(2), Value::Int(3)};
  EXPECT_TRUE(e.Eval("a IN (b)", row).status().IsInvalidArgument());
}

TEST(ExprTest, InListFilterBatchAgreesWithEvaluate) {
  const std::vector<Row> rows = {
      {Value::Int(1), Value::Int(2), Value::Int(7)},
      {Value::Int(1), Value::Int(2), Value::Int(7)},
      {Value::Null(), Value::Int(2), Value::Int(7)},
      {Value::Int(4), Value::Null(), Value::Int(8)},
      {Value::Int(4), Value::Int(5), Value::Real(9.0)},
      {Value::Int(9), Value::Int(9), Value::Int(9)},
      {Value::Real(1.0), Value::Int(2), Value::Int(7)},
  };
  for (const char* p : {
           "a IN (1, 4)",
           "a IN (1, NULL)",
           "c IN (9, 8)",
           "(a, b) IN ((1, 2), (4, 5))",
           "(a, b) IN ((1, NULL), (4, 5))",
           "(b, a + 0) IN ((2, 1), (5, 4))",  // a computed operand
           "(a, c) IN ((4, 9), (1, 7))",
           "a IN (1) AND c IN (7)",            // generic path over AND
       }) {
    ExpectFilterBatchAgrees(p, rows);
  }
}

TEST(ExprTest, CollectConjunctsFlattensAndOnly) {
  auto sel = ParseSelect(
      "SELECT x FROM t WHERE a = 1 AND (b = 2 OR c = 3) AND d = 4");
  ASSERT_TRUE(sel.ok());
  std::vector<const ast::Expr*> list;
  CollectConjuncts(*(*sel)->cores[0].where, &list);
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[1]->op, ast::BinaryOp::kOr);
}

TEST(ExprTest, CoverageCheck) {
  Scope s;
  s.Add("t", "a");
  auto sel = ParseSelect("SELECT x FROM t WHERE t.a = 1 AND u.b = 2");
  ASSERT_TRUE(sel.ok());
  std::vector<const ast::Expr*> list;
  CollectConjuncts(*(*sel)->cores[0].where, &list);
  EXPECT_TRUE(ExprCoveredByScope(*list[0], s));
  EXPECT_FALSE(ExprCoveredByScope(*list[1], s));
}

}  // namespace
}  // namespace rdfrel::sql
