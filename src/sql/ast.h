#ifndef RDFREL_SQL_AST_H_
#define RDFREL_SQL_AST_H_

/// \file ast.h
/// Abstract syntax for the SQL subset the engine executes. The subset is
/// exactly what the SPARQL->SQL translators emit (paper §3.2, Figs. 12-13):
/// WITH/CTE chains, SELECT with CASE/COALESCE, comma joins + LEFT OUTER
/// JOIN, UNION ALL, UNNEST lateral flips, LIMIT/OFFSET, plus the DDL/DML
/// needed by tests and benchmarks. There is no SQL ORDER BY (the stores sort
/// decoded terms) and no derived table (CTEs are the only materialization).

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sql/schema.h"
#include "sql/value.h"

namespace rdfrel::sql::ast {

// ---------------------------------------------------------------- Expression

enum class BinaryOp {
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAnd, kOr,
  kAdd, kSub, kMul, kDiv,
};

const char* BinaryOpToString(BinaryOp op);

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

enum class ExprKind {
  kLiteral,    ///< constant Value
  kColumnRef,  ///< [qualifier.]name
  kBinary,     ///< lhs op rhs
  kNot,        ///< NOT child
  kNeg,        ///< - child
  kIsNull,     ///< child IS [NOT] NULL  (negated flag)
  kCase,       ///< CASE WHEN..THEN.. [ELSE..] END (searched form)
  kCoalesce,   ///< COALESCE(e1, e2, ...)
  kIn,         ///< e IN (c, ...) or (e1, ..., ek) IN ((c1, ..., ck), ...)
};

struct CaseBranch {
  ExprPtr when;
  ExprPtr then;
};

/// One expression node. A small tagged struct rather than a class hierarchy:
/// the planner walks it once to produce a bound (executable) tree.
struct Expr {
  ExprKind kind;

  // kLiteral
  Value literal;

  // kColumnRef
  std::string qualifier;  // may be empty
  std::string column;

  // kBinary
  BinaryOp op = BinaryOp::kEq;
  ExprPtr lhs;
  ExprPtr rhs;

  // kNot / kNeg / kIsNull
  ExprPtr child;
  bool negated = false;  // for kIsNull: true == IS NOT NULL

  // kCase
  std::vector<CaseBranch> branches;
  ExprPtr else_expr;  // may be null (implicit ELSE NULL)

  // kCoalesce; kIn: the tested operands (one, or a row value's k)
  std::vector<ExprPtr> args;

  // kIn: the list, one row of args.size() constants per element
  std::vector<std::vector<ExprPtr>> in_rows;

  /// Round-trippable SQL text (used in error messages and plan dumps).
  std::string ToString() const;
};

ExprPtr MakeLiteral(Value v);
ExprPtr MakeColumnRef(std::string qualifier, std::string column);
ExprPtr MakeBinary(BinaryOp op, ExprPtr lhs, ExprPtr rhs);
ExprPtr MakeNot(ExprPtr child);
ExprPtr MakeIsNull(ExprPtr child, bool negated);

// ---------------------------------------------------------------- Select

struct SelectStmt;

/// Aggregate functions (kNone == plain expression item).
enum class AggFunc { kNone, kCount, kSum, kMin, kMax, kAvg };

/// One item in the SELECT list.
struct SelectItem {
  bool star = false;  ///< bare `*`
  ExprPtr expr;       ///< when !star; null for COUNT(*)
  std::string alias;  ///< output name; empty -> derived from expr

  AggFunc agg = AggFunc::kNone;
  bool agg_distinct = false;  ///< COUNT(DISTINCT e)
};

enum class FromKind { kTable, kUnnest };
enum class JoinType { kComma, kLeftOuter };

/// One entry in the FROM clause, plus how it joins to everything before it.
struct FromItem {
  FromKind kind = FromKind::kTable;
  JoinType join = JoinType::kComma;
  ExprPtr on;  ///< ON condition for kLeftOuter; null for comma

  // kTable
  std::string table_name;

  // kUnnest: UNNEST(e1, e2, ...) AS alias(col) — a lateral operator that
  // emits one row per argument, with column `col` bound to that argument's
  // value. This implements the paper's `TABLE(T.valm, T.val0) AS LT(val0)`
  // multi-column predicate "flip".
  std::vector<ExprPtr> unnest_args;
  std::string unnest_column;

  std::string alias;  ///< binding name; defaults to table_name for kTable
};

/// A single SELECT core (no set operators).
struct SelectCore {
  bool distinct = false;
  std::vector<SelectItem> items;
  std::vector<FromItem> from;
  ExprPtr where;  // may be null
  std::vector<ExprPtr> group_by;

  bool HasAggregates() const {
    for (const auto& it : items) {
      if (it.agg != AggFunc::kNone) return true;
    }
    return !group_by.empty();
  }
};

struct CteDef {
  std::string name;
  std::unique_ptr<SelectStmt> query;
};

/// A full query: CTE prologue, one or more cores joined by UNION ALL,
/// optional LIMIT / OFFSET.
struct SelectStmt {
  std::vector<CteDef> ctes;
  std::vector<SelectCore> cores;  ///< cores[1..] union-all'ed onto cores[0]
  std::optional<int64_t> limit;
  std::optional<int64_t> offset;
};

// ---------------------------------------------------------------- DDL / DML

struct CreateTableStmt {
  std::string table_name;
  std::vector<ColumnDef> columns;
};

struct CreateIndexStmt {
  std::string index_name;
  std::string table_name;
  std::string column_name;
};

struct InsertStmt {
  std::string table_name;
  std::vector<std::string> columns;      ///< empty -> schema order
  std::vector<std::vector<ExprPtr>> rows;  ///< literal expressions
};

enum class StatementKind { kSelect, kCreateTable, kCreateIndex, kInsert };

/// Any parsed statement.
struct Statement {
  StatementKind kind;
  std::unique_ptr<SelectStmt> select;
  std::unique_ptr<CreateTableStmt> create_table;
  std::unique_ptr<CreateIndexStmt> create_index;
  std::unique_ptr<InsertStmt> insert;
};

}  // namespace rdfrel::sql::ast

#endif  // RDFREL_SQL_AST_H_
