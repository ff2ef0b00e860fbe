#include "sql/parser.h"

#include <charconv>

#include "sql/lexer.h"
#include "util/string_util.h"

namespace rdfrel::sql {

namespace {

using namespace ast;  // NOLINT(build/namespaces) — local to this TU

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Statement> ParseStatement() {
    Statement stmt;
    if (PeekKeyword("CREATE")) {
      Advance();
      if (PeekKeyword("TABLE")) {
        RDFREL_ASSIGN_OR_RETURN(auto ct, ParseCreateTable());
        stmt.kind = StatementKind::kCreateTable;
        stmt.create_table =
            std::make_unique<CreateTableStmt>(std::move(ct));
      } else {
        RDFREL_ASSIGN_OR_RETURN(auto ci, ParseCreateIndex());
        stmt.kind = StatementKind::kCreateIndex;
        stmt.create_index =
            std::make_unique<CreateIndexStmt>(std::move(ci));
      }
    } else if (PeekKeyword("INSERT")) {
      RDFREL_ASSIGN_OR_RETURN(auto ins, ParseInsert());
      stmt.kind = StatementKind::kInsert;
      stmt.insert = std::make_unique<InsertStmt>(std::move(ins));
    } else {
      RDFREL_ASSIGN_OR_RETURN(auto sel, ParseSelectStmt());
      stmt.kind = StatementKind::kSelect;
      stmt.select = std::move(sel);
    }
    ConsumeSymbol(";");
    if (!AtEnd()) {
      return Error("unexpected trailing input");
    }
    return stmt;
  }

  Result<std::unique_ptr<SelectStmt>> ParseSelectOnly() {
    RDFREL_ASSIGN_OR_RETURN(auto sel, ParseSelectStmt());
    ConsumeSymbol(";");
    if (!AtEnd()) return Error("unexpected trailing input");
    return sel;
  }

 private:
  // ------------------------------------------------------------- utilities
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  void Advance() {
    if (pos_ + 1 < tokens_.size()) ++pos_;
  }
  bool AtEnd() const { return Peek().kind == TokenKind::kEnd; }

  bool PeekKeyword(std::string_view kw, size_t ahead = 0) const {
    const Token& t = Peek(ahead);
    return t.kind == TokenKind::kIdentifier &&
           EqualsIgnoreCaseAscii(t.text, kw);
  }
  bool ConsumeKeyword(std::string_view kw) {
    if (PeekKeyword(kw)) {
      Advance();
      return true;
    }
    return false;
  }
  Status ExpectKeyword(std::string_view kw) {
    if (ConsumeKeyword(kw)) return Status::OK();
    return Error(std::string("expected ") + std::string(kw));
  }
  bool PeekSymbol(std::string_view sym, size_t ahead = 0) const {
    const Token& t = Peek(ahead);
    return t.kind == TokenKind::kSymbol && t.text == sym;
  }
  bool ConsumeSymbol(std::string_view sym) {
    if (PeekSymbol(sym)) {
      Advance();
      return true;
    }
    return false;
  }
  Status ExpectSymbol(std::string_view sym) {
    if (ConsumeSymbol(sym)) return Status::OK();
    return Error(std::string("expected '") + std::string(sym) + "'");
  }
  /// Consumes the integer after LIMIT/OFFSET. Out-of-range input is a parse
  /// error, never an exception.
  Result<int64_t> ParseCount(const char* clause) {
    const Token& t = Peek();
    int64_t v = 0;
    if (t.kind != TokenKind::kInteger) {
      return Error(std::string("expected ") + clause + " count");
    }
    auto [p, ec] =
        std::from_chars(t.text.data(), t.text.data() + t.text.size(), v);
    if (ec != std::errc()) {
      return Error(std::string(clause) + " count out of range");
    }
    Advance();
    return v;
  }

  Status Error(std::string msg) const {
    const Token& t = Peek();
    return Status::ParseError(msg + " at offset " + std::to_string(t.offset) +
                              " (near '" + t.text + "')");
  }

  /// True if the current identifier is a reserved word that cannot start an
  /// alias or column name in the positions we parse.
  bool PeekReserved() const {
    static constexpr std::string_view kReserved[] = {
        "SELECT", "FROM",  "WHERE",  "UNION", "ORDER",    "LIMIT",
        "OFFSET", "JOIN",  "LEFT",   "INNER", "OUTER",    "ON",
        "AS",     "AND",   "OR",     "NOT",   "CASE",     "WHEN",
        "THEN",   "ELSE",  "END",    "IS",    "NULL",     "COALESCE",
        "WITH",   "GROUP", "HAVING", "DISTINCT", "UNNEST", "BY",
        "IN",
    };
    const Token& t = Peek();
    if (t.kind != TokenKind::kIdentifier) return false;
    for (auto kw : kReserved) {
      if (EqualsIgnoreCaseAscii(t.text, kw)) return true;
    }
    return false;
  }

  Result<std::string> ExpectIdentifier(const char* what) {
    if (Peek().kind != TokenKind::kIdentifier || PeekReserved()) {
      return Error(std::string("expected ") + what);
    }
    std::string name = Peek().text;
    Advance();
    return name;
  }

  // ------------------------------------------------------------ expressions
  Result<ExprPtr> ParseExpr() { return ParseOr(); }

  Result<ExprPtr> ParseOr() {
    RDFREL_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAnd());
    while (ConsumeKeyword("OR")) {
      RDFREL_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAnd());
      lhs = MakeBinary(BinaryOp::kOr, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseAnd() {
    RDFREL_ASSIGN_OR_RETURN(ExprPtr lhs, ParseNot());
    while (ConsumeKeyword("AND")) {
      RDFREL_ASSIGN_OR_RETURN(ExprPtr rhs, ParseNot());
      lhs = MakeBinary(BinaryOp::kAnd, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseNot() {
    if (ConsumeKeyword("NOT")) {
      RDFREL_ASSIGN_OR_RETURN(ExprPtr child, ParseNot());
      return MakeNot(std::move(child));
    }
    return ParseComparison();
  }

  Result<ExprPtr> ParseComparison() {
    RDFREL_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAdditive());
    if (PeekKeyword("IN")) {
      std::vector<ExprPtr> operands;
      operands.push_back(std::move(lhs));
      return ParseInList(std::move(operands));
    }
    // IS [NOT] NULL
    if (PeekKeyword("IS")) {
      Advance();
      bool negated = ConsumeKeyword("NOT");
      RDFREL_RETURN_NOT_OK(ExpectKeyword("NULL"));
      return MakeIsNull(std::move(lhs), negated);
    }
    struct OpMap {
      std::string_view sym;
      BinaryOp op;
    };
    static constexpr OpMap kOps[] = {
        {"<=", BinaryOp::kLe}, {">=", BinaryOp::kGe}, {"<>", BinaryOp::kNe},
        {"!=", BinaryOp::kNe}, {"=", BinaryOp::kEq},  {"<", BinaryOp::kLt},
        {">", BinaryOp::kGt},
    };
    for (const auto& m : kOps) {
      if (PeekSymbol(m.sym)) {
        Advance();
        RDFREL_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditive());
        return MakeBinary(m.op, std::move(lhs), std::move(rhs));
      }
    }
    return lhs;
  }

  /// `IN (...)` after its operands: one constant per element for a single
  /// operand, a parenthesized row of as many for a row value. The list is
  /// never empty.
  Result<ExprPtr> ParseInList(std::vector<ExprPtr> operands) {
    RDFREL_RETURN_NOT_OK(ExpectKeyword("IN"));
    RDFREL_RETURN_NOT_OK(ExpectSymbol("("));
    if (PeekSymbol(")")) return Error("empty IN list");
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::kIn;
    e->args = std::move(operands);
    do {
      std::vector<ExprPtr> row;
      if (e->args.size() == 1) {
        RDFREL_ASSIGN_OR_RETURN(ExprPtr v, ParseAdditive());
        row.push_back(std::move(v));
      } else {
        RDFREL_RETURN_NOT_OK(ExpectSymbol("("));
        do {
          RDFREL_ASSIGN_OR_RETURN(ExprPtr v, ParseAdditive());
          row.push_back(std::move(v));
        } while (ConsumeSymbol(","));
        RDFREL_RETURN_NOT_OK(ExpectSymbol(")"));
        if (row.size() != e->args.size()) {
          return Error("IN row of " + std::to_string(row.size()) +
                       " values for " + std::to_string(e->args.size()) +
                       " operands");
        }
      }
      e->in_rows.push_back(std::move(row));
    } while (ConsumeSymbol(","));
    RDFREL_RETURN_NOT_OK(ExpectSymbol(")"));
    return ExprPtr(std::move(e));
  }

  Result<ExprPtr> ParseAdditive() {
    RDFREL_ASSIGN_OR_RETURN(ExprPtr lhs, ParseMultiplicative());
    while (PeekSymbol("+") || PeekSymbol("-")) {
      BinaryOp op = PeekSymbol("+") ? BinaryOp::kAdd : BinaryOp::kSub;
      Advance();
      RDFREL_ASSIGN_OR_RETURN(ExprPtr rhs, ParseMultiplicative());
      lhs = MakeBinary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseMultiplicative() {
    RDFREL_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnary());
    while (PeekSymbol("*") || PeekSymbol("/")) {
      BinaryOp op = PeekSymbol("*") ? BinaryOp::kMul : BinaryOp::kDiv;
      Advance();
      RDFREL_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnary());
      lhs = MakeBinary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseUnary() {
    if (ConsumeSymbol("-")) {
      RDFREL_ASSIGN_OR_RETURN(ExprPtr child, ParseUnary());
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kNeg;
      e->child = std::move(child);
      return ExprPtr(std::move(e));
    }
    return ParsePrimary();
  }

  Result<ExprPtr> ParsePrimary() {
    const Token& t = Peek();
    switch (t.kind) {
      case TokenKind::kInteger: {
        int64_t v = 0;
        auto [p, ec] =
            std::from_chars(t.text.data(), t.text.data() + t.text.size(), v);
        if (ec != std::errc()) return Error("bad integer literal");
        Advance();
        return MakeLiteral(Value::Int(v));
      }
      case TokenKind::kFloat: {
        double v = 0;
        auto [p, ec] =
            std::from_chars(t.text.data(), t.text.data() + t.text.size(), v);
        if (ec != std::errc()) return Error("bad float literal");
        Advance();
        return MakeLiteral(Value::Real(v));
      }
      case TokenKind::kString:
        return Error(
            "SQL string literals are unsupported: the store holds dictionary "
            "ids, not strings");
      case TokenKind::kSymbol:
        if (t.text == "(") {
          Advance();
          RDFREL_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
          if (PeekSymbol(",")) {
            // A row value, which only an IN may test.
            std::vector<ExprPtr> row;
            row.push_back(std::move(e));
            while (ConsumeSymbol(",")) {
              RDFREL_ASSIGN_OR_RETURN(ExprPtr next, ParseExpr());
              row.push_back(std::move(next));
            }
            RDFREL_RETURN_NOT_OK(ExpectSymbol(")"));
            if (!PeekKeyword("IN")) return Error("row value outside IN");
            return ParseInList(std::move(row));
          }
          RDFREL_RETURN_NOT_OK(ExpectSymbol(")"));
          return e;
        }
        return Error("unexpected symbol in expression");
      case TokenKind::kIdentifier:
        break;
      case TokenKind::kEnd:
        return Error("unexpected end of input in expression");
    }
    if (PeekKeyword("NULL")) {
      Advance();
      return MakeLiteral(Value::Null());
    }
    if (PeekKeyword("CASE")) return ParseCase();
    if (PeekKeyword("COALESCE")) return ParseCoalesce();
    // Column reference: name or qualifier.name.
    std::string first = t.text;
    Advance();
    if (ConsumeSymbol(".")) {
      const Token& c = Peek();
      if (c.kind != TokenKind::kIdentifier) {
        return Error("expected column name after '.'");
      }
      std::string col = c.text;
      Advance();
      return MakeColumnRef(std::move(first), std::move(col));
    }
    return MakeColumnRef("", std::move(first));
  }

  Result<ExprPtr> ParseCase() {
    RDFREL_RETURN_NOT_OK(ExpectKeyword("CASE"));
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::kCase;
    while (ConsumeKeyword("WHEN")) {
      CaseBranch b;
      RDFREL_ASSIGN_OR_RETURN(b.when, ParseExpr());
      RDFREL_RETURN_NOT_OK(ExpectKeyword("THEN"));
      RDFREL_ASSIGN_OR_RETURN(b.then, ParseExpr());
      e->branches.push_back(std::move(b));
    }
    if (e->branches.empty()) return Error("CASE requires at least one WHEN");
    if (ConsumeKeyword("ELSE")) {
      RDFREL_ASSIGN_OR_RETURN(e->else_expr, ParseExpr());
    }
    RDFREL_RETURN_NOT_OK(ExpectKeyword("END"));
    return ExprPtr(std::move(e));
  }

  Result<ExprPtr> ParseCoalesce() {
    RDFREL_RETURN_NOT_OK(ExpectKeyword("COALESCE"));
    RDFREL_RETURN_NOT_OK(ExpectSymbol("("));
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::kCoalesce;
    do {
      RDFREL_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
      e->args.push_back(std::move(arg));
    } while (ConsumeSymbol(","));
    RDFREL_RETURN_NOT_OK(ExpectSymbol(")"));
    if (e->args.empty()) return Error("COALESCE requires arguments");
    return ExprPtr(std::move(e));
  }

  // ---------------------------------------------------------------- SELECT
  Result<std::unique_ptr<SelectStmt>> ParseSelectStmt() {
    auto stmt = std::make_unique<SelectStmt>();
    if (ConsumeKeyword("WITH")) {
      do {
        CteDef cte;
        RDFREL_ASSIGN_OR_RETURN(cte.name, ExpectIdentifier("CTE name"));
        RDFREL_RETURN_NOT_OK(ExpectKeyword("AS"));
        RDFREL_RETURN_NOT_OK(ExpectSymbol("("));
        RDFREL_ASSIGN_OR_RETURN(cte.query, ParseSelectStmt());
        RDFREL_RETURN_NOT_OK(ExpectSymbol(")"));
        stmt->ctes.push_back(std::move(cte));
      } while (ConsumeSymbol(","));
    }
    RDFREL_ASSIGN_OR_RETURN(SelectCore core, ParseSelectCore());
    stmt->cores.push_back(std::move(core));
    while (PeekKeyword("UNION")) {
      Advance();
      RDFREL_RETURN_NOT_OK(ExpectKeyword("ALL"));
      RDFREL_ASSIGN_OR_RETURN(SelectCore next, ParseSelectCore());
      stmt->cores.push_back(std::move(next));
    }
    if (PeekKeyword("ORDER")) {
      return Error("SQL ORDER BY is unsupported: the store sorts decoded terms");
    }
    if (ConsumeKeyword("LIMIT")) {
      RDFREL_ASSIGN_OR_RETURN(stmt->limit, ParseCount("LIMIT"));
    }
    if (ConsumeKeyword("OFFSET")) {
      RDFREL_ASSIGN_OR_RETURN(stmt->offset, ParseCount("OFFSET"));
    }
    return stmt;
  }

  Result<SelectCore> ParseSelectCore() {
    RDFREL_RETURN_NOT_OK(ExpectKeyword("SELECT"));
    SelectCore core;
    core.distinct = ConsumeKeyword("DISTINCT");
    do {
      SelectItem item;
      if (ConsumeSymbol("*")) {
        item.star = true;
      } else {
        item.agg = PeekAggFunc();
        if (item.agg != AggFunc::kNone) {
          Advance();  // function name
          RDFREL_RETURN_NOT_OK(ExpectSymbol("("));
          if (item.agg == AggFunc::kCount && ConsumeSymbol("*")) {
            // COUNT(*): expr stays null.
          } else {
            item.agg_distinct = ConsumeKeyword("DISTINCT");
            RDFREL_ASSIGN_OR_RETURN(item.expr, ParseExpr());
          }
          RDFREL_RETURN_NOT_OK(ExpectSymbol(")"));
        } else {
          RDFREL_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        }
        if (ConsumeKeyword("AS")) {
          RDFREL_ASSIGN_OR_RETURN(item.alias, ExpectIdentifier("alias"));
        } else if (Peek().kind == TokenKind::kIdentifier && !PeekReserved()) {
          item.alias = Peek().text;
          Advance();
        }
      }
      core.items.push_back(std::move(item));
    } while (ConsumeSymbol(","));

    RDFREL_RETURN_NOT_OK(ExpectKeyword("FROM"));
    RDFREL_ASSIGN_OR_RETURN(FromItem first, ParseFromItem());
    first.join = JoinType::kComma;
    core.from.push_back(std::move(first));
    while (true) {
      if (ConsumeSymbol(",")) {
        RDFREL_ASSIGN_OR_RETURN(FromItem item, ParseFromItem());
        item.join = JoinType::kComma;
        core.from.push_back(std::move(item));
        continue;
      }
      if (!ConsumeKeyword("LEFT")) break;
      ConsumeKeyword("OUTER");
      RDFREL_RETURN_NOT_OK(ExpectKeyword("JOIN"));
      RDFREL_ASSIGN_OR_RETURN(FromItem item, ParseFromItem());
      item.join = JoinType::kLeftOuter;
      RDFREL_RETURN_NOT_OK(ExpectKeyword("ON"));
      RDFREL_ASSIGN_OR_RETURN(item.on, ParseExpr());
      core.from.push_back(std::move(item));
    }

    if (ConsumeKeyword("WHERE")) {
      RDFREL_ASSIGN_OR_RETURN(core.where, ParseExpr());
    }
    if (ConsumeKeyword("GROUP")) {
      RDFREL_RETURN_NOT_OK(ExpectKeyword("BY"));
      do {
        RDFREL_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        core.group_by.push_back(std::move(e));
      } while (ConsumeSymbol(","));
    }
    return core;
  }

  /// Aggregate function name at the cursor, when followed by '('.
  AggFunc PeekAggFunc() const {
    if (!PeekSymbol("(", 1)) return AggFunc::kNone;
    const Token& t = Peek();
    if (t.kind != TokenKind::kIdentifier) return AggFunc::kNone;
    if (EqualsIgnoreCaseAscii(t.text, "COUNT")) return AggFunc::kCount;
    if (EqualsIgnoreCaseAscii(t.text, "SUM")) return AggFunc::kSum;
    if (EqualsIgnoreCaseAscii(t.text, "MIN")) return AggFunc::kMin;
    if (EqualsIgnoreCaseAscii(t.text, "MAX")) return AggFunc::kMax;
    if (EqualsIgnoreCaseAscii(t.text, "AVG")) return AggFunc::kAvg;
    return AggFunc::kNone;
  }

  Result<FromItem> ParseFromItem() {
    FromItem item;
    if (PeekKeyword("UNNEST")) {
      Advance();
      RDFREL_RETURN_NOT_OK(ExpectSymbol("("));
      item.kind = FromKind::kUnnest;
      do {
        RDFREL_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
        item.unnest_args.push_back(std::move(arg));
      } while (ConsumeSymbol(","));
      RDFREL_RETURN_NOT_OK(ExpectSymbol(")"));
      RDFREL_RETURN_NOT_OK(ExpectKeyword("AS"));
      RDFREL_ASSIGN_OR_RETURN(item.alias, ExpectIdentifier("UNNEST alias"));
      RDFREL_RETURN_NOT_OK(ExpectSymbol("("));
      RDFREL_ASSIGN_OR_RETURN(item.unnest_column,
                              ExpectIdentifier("UNNEST column"));
      RDFREL_RETURN_NOT_OK(ExpectSymbol(")"));
      return item;
    }
    item.kind = FromKind::kTable;
    RDFREL_ASSIGN_OR_RETURN(item.table_name, ExpectIdentifier("table name"));
    if (ConsumeKeyword("AS")) {
      RDFREL_ASSIGN_OR_RETURN(item.alias, ExpectIdentifier("alias"));
    } else if (Peek().kind == TokenKind::kIdentifier && !PeekReserved()) {
      item.alias = Peek().text;
      Advance();
    } else {
      item.alias = item.table_name;
    }
    return item;
  }

  // ------------------------------------------------------------------- DDL
  Result<CreateTableStmt> ParseCreateTable() {
    RDFREL_RETURN_NOT_OK(ExpectKeyword("TABLE"));
    CreateTableStmt ct;
    RDFREL_ASSIGN_OR_RETURN(ct.table_name, ExpectIdentifier("table name"));
    RDFREL_RETURN_NOT_OK(ExpectSymbol("("));
    do {
      ColumnDef col;
      RDFREL_ASSIGN_OR_RETURN(col.name, ExpectIdentifier("column name"));
      const Token& t = Peek();
      if (t.kind != TokenKind::kIdentifier) {
        return Error("expected column type");
      }
      std::string ty = ToUpperAscii(t.text);
      if (ty == "BIGINT" || ty == "INTEGER" || ty == "INT") {
        col.type = ValueType::kInt64;
      } else if (ty == "DOUBLE" || ty == "REAL" || ty == "FLOAT") {
        col.type = ValueType::kDouble;
      } else if (ty == "VARCHAR" || ty == "TEXT" || ty == "STRING") {
        return Error("SQL column type " + ty +
                     " is unsupported: columns are BIGINT or DOUBLE");
      } else {
        return Error("unknown column type " + ty);
      }
      Advance();
      ct.columns.push_back(std::move(col));
    } while (ConsumeSymbol(","));
    RDFREL_RETURN_NOT_OK(ExpectSymbol(")"));
    return ct;
  }

  Result<CreateIndexStmt> ParseCreateIndex() {
    CreateIndexStmt ci;
    RDFREL_RETURN_NOT_OK(ExpectKeyword("INDEX"));
    RDFREL_ASSIGN_OR_RETURN(ci.index_name, ExpectIdentifier("index name"));
    RDFREL_RETURN_NOT_OK(ExpectKeyword("ON"));
    RDFREL_ASSIGN_OR_RETURN(ci.table_name, ExpectIdentifier("table name"));
    RDFREL_RETURN_NOT_OK(ExpectSymbol("("));
    RDFREL_ASSIGN_OR_RETURN(ci.column_name, ExpectIdentifier("column name"));
    RDFREL_RETURN_NOT_OK(ExpectSymbol(")"));
    return ci;
  }

  Result<InsertStmt> ParseInsert() {
    RDFREL_RETURN_NOT_OK(ExpectKeyword("INSERT"));
    RDFREL_RETURN_NOT_OK(ExpectKeyword("INTO"));
    InsertStmt ins;
    RDFREL_ASSIGN_OR_RETURN(ins.table_name, ExpectIdentifier("table name"));
    if (ConsumeSymbol("(")) {
      do {
        RDFREL_ASSIGN_OR_RETURN(std::string col,
                                ExpectIdentifier("column name"));
        ins.columns.push_back(std::move(col));
      } while (ConsumeSymbol(","));
      RDFREL_RETURN_NOT_OK(ExpectSymbol(")"));
    }
    RDFREL_RETURN_NOT_OK(ExpectKeyword("VALUES"));
    do {
      RDFREL_RETURN_NOT_OK(ExpectSymbol("("));
      std::vector<ExprPtr> row;
      do {
        RDFREL_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        row.push_back(std::move(e));
      } while (ConsumeSymbol(","));
      RDFREL_RETURN_NOT_OK(ExpectSymbol(")"));
      ins.rows.push_back(std::move(row));
    } while (ConsumeSymbol(","));
    return ins;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<ast::Statement> ParseSql(std::string_view sql) {
  RDFREL_ASSIGN_OR_RETURN(std::vector<Token> tokens, LexSql(sql));
  Parser p(std::move(tokens));
  return p.ParseStatement();
}

Result<std::unique_ptr<ast::SelectStmt>> ParseSelect(std::string_view sql) {
  RDFREL_ASSIGN_OR_RETURN(std::vector<Token> tokens, LexSql(sql));
  Parser p(std::move(tokens));
  return p.ParseSelectOnly();
}

}  // namespace rdfrel::sql
