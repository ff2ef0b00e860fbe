#include "sql/ast.h"


namespace rdfrel::sql::ast {

const char* BinaryOpToString(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq: return "=";
    case BinaryOp::kNe: return "<>";
    case BinaryOp::kLt: return "<";
    case BinaryOp::kLe: return "<=";
    case BinaryOp::kGt: return ">";
    case BinaryOp::kGe: return ">=";
    case BinaryOp::kAnd: return "AND";
    case BinaryOp::kOr: return "OR";
    case BinaryOp::kAdd: return "+";
    case BinaryOp::kSub: return "-";
    case BinaryOp::kMul: return "*";
    case BinaryOp::kDiv: return "/";
  }
  return "?";
}

std::string Expr::ToString() const {
  switch (kind) {
    case ExprKind::kLiteral:
      return literal.ToString();
    case ExprKind::kColumnRef:
      return qualifier.empty() ? column : qualifier + "." + column;
    case ExprKind::kBinary:
      return std::string("(") + lhs->ToString() + " " +
             BinaryOpToString(op) + " " + rhs->ToString() + ")";
    case ExprKind::kNot:
      return "(NOT " + child->ToString() + ")";
    case ExprKind::kNeg:
      return "(-" + child->ToString() + ")";
    case ExprKind::kIsNull:
      return std::string("(") + child->ToString() +
             (negated ? " IS NOT NULL" : " IS NULL") + ")";
    case ExprKind::kCase: {
      std::string out = "CASE";
      for (const auto& b : branches) {
        out += " WHEN " + b.when->ToString() + " THEN " + b.then->ToString();
      }
      if (else_expr) out += " ELSE " + else_expr->ToString();
      out += " END";
      return out;
    }
    case ExprKind::kCoalesce: {
      std::string out = "COALESCE(";
      for (size_t i = 0; i < args.size(); ++i) {
        if (i) out += ", ";
        out += args[i]->ToString();
      }
      out += ")";
      return out;
    }
    case ExprKind::kIn: {
      auto row = [](const std::vector<ExprPtr>& es) {
        std::string out;
        for (size_t i = 0; i < es.size(); ++i) {
          if (i) out += ", ";
          out += es[i]->ToString();
        }
        return es.size() == 1 ? out : "(" + out + ")";
      };
      std::string out = "(" + row(args) + " IN (";
      for (size_t i = 0; i < in_rows.size(); ++i) {
        if (i) out += ", ";
        out += row(in_rows[i]);
      }
      return out + "))";
    }
  }
  return "?";
}

ExprPtr MakeLiteral(Value v) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kLiteral;
  e->literal = std::move(v);
  return e;
}

ExprPtr MakeColumnRef(std::string qualifier, std::string column) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kColumnRef;
  e->qualifier = std::move(qualifier);
  e->column = std::move(column);
  return e;
}

ExprPtr MakeBinary(BinaryOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kBinary;
  e->op = op;
  e->lhs = std::move(lhs);
  e->rhs = std::move(rhs);
  return e;
}

ExprPtr MakeNot(ExprPtr child) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kNot;
  e->child = std::move(child);
  return e;
}

ExprPtr MakeIsNull(ExprPtr child, bool negated) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kIsNull;
  e->child = std::move(child);
  e->negated = negated;
  return e;
}

}  // namespace rdfrel::sql::ast
