#include "store/result_set.h"

#include <algorithm>
#include <cmath>

#include "util/string_util.h"

namespace rdfrel::store {

std::string ResultSet::ToString(size_t max_rows) const {
  std::string out;
  for (size_t i = 0; i < vars.size(); ++i) {
    if (i) out += " | ";
    out += "?" + vars[i];
  }
  out += "\n";
  for (size_t r = 0; r < rows.size() && r < max_rows; ++r) {
    for (size_t i = 0; i < rows[r].size(); ++i) {
      if (i) out += " | ";
      out += rows[r][i].has_value() ? rows[r][i]->ToNTriples() : "UNBOUND";
    }
    out += "\n";
  }
  if (rows.size() > max_rows) {
    out += "... (" + std::to_string(rows.size()) + " rows total)\n";
  }
  return out;
}

namespace {

using sparql::FilterExpr;
using sparql::FilterOp;

/// Value of an operand: a term, or nullopt when the operand is an unbound
/// variable.
Result<std::optional<rdf::Term>> OperandValue(
    const FilterExpr& f, const std::vector<std::string>& vars,
    const Binding& row) {
  if (f.op == FilterOp::kTerm) return std::optional<rdf::Term>(f.term);
  if (f.op == FilterOp::kVar) {
    for (size_t i = 0; i < vars.size(); ++i) {
      if (vars[i] == f.var) return row[i];
    }
    return std::optional<rdf::Term>();  // projected-away: unbound
  }
  return Status::Unsupported("nested expression as FILTER operand");
}

bool TryNumeric(const rdf::Term& t, double* out) {
  return t.is_literal() && ParseDouble(t.lexical(), out);
}

int OrderRank(const std::optional<rdf::Term>& t, double* num) {
  if (!t.has_value()) return 0;
  if (t->is_blank()) return 1;
  if (t->is_iri()) return 2;
  return TryNumeric(*t, num) ? 3 : 4;
}

/// Three-valued FILTER result: SPARQL errors (unbound operands, type
/// mismatches) propagate through !, && and || and count as false at the
/// top.
enum class Tri { kFalse, kTrue, kError };

Tri FromBool(bool b) { return b ? Tri::kTrue : Tri::kFalse; }

Result<Tri> Eval(const FilterExpr& f, const std::vector<std::string>& vars,
                 const Binding& row) {
  switch (f.op) {
    case FilterOp::kAnd:
    case FilterOp::kOr: {
      RDFREL_ASSIGN_OR_RETURN(Tri a, Eval(*f.lhs, vars, row));
      RDFREL_ASSIGN_OR_RETURN(Tri b, Eval(*f.rhs, vars, row));
      const Tri decisive = f.op == FilterOp::kAnd ? Tri::kFalse : Tri::kTrue;
      if (a == decisive || b == decisive) return decisive;
      return a == Tri::kError || b == Tri::kError ? Tri::kError : a;
    }
    case FilterOp::kNot: {
      RDFREL_ASSIGN_OR_RETURN(Tri a, Eval(*f.lhs, vars, row));
      if (a == Tri::kError) return a;
      return FromBool(a == Tri::kFalse);
    }
    case FilterOp::kBound: {
      for (size_t i = 0; i < vars.size(); ++i) {
        if (vars[i] == f.var) return FromBool(row[i].has_value());
      }
      return Tri::kFalse;
    }
    case FilterOp::kRegex: {
      RDFREL_ASSIGN_OR_RETURN(auto v, OperandValue(*f.lhs, vars, row));
      if (!v.has_value() || !v->is_literal()) return Tri::kError;
      return FromBool(v->lexical().find(f.pattern) != std::string::npos);
    }
    case FilterOp::kEq:
    case FilterOp::kNe:
    case FilterOp::kLt:
    case FilterOp::kLe:
    case FilterOp::kGt:
    case FilterOp::kGe: {
      RDFREL_ASSIGN_OR_RETURN(auto a, OperandValue(*f.lhs, vars, row));
      RDFREL_ASSIGN_OR_RETURN(auto b, OperandValue(*f.rhs, vars, row));
      if (!a.has_value() || !b.has_value()) return Tri::kError;
      double na, nb;
      const bool a_num = TryNumeric(*a, &na);
      const bool b_num = TryNumeric(*b, &nb);
      int cmp;
      if (a_num && b_num) {
        cmp = na < nb ? -1 : (na > nb ? 1 : 0);
      } else if (f.op == FilterOp::kEq || f.op == FilterOp::kNe) {
        cmp = *a == *b ? 0 : 1;
      } else if (a->is_literal() && b->is_literal() && !a_num && !b_num) {
        // Two non-numeric literals order by lexical form; any other mix
        // (IRIs, a number against a string) has no order.
        int c = a->lexical().compare(b->lexical());
        cmp = c < 0 ? -1 : (c > 0 ? 1 : 0);
      } else {
        return Tri::kError;
      }
      switch (f.op) {
        case FilterOp::kEq: return FromBool(cmp == 0);
        case FilterOp::kNe: return FromBool(cmp != 0);
        case FilterOp::kLt: return FromBool(cmp < 0);
        case FilterOp::kLe: return FromBool(cmp <= 0);
        case FilterOp::kGt: return FromBool(cmp > 0);
        default: return FromBool(cmp >= 0);
      }
    }
    case FilterOp::kVar:
    case FilterOp::kTerm:
      return Status::Unsupported("bare operand as boolean FILTER");
  }
  return Status::Internal("unhandled filter op");
}

}  // namespace

int CompareForOrderBy(const std::optional<rdf::Term>& a,
                      const std::optional<rdf::Term>& b) {
  double na = 0, nb = 0;
  const int ra = OrderRank(a, &na);
  const int rb = OrderRank(b, &nb);
  if (ra != rb) return ra < rb ? -1 : 1;
  if (ra == 0) return 0;
  if (ra == 3) return na < nb ? -1 : (na > nb ? 1 : 0);
  int c = a->lexical().compare(b->lexical());
  if (c == 0) c = a->language().compare(b->language());
  if (c == 0) c = a->datatype().compare(b->datatype());
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}

Result<bool> EvalFilterOnBinding(const FilterExpr& f,
                                 const std::vector<std::string>& vars,
                                 const Binding& row) {
  RDFREL_ASSIGN_OR_RETURN(Tri t, Eval(f, vars, row));
  return t == Tri::kTrue;
}

Status ApplyPostFiltersToRows(
    const std::vector<const sparql::FilterExpr*>& filters,
    const std::vector<std::string>& vars, std::vector<Binding>* rows) {
  if (filters.empty()) return Status::OK();
  std::vector<Binding> kept;
  kept.reserve(rows->size());
  for (auto& row : *rows) {
    bool pass = true;
    for (const auto* f : filters) {
      RDFREL_ASSIGN_OR_RETURN(bool ok, EvalFilterOnBinding(*f, vars, row));
      if (!ok) {
        pass = false;
        break;
      }
    }
    if (pass) kept.push_back(std::move(row));
  }
  *rows = std::move(kept);
  return Status::OK();
}

Status ApplyPostFilters(
    const std::vector<const sparql::FilterExpr*>& filters, ResultSet* rs) {
  return ApplyPostFiltersToRows(filters, rs->vars, &rs->rows);
}

}  // namespace rdfrel::store
