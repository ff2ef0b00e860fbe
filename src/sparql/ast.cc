#include "sparql/ast.h"

#include <algorithm>
#include <unordered_set>

namespace rdfrel::sparql {

namespace {

/// `(lhs op rhs)`, built by appending: gcc 12 -Wrestrict misfires on
/// `"(" + std::string&&`.
std::string Infix(const FilterExpr& lhs, const char* op,
                  const FilterExpr& rhs) {
  std::string out = "(";
  out += lhs.ToString();
  out += op;
  out += rhs.ToString();
  out += ")";
  return out;
}

}  // namespace

std::vector<std::string> TriplePattern::Variables() const {
  std::vector<std::string> out;
  auto add = [&](const TermOrVar& t) {
    if (t.is_var &&
        std::find(out.begin(), out.end(), t.var) == out.end()) {
      out.push_back(t.var);
    }
  };
  add(subject);
  add(predicate);
  add(object);
  return out;
}

std::string FilterExpr::ToString() const {
  switch (op) {
    case FilterOp::kVar: return "?" + var;
    case FilterOp::kTerm: return term.ToNTriples();
    case FilterOp::kBound: return "BOUND(?" + var + ")";
    case FilterOp::kRegex:
      return "REGEX(" + lhs->ToString() + ", \"" + pattern + "\")";
    case FilterOp::kNot: return "(!" + lhs->ToString() + ")";
    case FilterOp::kAnd:
      return Infix(*lhs, " && ", *rhs);
    case FilterOp::kOr:
      return Infix(*lhs, " || ", *rhs);
    case FilterOp::kEq:
      return Infix(*lhs, " = ", *rhs);
    case FilterOp::kNe:
      return Infix(*lhs, " != ", *rhs);
    case FilterOp::kLt:
      return Infix(*lhs, " < ", *rhs);
    case FilterOp::kLe:
      return Infix(*lhs, " <= ", *rhs);
    case FilterOp::kGt:
      return Infix(*lhs, " > ", *rhs);
    case FilterOp::kGe:
      return Infix(*lhs, " >= ", *rhs);
  }
  return "?";
}

void Pattern::CollectTriples(
    std::vector<const TriplePattern*>* out) const {
  if (kind == PatternKind::kTriple) {
    out->push_back(&triple);
    return;
  }
  for (const auto& c : children) c->CollectTriples(out);
}

void Pattern::CollectVariables(std::vector<std::string>* out) const {
  std::vector<const TriplePattern*> triples;
  CollectTriples(&triples);
  std::unordered_set<std::string> seen(out->begin(), out->end());
  for (const auto* t : triples) {
    for (const auto& v : t->Variables()) {
      if (seen.insert(v).second) out->push_back(v);
    }
  }
}

std::string Pattern::ToString(int indent) const {
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  switch (kind) {
    case PatternKind::kTriple:
      return pad + "t" + std::to_string(triple.id) + ": " +
             triple.ToString() + "\n";
    case PatternKind::kAnd:
    case PatternKind::kOr:
    case PatternKind::kOptional: {
      std::string name = kind == PatternKind::kAnd
                             ? "AND"
                             : (kind == PatternKind::kOr ? "OR" : "OPTIONAL");
      std::string out = pad + name + "\n";
      for (const auto& c : children) out += c->ToString(indent + 1);
      for (const auto& f : filters) {
        out += pad + "  FILTER " + f->ToString() + "\n";
      }
      return out;
    }
  }
  return "";
}

PatternPtr MakeTriplePattern(TriplePattern t) {
  auto p = std::make_unique<Pattern>();
  p->kind = PatternKind::kTriple;
  p->triple = std::move(t);
  return p;
}

PatternPtr MakeGroup(std::vector<PatternPtr> children) {
  auto p = std::make_unique<Pattern>();
  p->kind = PatternKind::kAnd;
  p->children = std::move(children);
  return p;
}

std::vector<std::string> Query::EffectiveSelectVars() const {
  if (HasAggregates()) {
    std::vector<std::string> out;
    for (const auto& pr : projection) out.push_back(pr.OutputName());
    return out;
  }
  if (!select_vars.empty()) return select_vars;
  std::vector<std::string> all;
  if (where) where->CollectVariables(&all);
  return all;
}

}  // namespace rdfrel::sparql
