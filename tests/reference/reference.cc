#include "reference/reference.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>

namespace rdfrel::reference {

using sparql::FilterExpr;
using sparql::FilterOp;
using sparql::Pattern;
using sparql::PatternKind;

namespace {

constexpr const char* kXsd = "http://www.w3.org/2001/XMLSchema#";

/// The value of a literal whose whole lexical form parses as a double.
std::optional<double> Numeric(const rdf::Term& t) {
  if (!t.is_literal() || t.lexical().empty()) return std::nullopt;
  const char* begin = t.lexical().c_str();
  char* end = nullptr;
  errno = 0;
  double v = std::strtod(begin, &end);
  if (errno == ERANGE || end != begin + t.lexical().size()) {
    return std::nullopt;
  }
  return v;
}

int Rank(const rdf::Term* t) {
  if (t == nullptr) return 0;
  if (t->is_blank()) return 1;
  if (t->is_iri()) return 2;
  return Numeric(*t).has_value() ? 3 : 4;
}

/// ORDER BY's total order (see reference.h).
int CompareTerms(const rdf::Term* a, const rdf::Term* b) {
  const int ra = Rank(a);
  const int rb = Rank(b);
  if (ra != rb) return ra < rb ? -1 : 1;
  if (ra == 0) return 0;
  if (ra == 3) {
    const double x = *Numeric(*a);
    const double y = *Numeric(*b);
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  for (auto field : {&rdf::Term::lexical, &rdf::Term::language,
                     &rdf::Term::datatype}) {
    const int c = ((*a).*field)().compare(((*b).*field)());
    if (c != 0) return c < 0 ? -1 : 1;
  }
  return 0;
}

std::string FormatNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Cell signature for multiset comparison. Aggregate cells compare by
/// numeric value at 6 significant digits (backends may format decimals
/// with fewer digits than the reference).
std::string CellSig(const std::optional<rdf::Term>& cell, bool aggregate) {
  if (!cell.has_value()) return "UNBOUND";
  if (aggregate) {
    if (auto v = Numeric(*cell)) {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "#%.6g", *v);
      return buf;
    }
  }
  return cell->ToNTriples();
}

/// Equivalence class of an ORDER BY key: ties of the order compare equal.
std::string KeySig(const std::optional<rdf::Term>& cell) {
  if (cell.has_value()) {
    if (auto v = Numeric(*cell)) return "#" + FormatNumber(*v);
  }
  return CellSig(cell, false);
}

enum class Tri { kFalse, kTrue, kError };

Tri FromBool(bool b) { return b ? Tri::kTrue : Tri::kFalse; }

using Sol = std::vector<int>;  ///< term id per variable slot; -1 = unbound
using Sols = std::vector<Sol>;

bool Compatible(const Sol& a, const Sol& b) {
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] >= 0 && b[i] >= 0 && a[i] != b[i]) return false;
  }
  return true;
}

Sol Merge(const Sol& a, const Sol& b) {
  Sol m = a;
  for (size_t i = 0; i < m.size(); ++i) {
    if (m[i] < 0) m[i] = b[i];
  }
  return m;
}

}  // namespace

// ------------------------------------------------------------- Evaluator

Evaluator::Evaluator(const rdf::Graph& graph) {
  std::set<std::array<int, 3>> seen;
  auto intern = [&](const rdf::Term& t) {
    auto [it, inserted] =
        ids_.try_emplace(t.DictionaryKey(), static_cast<int>(terms_.size()));
    if (inserted) terms_.push_back(t);
    return it->second;
  };
  for (const rdf::EncodedTriple& et : graph.triples()) {
    auto t = graph.dictionary().DecodeTriple(et);
    if (!t.ok()) continue;
    std::array<int, 3> spo = {intern(t->subject), intern(t->predicate),
                              intern(t->object)};
    if (!seen.insert(spo).second) continue;  // graphs are sets
    for (size_t pos = 0; pos < 3; ++pos) {
      by_pos_[pos][spo[pos]].push_back(static_cast<int>(triples_.size()));
    }
    triples_.push_back(spo);
  }
}

int Evaluator::Find(const rdf::Term& term) const {
  auto it = ids_.find(term.DictionaryKey());
  return it == ids_.end() ? -1 : it->second;
}

// ------------------------------------------------------------- QueryEval

/// Evaluation state of one query: variable slots plus the algebra.
class QueryEval {
 public:
  QueryEval(const Evaluator& ev, const sparql::Query& q) : ev_(ev), q_(q) {}

  Result<Answer> Run(bool slice) {
    std::vector<std::string> vars;
    q_.where->CollectVariables(&vars);
    for (const auto& v : vars) Slot(v);
    RDFREL_RETURN_NOT_OK(Validate(*q_.where));
    RDFREL_ASSIGN_OR_RETURN(Sols sols, Eval(*q_.where));
    Answer out;
    out.vars = q_.EffectiveSelectVars();
    if (q_.HasAggregates()) {
      RDFREL_ASSIGN_OR_RETURN(out.rows, Aggregate(sols));
      RDFREL_RETURN_NOT_OK(SortRows(out.vars, &out.rows));
    } else {
      SortSols(&sols);
      for (const Sol& s : sols) {
        Row row;
        for (const auto& v : out.vars) row.push_back(Value(s, v));
        out.rows.push_back(std::move(row));
      }
    }
    if (q_.distinct) {
      std::set<std::string> seen;
      std::vector<Row> kept;
      for (auto& row : out.rows) {
        std::string sig;
        for (const auto& c : row) sig += CellSig(c, false) + '\x1f';
        if (seen.insert(std::move(sig)).second) kept.push_back(std::move(row));
      }
      out.rows = std::move(kept);
    }
    if (slice) {
      const size_t n = out.rows.size();
      const size_t off = std::min<size_t>(
          n, static_cast<size_t>(q_.offset.value_or(0)));
      const size_t count =
          std::min<size_t>(n - off, static_cast<size_t>(q_.limit.value_or(
                                        static_cast<int64_t>(n))));
      out.rows = std::vector<Row>(out.rows.begin() + static_cast<long>(off),
                                  out.rows.begin() +
                                      static_cast<long>(off + count));
    }
    return out;
  }

 private:
  int Slot(const std::string& var) {
    auto [it, inserted] =
        slots_.try_emplace(var, static_cast<int>(slots_.size()));
    return it->second;
  }
  int SlotOf(const std::string& var) const {
    auto it = slots_.find(var);
    return it == slots_.end() ? -1 : it->second;
  }
  const rdf::Term* TermOf(const Sol& s, const std::string& var) const {
    const int slot = SlotOf(var);
    if (slot < 0 || s[static_cast<size_t>(slot)] < 0) return nullptr;
    return &ev_.terms_[static_cast<size_t>(s[static_cast<size_t>(slot)])];
  }
  std::optional<rdf::Term> Value(const Sol& s, const std::string& var) const {
    const rdf::Term* t = TermOf(s, var);
    return t == nullptr ? std::nullopt : std::optional<rdf::Term>(*t);
  }

  /// Rejects what the reference does not evaluate.
  Status Validate(const Pattern& p) const {
    if (p.kind == PatternKind::kTriple &&
        p.triple.path_mod != sparql::PathMod::kNone) {
      return Status::Unsupported("property path");
    }
    for (const auto& f : p.filters) RDFREL_RETURN_NOT_OK(ValidateFilter(*f));
    for (const auto& c : p.children) RDFREL_RETURN_NOT_OK(Validate(*c));
    return Status::OK();
  }
  static Status ValidateFilter(const FilterExpr& f) {
    auto operand = [](const sparql::FilterExprPtr& e) {
      return e != nullptr &&
             (e->op == FilterOp::kVar || e->op == FilterOp::kTerm);
    };
    switch (f.op) {
      case FilterOp::kAnd:
      case FilterOp::kOr:
        RDFREL_RETURN_NOT_OK(ValidateFilter(*f.rhs));
        [[fallthrough]];
      case FilterOp::kNot:
        return ValidateFilter(*f.lhs);
      case FilterOp::kBound:
        return Status::OK();
      case FilterOp::kRegex:
        if (!operand(f.lhs)) break;
        return Status::OK();
      case FilterOp::kVar:
      case FilterOp::kTerm:
        break;
      default:  // comparisons
        if (!operand(f.lhs) || !operand(f.rhs)) break;
        return Status::OK();
    }
    return Status::Unsupported("FILTER shape outside the subset");
  }

  Sol Empty() const { return Sol(slots_.size(), -1); }

  Result<Sols> Eval(const Pattern& p) {
    switch (p.kind) {
      case PatternKind::kTriple:
        return ExtendTriple({Empty()}, p.triple);
      case PatternKind::kOr: {
        Sols out;
        for (const auto& c : p.children) {
          RDFREL_ASSIGN_OR_RETURN(Sols part, Eval(*c));
          out.insert(out.end(), part.begin(), part.end());
        }
        return out;
      }
      case PatternKind::kOptional:
        return LeftJoinOptional({Empty()}, p);
      case PatternKind::kAnd: {
        RDFREL_ASSIGN_OR_RETURN(Sols sols, EvalGroupBody(p));
        return ApplyFilters(p.filters, std::move(sols));
      }
    }
    return Status::Internal("unhandled pattern kind");
  }

  /// A group without its FILTERs: elements fold left to right; each run of
  /// non-OPTIONAL elements is an inner join, evaluated triples first in a
  /// greedy most-bound-positions order (join order is free there).
  Result<Sols> EvalGroupBody(const Pattern& g) {
    Sols cur = {Empty()};
    std::set<std::string> bound;
    std::vector<const Pattern*> run;
    auto flush = [&]() -> Status {
      std::vector<const Pattern*> triples;
      for (const Pattern* p : run) {
        if (p->kind == PatternKind::kTriple) triples.push_back(p);
      }
      while (!triples.empty()) {
        size_t best = 0;
        int best_score = -1;
        for (size_t i = 0; i < triples.size(); ++i) {
          int score = 0;
          for (const auto* c : {&triples[i]->triple.subject,
                                &triples[i]->triple.predicate,
                                &triples[i]->triple.object}) {
            if (!c->is_var || bound.count(c->var)) ++score;
          }
          if (score > best_score) {
            best = i;
            best_score = score;
          }
        }
        const sparql::TriplePattern& t = triples[best]->triple;
        RDFREL_ASSIGN_OR_RETURN(cur, ExtendTriple(cur, t));
        for (const auto& v : t.Variables()) bound.insert(v);
        triples.erase(triples.begin() + static_cast<long>(best));
      }
      for (const Pattern* p : run) {
        if (p->kind == PatternKind::kTriple) continue;
        RDFREL_ASSIGN_OR_RETURN(Sols other, Eval(*p));
        cur = Join(cur, other, nullptr);
      }
      run.clear();
      return Status::OK();
    };
    for (const auto& c : g.children) {
      if (c->kind != PatternKind::kOptional) {
        run.push_back(c.get());
        continue;
      }
      RDFREL_RETURN_NOT_OK(flush());
      RDFREL_ASSIGN_OR_RETURN(cur, LeftJoinOptional(cur, *c));
    }
    RDFREL_RETURN_NOT_OK(flush());
    return cur;
  }

  /// LeftJoin(left, P, F) for `OPTIONAL { P FILTER F }`: the optional
  /// group's FILTERs are the join condition, seeing both sides.
  Result<Sols> LeftJoinOptional(const Sols& left, const Pattern& opt) {
    const Pattern& inner = *opt.children.at(0);
    if (inner.kind != PatternKind::kAnd) {
      RDFREL_ASSIGN_OR_RETURN(Sols right, Eval(inner));
      return Join(left, right, nullptr, /*left_outer=*/true);
    }
    RDFREL_ASSIGN_OR_RETURN(Sols right, EvalGroupBody(inner));
    return Join(left, right, &inner.filters, /*left_outer=*/true);
  }

  /// Compatible-mapping (left) join, as nested loops over both sides.
  Sols Join(const Sols& left, const Sols& right,
            const std::vector<sparql::FilterExprPtr>* cond,
            bool left_outer = false) {
    Sols out;
    for (const Sol& l : left) {
      bool matched = false;
      for (const Sol& r : right) {
        if (!Compatible(l, r)) continue;
        Sol m = Merge(l, r);
        if (cond != nullptr && !AllTrue(*cond, m)) continue;
        out.push_back(std::move(m));
        matched = true;
      }
      if (left_outer && !matched) out.push_back(l);
    }
    return out;
  }

  /// Extends every solution of \p in with the matches of \p t.
  Result<Sols> ExtendTriple(const Sols& in, const sparql::TriplePattern& t) {
    const sparql::TermOrVar* comps[3] = {&t.subject, &t.predicate, &t.object};
    int constant[3];
    int slot[3];
    for (size_t pos = 0; pos < 3; ++pos) {
      slot[pos] = comps[pos]->is_var ? Slot(comps[pos]->var) : -1;
      constant[pos] = comps[pos]->is_var ? -1 : ev_.Find(comps[pos]->term);
      if (!comps[pos]->is_var && constant[pos] < 0) return Sols{};
    }
    Sols out;
    for (const Sol& s : in) {
      int want[3];
      const std::vector<int>* candidates = nullptr;
      for (size_t pos = 0; pos < 3; ++pos) {
        want[pos] = slot[pos] >= 0 ? s[static_cast<size_t>(slot[pos])]
                                   : constant[pos];
        if (want[pos] < 0) continue;
        auto it = ev_.by_pos_[pos].find(want[pos]);
        if (it == ev_.by_pos_[pos].end()) {
          candidates = &kNoMatch;
          break;
        }
        if (candidates == nullptr || it->second.size() < candidates->size()) {
          candidates = &it->second;
        }
      }
      auto visit = [&](int idx) {
        const std::array<int, 3>& spo = ev_.triples_[static_cast<size_t>(idx)];
        Sol m = s;
        for (size_t pos = 0; pos < 3; ++pos) {
          if (want[pos] >= 0 && spo[pos] != want[pos]) return;
          if (slot[pos] < 0) continue;
          int& cell = m[static_cast<size_t>(slot[pos])];
          if (cell >= 0 && cell != spo[pos]) return;  // repeated variable
          cell = spo[pos];
        }
        out.push_back(std::move(m));
      };
      if (candidates != nullptr) {
        for (int idx : *candidates) visit(idx);
      } else {
        for (size_t idx = 0; idx < ev_.triples_.size(); ++idx) {
          visit(static_cast<int>(idx));
        }
      }
    }
    return out;
  }

  // ------------------------------------------------------------ filters

  Sols ApplyFilters(const std::vector<sparql::FilterExprPtr>& filters,
                    Sols sols) const {
    if (filters.empty()) return sols;
    Sols kept;
    for (auto& s : sols) {
      if (AllTrue(filters, s)) kept.push_back(std::move(s));
    }
    return kept;
  }

  bool AllTrue(const std::vector<sparql::FilterExprPtr>& filters,
               const Sol& s) const {
    for (const auto& f : filters) {
      if (Test(*f, s) != Tri::kTrue) return false;
    }
    return true;
  }

  const rdf::Term* Operand(const FilterExpr& f, const Sol& s) const {
    return f.op == FilterOp::kTerm ? &f.term : TermOf(s, f.var);
  }

  Tri Test(const FilterExpr& f, const Sol& s) const {
    switch (f.op) {
      case FilterOp::kAnd: {
        const Tri a = Test(*f.lhs, s);
        const Tri b = Test(*f.rhs, s);
        if (a == Tri::kFalse || b == Tri::kFalse) return Tri::kFalse;
        return a == Tri::kTrue && b == Tri::kTrue ? Tri::kTrue : Tri::kError;
      }
      case FilterOp::kOr: {
        const Tri a = Test(*f.lhs, s);
        const Tri b = Test(*f.rhs, s);
        if (a == Tri::kTrue || b == Tri::kTrue) return Tri::kTrue;
        return a == Tri::kFalse && b == Tri::kFalse ? Tri::kFalse
                                                    : Tri::kError;
      }
      case FilterOp::kNot: {
        const Tri a = Test(*f.lhs, s);
        if (a == Tri::kError) return a;
        return FromBool(a == Tri::kFalse);
      }
      case FilterOp::kBound:
        return FromBool(TermOf(s, f.var) != nullptr);
      case FilterOp::kRegex: {
        const rdf::Term* v = Operand(*f.lhs, s);
        if (v == nullptr || !v->is_literal()) return Tri::kError;
        return FromBool(v->lexical().find(f.pattern) != std::string::npos);
      }
      case FilterOp::kVar:
      case FilterOp::kTerm:
        return Tri::kError;  // rejected by Validate
      default:
        break;
    }
    const rdf::Term* a = Operand(*f.lhs, s);
    const rdf::Term* b = Operand(*f.rhs, s);
    if (a == nullptr || b == nullptr) return Tri::kError;
    const auto na = Numeric(*a);
    const auto nb = Numeric(*b);
    int cmp = 0;
    if (na && nb) {
      cmp = *na < *nb ? -1 : (*na > *nb ? 1 : 0);
    } else if (f.op == FilterOp::kEq || f.op == FilterOp::kNe) {
      cmp = *a == *b ? 0 : 1;
    } else if (a->is_literal() && b->is_literal() && !na && !nb) {
      cmp = a->lexical().compare(b->lexical());
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

  // ----------------------------------------------------- solution modifiers

  void SortSols(Sols* sols) const {
    std::vector<int> keys;
    for (const auto& oc : q_.order_by) keys.push_back(SlotOf(oc.var));
    std::stable_sort(sols->begin(), sols->end(),
                     [&](const Sol& a, const Sol& b) {
                       for (size_t k = 0; k < keys.size(); ++k) {
                         if (keys[k] < 0) continue;  // never bound
                         const std::string& v = q_.order_by[k].var;
                         int c = CompareTerms(TermOf(a, v), TermOf(b, v));
                         if (c != 0) return q_.order_by[k].descending ? c > 0
                                                                      : c < 0;
                       }
                       return false;
                     });
  }

  /// ORDER BY over aggregate output rows (keys name output columns).
  Status SortRows(const std::vector<std::string>& vars,
                  std::vector<Row>* rows) const {
    std::vector<size_t> cols;
    for (const auto& oc : q_.order_by) {
      auto it = std::find(vars.begin(), vars.end(), oc.var);
      if (it == vars.end()) {
        return Status::Unsupported("ORDER BY a non-output aggregate key");
      }
      cols.push_back(static_cast<size_t>(it - vars.begin()));
    }
    auto ptr = [](const std::optional<rdf::Term>& c) {
      return c.has_value() ? &*c : nullptr;
    };
    std::stable_sort(rows->begin(), rows->end(),
                     [&](const Row& a, const Row& b) {
                       for (size_t k = 0; k < cols.size(); ++k) {
                         int c = CompareTerms(ptr(a[cols[k]]), ptr(b[cols[k]]));
                         if (c != 0) return q_.order_by[k].descending ? c > 0
                                                                      : c < 0;
                       }
                       return false;
                     });
    return Status::OK();
  }

  Result<std::vector<Row>> Aggregate(const Sols& sols) const {
    std::set<std::string> group_set(q_.group_by.begin(), q_.group_by.end());
    for (const auto& pr : q_.projection) {
      if (pr.agg == sparql::AggKind::kNone && !group_set.count(pr.var)) {
        return Status::InvalidArgument("projected variable ?" + pr.var +
                                       " must appear in GROUP BY");
      }
    }
    std::map<std::vector<int>, std::vector<const Sol*>> groups;
    std::vector<std::vector<int>> order;
    for (const Sol& s : sols) {
      std::vector<int> key;
      for (const auto& v : q_.group_by) {
        const int slot = SlotOf(v);
        key.push_back(slot < 0 ? -1 : s[static_cast<size_t>(slot)]);
      }
      auto [it, inserted] = groups.try_emplace(key);
      if (inserted) order.push_back(key);
      it->second.push_back(&s);
    }
    if (q_.group_by.empty() && groups.empty()) {
      groups[{}];
      order.push_back({});
    }
    std::vector<Row> rows;
    for (const auto& key : order) {
      const std::vector<const Sol*>& members = groups[key];
      Row row;
      for (const auto& pr : q_.projection) {
        if (pr.agg == sparql::AggKind::kNone) {
          row.push_back(members.empty() ? std::nullopt
                                        : Value(*members.front(), pr.var));
          continue;
        }
        row.push_back(Fold(pr, members));
      }
      rows.push_back(std::move(row));
    }
    return rows;
  }

  std::optional<rdf::Term> Fold(const sparql::Projection& pr,
                                const std::vector<const Sol*>& members) const {
    if (pr.agg == sparql::AggKind::kCount) {
      int64_t n = 0;
      std::set<int> distinct;
      for (const Sol* s : members) {
        if (pr.star) {
          ++n;
          continue;
        }
        const int slot = SlotOf(pr.var);
        const int id = slot < 0 ? -1 : (*s)[static_cast<size_t>(slot)];
        if (id < 0) continue;
        if (pr.distinct && !distinct.insert(id).second) continue;
        ++n;
      }
      return rdf::Term::TypedLiteral(std::to_string(n),
                                     std::string(kXsd) + "integer");
    }
    std::vector<double> values;
    std::set<double> distinct;
    for (const Sol* s : members) {
      const rdf::Term* t = TermOf(*s, pr.var);
      if (t == nullptr) continue;
      auto v = Numeric(*t);
      if (!v) continue;
      if (pr.distinct && !distinct.insert(*v).second) continue;
      values.push_back(*v);
    }
    if (values.empty()) return std::nullopt;
    const bool extremum =
        pr.agg == sparql::AggKind::kMin || pr.agg == sparql::AggKind::kMax;
    double acc = extremum ? values.front() : 0.0;
    for (double v : values) {
      switch (pr.agg) {
        case sparql::AggKind::kMin: acc = std::min(acc, v); break;
        case sparql::AggKind::kMax: acc = std::max(acc, v); break;
        default: acc += v; break;
      }
    }
    if (pr.agg == sparql::AggKind::kAvg) {
      acc /= static_cast<double>(values.size());
    }
    return rdf::Term::TypedLiteral(FormatNumber(acc),
                                   std::string(kXsd) + "decimal");
  }

  static const std::vector<int> kNoMatch;

  const Evaluator& ev_;
  const sparql::Query& q_;
  std::map<std::string, int> slots_;
};

const std::vector<int> QueryEval::kNoMatch;

Result<Answer> Evaluator::Evaluate(const sparql::Query& query,
                                   bool slice) const {
  if (query.where == nullptr) return Status::InvalidArgument("no WHERE");
  QueryEval eval(*this, query);
  return eval.Run(slice);
}

// ------------------------------------------------------------------ Diff

std::string Diff(const sparql::Query& query, const Answer& unsliced,
                 const std::vector<std::string>& vars,
                 const std::vector<Row>& got) {
  if (vars != unsliced.vars) return "projected columns differ";
  std::vector<bool> aggregate(vars.size(), false);
  if (query.HasAggregates()) {
    for (size_t i = 0; i < vars.size() && i < query.projection.size(); ++i) {
      aggregate[i] = query.projection[i].agg != sparql::AggKind::kNone;
    }
  }
  auto sig = [&](const Row& row) {
    std::string s;
    for (size_t i = 0; i < row.size(); ++i) {
      s += CellSig(row[i], aggregate[i]);
      s += " | ";
    }
    return s;
  };
  const size_t n = unsliced.rows.size();
  const size_t off =
      std::min<size_t>(n, static_cast<size_t>(query.offset.value_or(0)));
  const size_t count = std::min<size_t>(
      n - off, static_cast<size_t>(
                   query.limit.value_or(static_cast<int64_t>(n))));
  const bool sliced = query.limit.has_value() || query.offset.has_value();
  for (const Row& row : got) {
    if (row.size() != vars.size()) {
      return "a row has " + std::to_string(row.size()) + " cells for " +
             std::to_string(vars.size()) + " columns";
    }
  }
  if (got.size() != count) {
    return "row count " + std::to_string(got.size()) + ", reference " +
           std::to_string(count);
  }
  // Multiset check: the rows are drawn from the answer; with the counts
  // equal, that makes them the answer unless the query slices it.
  std::multiset<std::string> pool;
  for (const Row& row : unsliced.rows) pool.insert(sig(row));
  for (const Row& row : got) {
    auto it = pool.find(sig(row));
    if (it == pool.end()) {
      return "row not in the reference answer" +
             std::string(sliced ? " (unsliced)" : "") + ": " + sig(row);
    }
    pool.erase(it);
  }
  // Order check on the ORDER BY keys the projection carries; a key that is
  // not projected ends the comparable prefix.
  std::vector<size_t> key_cols;
  for (const auto& oc : query.order_by) {
    auto it = std::find(vars.begin(), vars.end(), oc.var);
    if (it == vars.end()) break;
    key_cols.push_back(static_cast<size_t>(it - vars.begin()));
  }
  for (size_t i = 0; i < count && !key_cols.empty(); ++i) {
    for (size_t c : key_cols) {
      if (KeySig(got[i][c]) != KeySig(unsliced.rows[off + i][c])) {
        return "ORDER BY key of row " + std::to_string(i) + " is " +
               KeySig(got[i][c]) + ", reference " +
               KeySig(unsliced.rows[off + i][c]);
      }
    }
  }
  return "";
}

}  // namespace rdfrel::reference
