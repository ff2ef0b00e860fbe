#include "translate/sql_base.h"

#include <cctype>

#include "util/string_util.h"

namespace rdfrel::translate {

using opt::ExecKind;
using opt::ExecNode;

std::string VarColumn(const std::string& var) {
  if (!var.empty() && var[0] == '#') return var.substr(1);
  std::string out = "v_";
  for (char c : var) {
    out.push_back(std::isalnum(static_cast<unsigned char>(c)) ? c : '_');
  }
  return out;
}

Result<ModifierPlacement> PlaceModifiers(const sparql::Query& query,
                                         bool has_post_filters,
                                         bool has_post_filter_vars) {
  ModifierPlacement out;
  if (!has_post_filters && query.order_by.empty()) {
    out.distinct_in_sql = query.distinct;
    return out;
  }
  if (has_post_filters && query.HasAggregates()) {
    return Status::Unsupported(
        "aggregate over a FILTER the SQL translation cannot express");
  }
  out.distinct_in_sql = query.distinct && !has_post_filter_vars;
  out.slice_in_sql = false;
  return out;
}

Result<TranslatedQuery> PatternSqlBuilderBase::Build(const ExecNode& plan) {
  RDFREL_RETURN_NOT_OK(Translate(plan, /*is_root=*/true));
  if (cur_.empty()) {
    return Status::InvalidArgument("plan produced no relation");
  }
  std::vector<std::string> vars = query_.EffectiveSelectVars();
  // Post-filters (e.g. REGEX) and ORDER BY run on decoded rows after the
  // SQL; any variable they read must survive the projection even when it
  // is not selected. Extra columns ride at the tail of the SELECT list and
  // the decode stage drops them once it has filtered and sorted.
  std::vector<std::string> extra;
  if (!query_.HasAggregates()) {
    std::set<std::string> have(vars.begin(), vars.end());
    for (const auto* f : post_filters_) {
      CollectExtraFilterVars(*f, &have, &extra);
    }
    for (const auto& oc : query_.order_by) {
      if (bound_.count(oc.var) && have.insert(oc.var).second) {
        extra.push_back(oc.var);
      }
    }
  }
  RDFREL_ASSIGN_OR_RETURN(
      const ModifierPlacement place,
      PlaceModifiers(query_, !post_filters_.empty(), !extra.empty()));
  std::string sql;
  if (!ctes_.empty()) {
    sql += "WITH ";
    for (size_t i = 0; i < ctes_.size(); ++i) {
      if (i) sql += ",\n";
      sql += ctes_[i].first + " AS (" + ctes_[i].second + ")";
    }
    sql += "\n";
  }
  if (query_.HasAggregates()) {
    RDFREL_ASSIGN_OR_RETURN(std::string agg_sql, BuildAggregateSelect());
    sql += agg_sql;
  } else {
  sql += "SELECT ";
  if (place.distinct_in_sql) sql += "DISTINCT ";
  for (size_t i = 0; i < vars.size(); ++i) {
    if (i) sql += ", ";
    auto it = bound_.find(vars[i]);
    if (it != bound_.end()) {
      sql += cur_ + "." + it->second.column + " AS " + VarColumn(vars[i]);
    } else {
      sql += "NULL AS " + VarColumn(vars[i]);
    }
  }
  for (size_t i = 0; i < extra.size(); ++i) {
    if (i || !vars.empty()) sql += ", ";
    sql += cur_ + "." + bound_.at(extra[i]).column + " AS " +
           VarColumn(extra[i]);
  }
  if (vars.empty() && extra.empty()) sql += "1 AS one";
  sql += " FROM " + cur_;
  }
  if (query_.limit.has_value() && place.slice_in_sql) {
    sql += " LIMIT " + std::to_string(*query_.limit);
  }
  if (query_.offset.has_value() && place.slice_in_sql) {
    sql += " OFFSET " + std::to_string(*query_.offset);
  }
  TranslatedQuery out;
  out.sql = std::move(sql);
  out.post_filters = std::move(post_filters_);
  out.post_filter_vars = std::move(extra);
  return out;
}

Status PatternSqlBuilderBase::Translate(const ExecNode& node, bool is_root) {
  if (node.fold != nullptr) return TranslateFolded(node, is_root);
  return TranslateNode(node, is_root);
}

Status PatternSqlBuilderBase::TranslateNode(const ExecNode& node,
                                            bool is_root) {
  switch (node.kind) {
    case ExecKind::kAnd: {
      for (const auto& c : node.children) {
        RDFREL_RETURN_NOT_OK(Translate(*c));
      }
      return EmitFilters(node.filters, is_root);
    }
    case ExecKind::kTriple:
    case ExecKind::kStar:
      RDFREL_RETURN_NOT_OK(EmitAccess(node));
      return EmitFilters(node.filters, is_root);
    case ExecKind::kOr:
      RDFREL_RETURN_NOT_OK(EmitUnion(node));
      return EmitFilters(node.filters, is_root);
    case ExecKind::kOptional:
      return EmitOptional(node);
  }
  return Status::Internal("unhandled exec node kind");
}

Status PatternSqlBuilderBase::TranslateFolded(const ExecNode& node,
                                              bool is_root) {
  if (fold_.fold != nullptr) {
    return Status::Internal("UNION fold nested in a folded subtree");
  }
  fold_.fold = node.fold.get();
  for (size_t k = 0; k < fold_.fold->positions.size(); ++k) {
    fold_.hidden.push_back(sparql::TermOrVar::Var("#h" + std::to_string(k)));
  }
  Status st = TranslateNode(node, is_root);
  const bool tested = fold_.tested;
  fold_ = ActiveFold{};
  if (st.ok() && !tested) {
    return Status::Internal("folded positions left untranslated");
  }
  return st;
}

const sparql::TermOrVar& PatternSqlBuilderBase::Resolve(
    const sparql::TermOrVar& tv) const {
  if (fold_.fold != nullptr) {
    const auto& positions = fold_.fold->positions;
    for (size_t k = 0; k < positions.size(); ++k) {
      if (&positions[k].At() == &tv) return fold_.hidden[k];
    }
  }
  return tv;
}

std::string PatternSqlBuilderBase::FoldDomain(const std::string& var,
                                              const std::string& expr) const {
  if (fold_.fold == nullptr || fold_.hidden.size() < 2) return "";
  for (size_t k = 0; k < fold_.hidden.size(); ++k) {
    if (fold_.hidden[k].var != var) continue;
    std::set<int64_t> seen;
    std::vector<std::string> ids;
    for (const auto& tuple : fold_.fold->tuples) {
      const int64_t id = IdOf(*tuple[k]);
      if (seen.insert(id).second) ids.push_back(std::to_string(id));
    }
    return expr + " IN (" + JoinStrings(ids, ", ") + ")";
  }
  return "";
}

std::string PatternSqlBuilderBase::TakeFoldTest(
    std::map<std::string, std::string>* new_vars) {
  if (fold_.fold == nullptr || fold_.tested) return "";
  std::vector<std::string> exprs;
  for (const auto& h : fold_.hidden) {
    auto it = new_vars->find(h.var);
    if (it != new_vars->end()) {
      exprs.push_back(it->second);
    } else if (IsBound(h.var)) {
      exprs.push_back(BoundCol(h.var));
    } else {
      return "";  // a later CTE binds it
    }
  }
  for (const auto& h : fold_.hidden) {
    new_vars->erase(h.var);
    bound_.erase(h.var);
  }
  fold_.tested = true;
  std::vector<std::string> rows;
  for (const auto& tuple : fold_.fold->tuples) {
    std::vector<std::string> ids;
    for (const rdf::Term* t : tuple) ids.push_back(std::to_string(IdOf(*t)));
    rows.push_back(ids.size() == 1 ? ids[0]
                                   : "(" + JoinStrings(ids, ", ") + ")");
  }
  const std::string lhs =
      exprs.size() == 1 ? exprs[0] : "(" + JoinStrings(exprs, ", ") + ")";
  return lhs + " IN (" + JoinStrings(rows, ", ") + ")";
}

std::string PatternSqlBuilderBase::NewCte(const std::string& body) {
  // A body names earlier CTEs only by names returned here, so equal text is
  // the same relation over the same data: a sub-pattern that several UNION
  // branches repeat is materialized once. Sharing is transitive, since a
  // body over a shared CTE repeats its text too.
  auto [it, inserted] = cte_names_.try_emplace(body);
  if (inserted) {
    it->second = "q" + std::to_string(ctes_.size() + 1);
    ctes_.emplace_back(it->second, body);
  }
  return it->second;
}

int64_t PatternSqlBuilderBase::IdOf(const rdf::Term& term) const {
  return static_cast<int64_t>(dict_->Lookup(term));
}

std::string PatternSqlBuilderBase::CarryList(
    const std::string& from_alias,
    const std::map<std::string, std::string>& overrides) const {
  std::string out;
  for (const auto& [var, bv] : bound_) {
    if (!out.empty()) out += ", ";
    auto ov = overrides.find(var);
    if (ov != overrides.end()) {
      out += ov->second + " AS " + bv.column;
    } else {
      out += from_alias + "." + bv.column + " AS " + bv.column;
    }
  }
  return out;
}

Result<std::string> PatternSqlBuilderBase::BuildAggregateSelect() {
  // SPARQL 1.1 aggregates (paper future work): the pattern's bindings in
  // cur_ are grouped by the GROUP BY variables; COUNT counts bindings
  // (dictionary ids), while SUM/MIN/MAX/AVG aggregate the *numeric value*
  // of literals via the lex side table.
  std::set<std::string> group_set(query_.group_by.begin(),
                                  query_.group_by.end());
  for (const auto& pr : query_.projection) {
    if (pr.agg == sparql::AggKind::kNone && !group_set.count(pr.var)) {
      return Status::InvalidArgument("projected variable ?" + pr.var +
                                     " must appear in GROUP BY");
    }
  }
  std::string sql = "SELECT ";
  if (query_.distinct) sql += "DISTINCT ";
  std::map<std::string, std::string> lex_joins;  // var -> lex alias
  auto lex_for = [&](const std::string& var) -> Result<std::string> {
    if (lex_table_.empty()) {
      return Status::Unsupported(
          "numeric aggregates require a lex table");
    }
    auto it = lex_joins.find(var);
    if (it != lex_joins.end()) return it->second;
    std::string alias = "LA" + std::to_string(lex_joins.size());
    lex_joins.emplace(var, alias);
    return alias;
  };
  bool first = true;
  for (const auto& pr : query_.projection) {
    if (!first) sql += ", ";
    first = false;
    std::string out_col = VarColumn(pr.OutputName());
    if (pr.agg == sparql::AggKind::kNone) {
      if (bound_.count(pr.var)) {
        sql += cur_ + "." + bound_[pr.var].column + " AS " + out_col;
      } else {
        sql += "NULL AS " + out_col;
      }
      continue;
    }
    if (pr.agg == sparql::AggKind::kCount) {
      std::string inside;
      if (pr.star) {
        inside = "*";
      } else {
        inside = bound_.count(pr.var)
                     ? cur_ + "." + bound_[pr.var].column
                     : std::string("NULL");
        if (pr.distinct) inside = "DISTINCT " + inside;
      }
      sql += "COUNT(" + inside + ") AS " + out_col;
      continue;
    }
    // Numeric aggregates over literal values.
    const char* fn = pr.agg == sparql::AggKind::kSum   ? "SUM"
                     : pr.agg == sparql::AggKind::kMin ? "MIN"
                     : pr.agg == sparql::AggKind::kMax ? "MAX"
                                                       : "AVG";
    if (!bound_.count(pr.var)) {
      sql += std::string(fn) + "(NULL) AS " + out_col;
      continue;
    }
    RDFREL_ASSIGN_OR_RETURN(std::string alias, lex_for(pr.var));
    std::string inside = alias + ".num";
    if (pr.distinct) inside = "DISTINCT " + inside;
    sql += std::string(fn) + "(" + inside + ") AS " + out_col;
  }
  sql += " FROM " + cur_;
  for (const auto& [var, alias] : lex_joins) {
    sql += " LEFT OUTER JOIN " + lex_table_ + " AS " + alias + " ON " +
           alias + ".id = " + cur_ + "." + bound_[var].column;
  }
  if (!query_.group_by.empty()) {
    std::string keys;
    for (const auto& v : query_.group_by) {
      if (!bound_.count(v)) {
        return Status::InvalidArgument("GROUP BY variable ?" + v +
                                       " is unbound");
      }
      if (!keys.empty()) keys += ", ";
      keys += cur_ + "." + bound_[v].column;
    }
    sql += " GROUP BY " + keys;
  }
  return sql;
}

std::string PatternSqlBuilderBase::CompatEq(const std::string& expr,
                                            const std::string& var) const {
  const BoundVar& bv = bound_.at(var);
  std::string col = cur_ + "." + bv.column;
  if (!bv.maybe_null) return expr + " = " + col;
  // SPARQL compatibility: NULL on either side is compatible.
  return "(" + col + " IS NULL OR " + expr + " IS NULL OR " + expr + " = " +
         col + ")";
}

std::string PatternSqlBuilderBase::CompatMerge(const std::string& expr,
                                               const std::string& var) const {
  const BoundVar& bv = bound_.at(var);
  if (!bv.maybe_null) return "";
  return "COALESCE(" + cur_ + "." + bv.column + ", " + expr + ")";
}

bool PatternSqlBuilderBase::BindComponent(const sparql::TermOrVar& tv,
                                          const std::string& expr,
                                          AccessBinds* binds) const {
  if (!tv.is_var) {
    binds->wheres.push_back(expr + " = " + std::to_string(IdOf(tv.term)));
    return false;
  }
  const std::string& var = tv.var;
  if (IsBound(var)) {
    auto seen = binds->seen_bound.find(var);
    if (seen != binds->seen_bound.end()) {
      binds->wheres.push_back(expr + " = " + seen->second);
      return false;
    }
    binds->wheres.push_back(CompatEq(expr, var));
    std::string merged = CompatMerge(expr, var);
    if (merged.empty()) {
      binds->seen_bound[var] = BoundCol(var);
    } else {
      binds->overrides[var] = merged;
      binds->resolved.push_back(var);
      binds->seen_bound[var] = std::move(merged);
    }
    return false;
  }
  auto local = binds->new_vars.find(var);
  if (local != binds->new_vars.end()) {
    // Repeated variable within the triple (?x p ?x).
    binds->wheres.push_back(expr + " = " + local->second);
    return false;
  }
  binds->new_vars[var] = expr;
  return true;
}

void PatternSqlBuilderBase::EmitAccessCte(const std::string& table,
                                          const AccessBinds& binds,
                                          const std::string& dummy) {
  std::string from = table + " AS T";
  if (!cur_.empty()) from += ", " + cur_;
  std::string select = CarryList(cur_, binds.overrides);
  for (const auto& [var, expr] : binds.new_vars) {
    if (!select.empty()) select += ", ";
    select += expr + " AS " + VarColumn(var);
  }
  if (select.empty()) select = dummy;
  std::string body = "SELECT " + select + " FROM " + from;
  if (!binds.wheres.empty()) {
    body += " WHERE " + JoinStrings(binds.wheres, " AND ");
  }
  cur_ = NewCte(body);
  for (const auto& [var, expr] : binds.new_vars) {
    bound_[var] = BoundVar{VarColumn(var), false};
  }
  for (const auto& var : binds.resolved) bound_[var].maybe_null = false;
}

void PatternSqlBuilderBase::EmitBinaryAccess(const std::string& table,
                                             const sparql::TriplePattern& t,
                                             const std::string& pred_expr) {
  AccessBinds binds;
  BindComponent(t.subject, "T.entry", &binds);
  BindComponent(t.object, "T.val", &binds);
  if (!pred_expr.empty()) BindComponent(t.predicate, pred_expr, &binds);
  EmitAccessCte(table, binds, "T.entry AS dummy_entry");
}

Status PatternSqlBuilderBase::EmitUnion(const ExecNode& node) {
  std::string cur0 = cur_;
  auto bound0 = bound_;

  struct Branch {
    std::string cte;
    std::map<std::string, BoundVar> bound;
  };
  std::vector<Branch> branches;
  std::set<std::string> all_vars;
  for (const auto& c : node.children) {
    cur_ = cur0;
    bound_ = bound0;
    RDFREL_RETURN_NOT_OK(Translate(*c));
    branches.push_back({cur_, bound_});
    for (const auto& [v, bv] : bound_) all_vars.insert(v);
  }
  std::vector<std::string> selects;
  for (const auto& b : branches) {
    std::string sel;
    for (const auto& v : all_vars) {
      if (!sel.empty()) sel += ", ";
      auto it = b.bound.find(v);
      if (it != b.bound.end()) {
        sel += b.cte + "." + it->second.column + " AS " + VarColumn(v);
      } else {
        sel += "NULL AS " + VarColumn(v);
      }
    }
    if (sel.empty()) sel = "1 AS one";
    selects.push_back("SELECT " + sel + " FROM " + b.cte);
  }
  cur_ = NewCte(JoinStrings(selects, " UNION ALL "));
  bound_.clear();
  for (const auto& v : all_vars) {
    // A variable missing from (or nullable in) any branch may be NULL in
    // the union; downstream joins must use compatibility semantics.
    bool maybe_null = false;
    for (const auto& b : branches) {
      auto it = b.bound.find(v);
      if (it == b.bound.end() || it->second.maybe_null) {
        maybe_null = true;
        break;
      }
    }
    bound_[v] = BoundVar{VarColumn(v), maybe_null};
  }
  return Status::OK();
}

Status PatternSqlBuilderBase::EmitOptional(const ExecNode& node) {
  if (node.children.size() != 1) {
    return Status::Internal("OPTIONAL node must have one child");
  }
  if (cur_.empty()) {
    return Status::Unsupported(
        "OPTIONAL with no mandatory part is outside the subset");
  }
  std::string cur0 = cur_;
  auto bound0 = bound_;
  // Seed the optional sub-plan from the DISTINCT shared bindings, so that
  // joining its result back never multiplies duplicate mandatory rows.
  if (!bound0.empty()) {
    std::string seed = "SELECT DISTINCT " + CarryList(cur0) + " FROM " + cur0;
    cur_ = NewCte(seed);
  }
  RDFREL_RETURN_NOT_OK(Translate(*node.children[0]));
  std::string opt_cte = cur_;
  auto opt_bound = bound_;

  std::vector<std::string> on;
  for (const auto& [v, bv] : bound0) {
    auto it = opt_bound.find(v);
    if (it != opt_bound.end()) {
      if (bv.maybe_null) {
        // Compatibility join: a mandatory-side NULL matches anything.
        on.push_back("(" + cur0 + "." + bv.column + " IS NULL OR o." +
                     it->second.column + " IS NULL OR " + cur0 + "." +
                     bv.column + " = o." + it->second.column + ")");
      } else {
        on.push_back(cur0 + "." + bv.column + " = o." + it->second.column);
      }
    }
  }
  if (on.empty()) on.push_back("1 = 1");
  std::string select;
  std::map<std::string, BoundVar> new_bound;
  for (const auto& [v, bv] : bound0) {
    if (!select.empty()) select += ", ";
    auto it = opt_bound.find(v);
    if (bv.maybe_null && it != opt_bound.end()) {
      // The optional side may define a value the mandatory side lacks.
      select += "COALESCE(" + cur0 + "." + bv.column + ", o." +
                it->second.column + ") AS " + bv.column;
      new_bound[v] = BoundVar{bv.column, true};
    } else {
      select += cur0 + "." + bv.column + " AS " + bv.column;
      new_bound[v] = bv;
    }
  }
  for (const auto& [v, bv] : opt_bound) {
    if (bound0.count(v)) continue;
    if (!select.empty()) select += ", ";
    select += "o." + bv.column + " AS " + bv.column;
    // Bound only when the optional part matched.
    new_bound[v] = BoundVar{bv.column, true};
  }
  if (select.empty()) select = "1 AS one";
  std::string body = "SELECT " + select + " FROM " + cur0 +
                     " LEFT OUTER JOIN " + opt_cte + " AS o ON " +
                     JoinStrings(on, " AND ");
  cur_ = NewCte(body);
  bound_ = std::move(new_bound);
  return Status::OK();
}

Status PatternSqlBuilderBase::EmitFilters(
    const std::vector<const sparql::FilterExpr*>& filters, bool is_root) {
  if (filters.empty()) return Status::OK();
  std::vector<std::string> conds;
  std::map<std::string, std::string> lex_joins;
  for (const auto* f : filters) {
    Result<std::string> c = FilterToSql(*f, &lex_joins);
    if (!c.ok()) {
      if (is_root && c.status().IsUnsupported()) {
        // Evaluated by the caller on decoded results (e.g. REGEX).
        post_filters_.push_back(f);
        continue;
      }
      return c.status();
    }
    conds.push_back(*c);
  }
  if (conds.empty()) return Status::OK();
  std::string select = CarryList(cur_);
  if (select.empty()) select = "1 AS one";
  std::string body = "SELECT " + select + " FROM " + cur_;
  for (const auto& [var, alias] : lex_joins) {
    body += " LEFT OUTER JOIN " + lex_table_ + " AS " + alias + " ON " +
            alias + ".id = " + cur_ + "." + bound_[var].column;
  }
  body += " WHERE " + JoinStrings(conds, " AND ");
  cur_ = NewCte(body);
  return Status::OK();
}

void PatternSqlBuilderBase::CollectExtraFilterVars(
    const sparql::FilterExpr& f, std::set<std::string>* have,
    std::vector<std::string>* out) const {
  using sparql::FilterOp;
  if (f.op == FilterOp::kVar || f.op == FilterOp::kBound) {
    if (have->insert(f.var).second && bound_.count(f.var)) {
      out->push_back(f.var);
    }
    return;
  }
  if (f.lhs) CollectExtraFilterVars(*f.lhs, have, out);
  if (f.rhs) CollectExtraFilterVars(*f.rhs, have, out);
}

Result<double> PatternSqlBuilderBase::NumericOf(const rdf::Term& term) {
  if (!term.is_literal()) {
    return Status::Unsupported("ordered comparison with non-literal");
  }
  double d;
  if (!ParseDouble(term.lexical(), &d)) {
    return Status::Unsupported("non-numeric literal in comparison");
  }
  return d;
}

Result<std::string> PatternSqlBuilderBase::LexAlias(
    const std::string& var, std::map<std::string, std::string>* lex) {
  if (lex_table_.empty()) {
    return Status::Unsupported(
        "ordered FILTER comparison requires a lex table");
  }
  if (!bound_.count(var)) {
    return Status::InvalidArgument("FILTER variable ?" + var +
                                   " is unbound");
  }
  auto it = lex->find(var);
  if (it != lex->end()) return it->second;
  std::string alias = "L" + std::to_string(lex->size());
  lex->emplace(var, alias);
  return alias;
}

Result<std::string> PatternSqlBuilderBase::FilterToSql(
    const sparql::FilterExpr& f, std::map<std::string, std::string>* lex) {
  using sparql::FilterOp;
  switch (f.op) {
    case FilterOp::kAnd: {
      RDFREL_ASSIGN_OR_RETURN(std::string a, FilterToSql(*f.lhs, lex));
      RDFREL_ASSIGN_OR_RETURN(std::string b, FilterToSql(*f.rhs, lex));
      return "(" + a + " AND " + b + ")";
    }
    case FilterOp::kOr: {
      RDFREL_ASSIGN_OR_RETURN(std::string a, FilterToSql(*f.lhs, lex));
      RDFREL_ASSIGN_OR_RETURN(std::string b, FilterToSql(*f.rhs, lex));
      return "(" + a + " OR " + b + ")";
    }
    case FilterOp::kNot: {
      RDFREL_ASSIGN_OR_RETURN(std::string a, FilterToSql(*f.lhs, lex));
      return "(NOT " + a + ")";
    }
    case FilterOp::kBound: {
      if (!bound_.count(f.var)) return std::string("1 = 0");
      return cur_ + "." + bound_[f.var].column + " IS NOT NULL";
    }
    case FilterOp::kEq:
    case FilterOp::kNe:
    case FilterOp::kLt:
    case FilterOp::kLe:
    case FilterOp::kGt:
    case FilterOp::kGe:
      // A comparison with a variable the pattern never binds is a SPARQL
      // error, which SQL's NULL carries through NOT/AND/OR alike.
      for (const auto* e : {f.lhs.get(), f.rhs.get()}) {
        if (e->op == FilterOp::kVar && !bound_.count(e->var)) {
          return std::string("NULL");
        }
      }
      return f.op == FilterOp::kEq || f.op == FilterOp::kNe
                 ? EqualityToSql(f, lex)
                 : OrderedToSql(f, lex);
    case FilterOp::kRegex:
      return Status::Unsupported(
          "REGEX is evaluated as a post-filter, not in SQL");
    case FilterOp::kVar:
    case FilterOp::kTerm:
      return Status::Unsupported("bare operand as boolean FILTER");
  }
  return Status::Internal("unhandled filter op");
}

Result<std::string> PatternSqlBuilderBase::OperandToId(
    const sparql::FilterExpr& f) {
  using sparql::FilterOp;
  if (f.op == FilterOp::kVar) {
    if (!bound_.count(f.var)) {
      return Status::InvalidArgument("FILTER variable ?" + f.var +
                                     " is unbound");
    }
    return cur_ + "." + bound_[f.var].column;
  }
  if (f.op == FilterOp::kTerm) {
    return std::to_string(IdOf(f.term));
  }
  return Status::Unsupported("nested expression in FILTER comparison");
}

Result<std::string> PatternSqlBuilderBase::EqualityToSql(
    const sparql::FilterExpr& f, std::map<std::string, std::string>* lex) {
  using sparql::FilterOp;
  const sparql::FilterExpr* var_side = nullptr;
  const sparql::FilterExpr* term_side = nullptr;
  if (f.lhs->op == FilterOp::kVar && f.rhs->op == FilterOp::kTerm) {
    var_side = f.lhs.get();
    term_side = f.rhs.get();
  } else if (f.rhs->op == FilterOp::kVar && f.lhs->op == FilterOp::kTerm) {
    var_side = f.rhs.get();
    term_side = f.lhs.get();
  }
  const bool eq = f.op == FilterOp::kEq;
  const char* op = eq ? " = " : " <> ";
  if (var_side != nullptr) {
    // Numeric literals compare by value via lex ("5"^^int == "5.0"^^dec);
    // a bound non-numeric term (no lex row) differs from any number.
    auto num = NumericOf(term_side->term);
    if (num.ok() && !lex_table_.empty()) {
      RDFREL_ASSIGN_OR_RETURN(std::string alias,
                              LexAlias(var_side->var, lex));
      const std::string cmp = alias + ".num" + op + std::to_string(*num);
      if (eq) return cmp;
      RDFREL_ASSIGN_OR_RETURN(std::string col, OperandToId(*var_side));
      return "(" + col + " IS NOT NULL AND (" + alias + ".num IS NULL OR " +
             cmp + "))";
    }
  }
  RDFREL_ASSIGN_OR_RETURN(std::string a, OperandToId(*f.lhs));
  RDFREL_ASSIGN_OR_RETURN(std::string b, OperandToId(*f.rhs));
  if (f.lhs->op == FilterOp::kVar && f.rhs->op == FilterOp::kVar &&
      !lex_table_.empty()) {
    // Two numeric literals are equal when their values are, whatever
    // their lexical forms.
    RDFREL_ASSIGN_OR_RETURN(std::string la, LexAlias(f.lhs->var, lex));
    RDFREL_ASSIGN_OR_RETURN(std::string lb, LexAlias(f.rhs->var, lex));
    if (eq) return "(" + a + " = " + b + " OR " + la + ".num = " + lb + ".num)";
    return "(" + a + " <> " + b + " AND (" + la + ".num IS NULL OR " + lb +
           ".num IS NULL OR " + la + ".num <> " + lb + ".num))";
  }
  return a + op + b;
}

Result<std::string> PatternSqlBuilderBase::OrderedToSql(
    const sparql::FilterExpr& f, std::map<std::string, std::string>* lex) {
  using sparql::FilterOp;
  const char* op = f.op == FilterOp::kLt   ? " < "
                   : f.op == FilterOp::kLe ? " <= "
                   : f.op == FilterOp::kGt ? " > "
                                           : " >= ";
  auto side = [&](const sparql::FilterExpr& e) -> Result<std::string> {
    if (e.op == FilterOp::kVar) {
      RDFREL_ASSIGN_OR_RETURN(std::string alias, LexAlias(e.var, lex));
      return alias + ".num";
    }
    if (e.op == FilterOp::kTerm) {
      RDFREL_ASSIGN_OR_RETURN(double num, NumericOf(e.term));
      return std::to_string(num);
    }
    return Status::Unsupported("nested expression in FILTER comparison");
  };
  RDFREL_ASSIGN_OR_RETURN(std::string a, side(*f.lhs));
  RDFREL_ASSIGN_OR_RETURN(std::string b, side(*f.rhs));
  return a + op + b;
}

}  // namespace rdfrel::translate
