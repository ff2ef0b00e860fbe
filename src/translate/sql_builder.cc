#include "translate/sql_builder.h"

#include <map>
#include <set>

#include "translate/sql_base.h"
#include "util/string_util.h"

namespace rdfrel::translate {

namespace {

using opt::AccessMethod;
using opt::ExecKind;
using opt::ExecNode;
using schema::Db2RdfSchema;

/// SPARQL-to-SQL over the DB2RDF entity layout: EmitAccess instantiates the
/// Figure 12 template against DPH/DS (acs) or RPH/RS (aco).
class Db2RdfSqlBuilder final : public PatternSqlBuilderBase {
 public:
  Db2RdfSqlBuilder(const sparql::Query& query, const StoreContext& store)
      : PatternSqlBuilderBase(query, store.dict, store.lex_table),
        store_(store) {}

 protected:
  struct DirectionInfo {
    std::string primary;
    std::string secondary;
    const schema::PredicateMapping* mapping;
    const std::unordered_set<uint64_t>* multivalued;
  };

  DirectionInfo DirectionFor(AccessMethod m) const {
    if (m == AccessMethod::kAco) {
      return {store_.schema->rph_name(), store_.schema->rs_name(),
              store_.reverse_mapping,
              &store_.schema->multivalued_reverse()};
    }
    return {store_.schema->dph_name(), store_.schema->ds_name(),
            store_.direct_mapping, &store_.schema->multivalued_direct()};
  }

  static const sparql::TermOrVar& EntryOf(const sparql::TriplePattern& t,
                                          AccessMethod m) {
    return m == AccessMethod::kAco ? t.object : t.subject;
  }
  static const sparql::TermOrVar& ValueOf(const sparql::TriplePattern& t,
                                          AccessMethod m) {
    return m == AccessMethod::kAco ? t.subject : t.object;
  }

  Status EmitAccess(const ExecNode& node) override {
    std::vector<const sparql::TriplePattern*> triples;
    std::vector<bool> optional;
    bool disjunctive = false;
    AccessMethod method = node.method;
    if (node.kind == ExecKind::kTriple) {
      triples = {node.triple};
      optional = {false};
    } else {
      triples = node.star_triples;
      optional = node.star_optional;
      disjunctive = node.star_semantics == opt::StarSemantics::kDisjunctive;
    }
    if (triples.size() == 1 && triples[0]->predicate.is_var) {
      return EmitVariablePredicate(*triples[0], method);
    }
    if (triples.size() == 1 &&
        triples[0]->path_mod != sparql::PathMod::kNone) {
      return EmitClosureAccess(*triples[0]);
    }
    for (const auto* t : triples) {
      if (t->predicate.is_var) {
        return Status::Internal("variable predicate inside a merged star");
      }
    }
    DirectionInfo dir = DirectionFor(method);
    if (disjunctive) {
      // Disjunctive stars binding one shared NEW variable across every
      // member use the Figure 13 UNNEST flip (handled below); any other
      // shape needs one output row per matching member. So do stars with
      // two multi-valued members: the flip's row would carry the product
      // of their lists.
      std::set<std::string> vvars;
      bool all_var = true;
      int lists = 0;
      for (const auto* t : triples) {
        const auto& v = ValueOf(*t, method);
        if (v.is_var) {
          vvars.insert(v.var);
        } else {
          all_var = false;
        }
        lists += dir.multivalued->count(store_.dict->Lookup(t->predicate.term))
                     ? 1
                     : 0;
      }
      if (!(all_var && vvars.size() == 1 && triples.size() > 1) ||
          lists > 1) {
        return EmitDisjunctiveStar(triples, method);
      }
    }

    const sparql::TermOrVar& entry = Resolve(EntryOf(*triples[0], method));

    std::string from = dir.primary + " AS T";
    if (!cur_.empty()) from += ", " + cur_;
    std::vector<std::string> wheres;
    std::vector<std::string> outer_joins;
    // Compatible-join merges of maybe-null bindings; vars whose binding is
    // definitely non-null after this CTE; effective merged expression of
    // bound variables already constrained in this CTE (a repeated
    // occurrence must equal it exactly).
    std::map<std::string, std::string> overrides;
    std::vector<std::string> resolved;
    std::map<std::string, std::string> seen_bound;

    // Entry restriction (Figure 12 box 2).
    if (!entry.is_var) {
      wheres.push_back("T.entry = " + std::to_string(IdOf(entry.term)));
    } else if (IsBound(entry.var)) {
      wheres.push_back(CompatEq("T.entry", entry.var));
      std::string merged = CompatMerge("T.entry", entry.var);
      if (!merged.empty()) {
        overrides[entry.var] = merged;
        resolved.push_back(entry.var);  // T.entry is never NULL
        seen_bound[entry.var] = merged;
      } else {
        seen_bound[entry.var] = BoundCol(entry.var);
      }
    } else {
      std::string domain = FoldDomain(entry.var, "T.entry");
      if (!domain.empty()) wheres.push_back(domain);
    }

    // Per-triple predicate tests and value expressions (boxes 3-4).
    struct Member {
      std::string pred_cond;
      std::string value_expr;
    };
    std::vector<Member> members;
    int sec_count = 0;
    for (size_t i = 0; i < triples.size(); ++i) {
      const sparql::TriplePattern& t = *triples[i];
      uint64_t pid = store_.dict->Lookup(t.predicate.term);
      auto candidates =
          dir.mapping->Columns({pid, t.predicate.term.lexical()});
      std::string pid_str = std::to_string(static_cast<int64_t>(pid));

      std::string cond;
      std::string val;
      if (candidates.size() == 1) {
        uint32_t c = candidates[0];
        cond = "T." + Db2RdfSchema::PredColumn(c) + " = " + pid_str;
        val = "T." + Db2RdfSchema::ValColumn(c);
      } else {
        for (uint32_t c : candidates) {
          if (!cond.empty()) cond += " OR ";
          cond += "T." + Db2RdfSchema::PredColumn(c) + " = " + pid_str;
        }
        cond = "(" + cond + ")";
        val = "CASE";
        for (uint32_t c : candidates) {
          val += " WHEN T." + Db2RdfSchema::PredColumn(c) + " = " +
                 pid_str + " THEN T." + Db2RdfSchema::ValColumn(c);
        }
        val += " ELSE NULL END";
      }
      if (optional[i] || disjunctive) {
        val = "CASE WHEN " + cond + " THEN " + val + " ELSE NULL END";
      } else {
        wheres.push_back(cond);
      }
      if (dir.multivalued->count(pid) > 0) {
        std::string alias = "S" + std::to_string(sec_count++);
        outer_joins.push_back("LEFT OUTER JOIN " + dir.secondary + " AS " +
                              alias + " ON " + val + " = " + alias +
                              ".l_id");
        val = "COALESCE(" + alias + ".elm, " + val + ")";
      }
      members.push_back({cond, val});
    }
    if (disjunctive) {
      std::string any;
      for (const auto& m : members) {
        if (!any.empty()) any += " OR ";
        any += m.pred_cond;
      }
      wheres.push_back("(" + any + ")");
    }

    // Value-side constraints and outputs.
    std::map<std::string, std::string> new_vars;
    if (entry.is_var && !IsBound(entry.var)) {
      new_vars[entry.var] = "T.entry";
    }
    // A disjunctive star that reaches here binds one shared variable: it
    // gets the Figure 13 UNNEST flip.
    const bool flip = disjunctive;

    std::vector<std::string> flip_exprs;
    std::string flip_var;
    // Two passes: mandatory members bind variables first so that optional
    // members constrain (rather than null-bind) shared variables.
    std::vector<size_t> member_order;
    for (size_t i = 0; i < triples.size(); ++i) {
      if (!optional[i] && !disjunctive) member_order.push_back(i);
    }
    for (size_t i = 0; i < triples.size(); ++i) {
      if (optional[i] || disjunctive) member_order.push_back(i);
    }
    for (size_t i : member_order) {
      const sparql::TermOrVar& v = Resolve(ValueOf(*triples[i], method));
      const Member& m = members[i];
      // An OPTIONAL-merged member must never filter rows: when its value
      // conflicts, the optional part simply does not match. It can only
      // *enrich* a maybe-null binding.
      if (!v.is_var) {
        if (!optional[i]) {
          wheres.push_back(m.value_expr + " = " +
                           std::to_string(IdOf(v.term)));
        }
        continue;
      }
      if (flip) {
        flip_var = v.var;
        flip_exprs.push_back(m.value_expr);
        continue;
      }
      if (IsBound(v.var)) {
        std::string merged = CompatMerge(m.value_expr, v.var);
        if (optional[i]) {
          if (!merged.empty() && !seen_bound.count(v.var)) {
            overrides[v.var] = merged;
          }
          continue;
        }
        auto seen = seen_bound.find(v.var);
        if (seen != seen_bound.end()) {
          // Second occurrence in this CTE: equal the merged value exactly.
          wheres.push_back(m.value_expr + " = " + seen->second);
          continue;
        }
        // Compatible join against an earlier binding; a maybe-null binding
        // additionally takes this member's value where it was NULL.
        wheres.push_back(CompatEq(m.value_expr, v.var));
        if (!merged.empty()) {
          overrides[v.var] = merged;
          resolved.push_back(v.var);
          seen_bound[v.var] = merged;
        } else {
          seen_bound[v.var] = BoundCol(v.var);
        }
      } else if (new_vars.count(v.var)) {
        if (!optional[i]) {
          wheres.push_back(m.value_expr + " = " + new_vars[v.var]);
        }
      } else {
        new_vars[v.var] = m.value_expr;
      }
    }

    std::string fold_test = TakeFoldTest(&new_vars);
    if (!fold_test.empty()) wheres.push_back(fold_test);
    std::string select = CarryList(cur_, overrides);
    // A new variable may be NULL unless some mandatory member (or the
    // entry itself) binds it.
    std::map<std::string, bool> new_nullable;
    for (const auto& [var, expr] : new_vars) new_nullable[var] = true;
    if (entry.is_var && new_vars.count(entry.var)) {
      new_nullable[entry.var] = false;
    }
    for (size_t i = 0; i < triples.size(); ++i) {
      const sparql::TermOrVar& v = Resolve(ValueOf(*triples[i], method));
      if (v.is_var && new_vars.count(v.var) && !optional[i] &&
          !disjunctive) {
        new_nullable[v.var] = false;
      }
    }
    for (const auto& [var, expr] : new_vars) {
      if (!select.empty()) select += ", ";
      select += expr + " AS " + VarColumn(var);
    }
    if (flip) {
      for (size_t i = 0; i < flip_exprs.size(); ++i) {
        if (!select.empty()) select += ", ";
        select += flip_exprs[i] + " AS alt" + std::to_string(i);
      }
    }
    if (select.empty()) select = "T.entry AS dummy_entry";
    std::string body = "SELECT " + select + " FROM " + from;
    for (const auto& oj : outer_joins) body += " " + oj;
    if (!wheres.empty()) body += " WHERE " + JoinStrings(wheres, " AND ");

    bool flip_var_bound = flip && IsBound(flip_var);
    cur_ = NewCte(body);
    for (const auto& [var, expr] : new_vars) {
      bound_[var] = BoundVar{VarColumn(var), new_nullable[var]};
    }
    for (const auto& var : resolved) bound_[var].maybe_null = false;

    if (flip) {
      // One row per present alternative (Figure 13's QT23 flip). When the
      // flip variable is already bound, the unnested value constrains it
      // under compatibility semantics.
      std::string unnest_args;
      for (size_t i = 0; i < flip_exprs.size(); ++i) {
        if (i) unnest_args += ", ";
        unnest_args += cur_ + ".alt" + std::to_string(i);
      }
      std::map<std::string, std::string> flip_overrides;
      std::vector<std::string> fwheres;
      fwheres.push_back("lt.flipv IS NOT NULL");
      if (flip_var_bound) {
        fwheres.push_back(CompatEq("lt.flipv", flip_var));
        std::string merged = CompatMerge("lt.flipv", flip_var);
        if (!merged.empty()) flip_overrides[flip_var] = merged;
      }
      std::string carry = CarryList(cur_, flip_overrides);
      std::string fbody = "SELECT ";
      fbody += carry;
      if (!flip_var_bound) {
        if (!carry.empty()) fbody += ", ";
        fbody += "lt.flipv AS " + VarColumn(flip_var);
      } else if (carry.empty()) {
        fbody += "1 AS one";
      }
      fbody += " FROM " + cur_ + ", UNNEST(" + unnest_args + ") AS lt(" +
               "flipv) WHERE " + JoinStrings(fwheres, " AND ");
      cur_ = NewCte(fbody);
      if (!flip_var_bound) {
        bound_[flip_var] = BoundVar{VarColumn(flip_var), false};
      } else {
        bound_[flip_var].maybe_null = false;  // lt.flipv is non-null
      }
    }
    return Status::OK();
  }

  /// Disjunctive star whose members bind different (or constant, or
  /// already-bound) values: one primary-table access computes per-member
  /// hit flags and raw values, then a UNION ALL emits one row per matching
  /// member — preserving SPARQL UNION semantics when a single entity row
  /// satisfies several alternatives. Multi-valued lists expand inside each
  /// member's branch so alternatives never multiply one another.
  Status EmitDisjunctiveStar(
      const std::vector<const sparql::TriplePattern*>& triples,
      AccessMethod method) {
    DirectionInfo dir = DirectionFor(method);
    const sparql::TermOrVar& entry = EntryOf(*triples[0], method);

    std::string from = dir.primary + " AS T";
    if (!cur_.empty()) from += ", " + cur_;
    std::vector<std::string> wheres;
    std::map<std::string, std::string> overrides;
    std::vector<std::string> resolved;

    if (!entry.is_var) {
      wheres.push_back("T.entry = " + std::to_string(IdOf(entry.term)));
    } else if (IsBound(entry.var)) {
      wheres.push_back(CompatEq("T.entry", entry.var));
      std::string merged = CompatMerge("T.entry", entry.var);
      if (!merged.empty()) {
        overrides[entry.var] = merged;
        resolved.push_back(entry.var);
      }
    }

    struct Member {
      std::string pred_cond;   ///< predicate-present test (on T)
      std::string value_expr;  ///< raw value (may be a list id)
      bool multivalued = false;
      const sparql::TermOrVar* value = nullptr;
    };
    std::vector<Member> members;
    std::set<std::string> all_new_vars;
    for (const auto* tp : triples) {
      const sparql::TriplePattern& t = *tp;
      uint64_t pid = store_.dict->Lookup(t.predicate.term);
      auto candidates =
          dir.mapping->Columns({pid, t.predicate.term.lexical()});
      std::string pid_str = std::to_string(static_cast<int64_t>(pid));
      std::string cond;
      std::string val;
      if (candidates.size() == 1) {
        uint32_t c = candidates[0];
        cond = "T." + Db2RdfSchema::PredColumn(c) + " = " + pid_str;
        val = "T." + Db2RdfSchema::ValColumn(c);
      } else {
        for (uint32_t c : candidates) {
          if (!cond.empty()) cond += " OR ";
          cond += "T." + Db2RdfSchema::PredColumn(c) + " = " + pid_str;
        }
        cond = "(" + cond + ")";
        val = "CASE";
        for (uint32_t c : candidates) {
          val += " WHEN T." + Db2RdfSchema::PredColumn(c) + " = " +
                 pid_str + " THEN T." + Db2RdfSchema::ValColumn(c);
        }
        val += " ELSE NULL END";
      }
      Member m;
      m.pred_cond = cond;
      m.value_expr = "CASE WHEN " + cond + " THEN " + val +
                     " ELSE NULL END";
      m.multivalued = dir.multivalued->count(pid) > 0;
      m.value = &ValueOf(t, method);
      if (m.value->is_var && !IsBound(m.value->var) &&
          !(entry.is_var && m.value->var == entry.var)) {
        all_new_vars.insert(m.value->var);
      }
      members.push_back(std::move(m));
    }
    {
      std::string any;
      for (const auto& m : members) {
        if (!any.empty()) any += " OR ";
        any += m.pred_cond;
      }
      wheres.push_back("(" + any + ")");
    }

    // Star CTE: carried bindings + the new entry + per-member hit flags and
    // raw values (list ids unexpanded).
    std::map<std::string, std::string> star_new_vars;
    if (entry.is_var && !IsBound(entry.var)) {
      star_new_vars[entry.var] = "T.entry";
    }
    std::string select = CarryList(cur_, overrides);
    for (const auto& [var, expr] : star_new_vars) {
      if (!select.empty()) select += ", ";
      select += expr + " AS " + VarColumn(var);
    }
    for (size_t i = 0; i < members.size(); ++i) {
      if (!select.empty()) select += ", ";
      select += "CASE WHEN " + members[i].pred_cond +
                " THEN 1 ELSE NULL END AS hit" + std::to_string(i);
      select += ", " + members[i].value_expr + " AS alt" +
                std::to_string(i);
    }
    if (select.empty()) select = "T.entry AS dummy_entry";
    std::string body = "SELECT " + select + " FROM " + from;
    if (!wheres.empty()) body += " WHERE " + JoinStrings(wheres, " AND ");
    std::string star_cte = NewCte(body);
    for (const auto& [var, expr] : star_new_vars) {
      bound_[var] = BoundVar{VarColumn(var), false};
    }
    for (const auto& var : resolved) bound_[var].maybe_null = false;
    cur_ = star_cte;

    // Branch expansion: one SELECT per member (UNION ALL), expanding that
    // member's multi-value list and applying its value constraint.
    std::vector<std::string> selects;
    for (size_t i = 0; i < members.size(); ++i) {
      const Member& m = members[i];
      std::string alt = star_cte + ".alt" + std::to_string(i);
      std::string val = alt;
      std::string bfrom = star_cte;
      if (m.multivalued) {
        bfrom += " LEFT OUTER JOIN " + dir.secondary + " AS S ON " + alt +
                 " = S.l_id";
        val = "COALESCE(S.elm, " + alt + ")";
      }
      std::vector<std::string> bwheres;
      bwheres.push_back(star_cte + ".hit" + std::to_string(i) +
                        " IS NOT NULL");
      const sparql::TermOrVar& v = *m.value;
      std::string out_var;
      if (!v.is_var) {
        bwheres.push_back(val + " = " + std::to_string(IdOf(v.term)));
      } else if (IsBound(v.var)) {
        bwheres.push_back(CompatEq(val, v.var));
      } else {
        out_var = v.var;  // includes the entry-var self reference
        if (entry.is_var && v.var == entry.var) {
          bwheres.push_back(val + " = " + star_cte + "." +
                            VarColumn(entry.var));
          out_var.clear();
        }
      }
      std::string sel = CarryList(star_cte);
      for (const auto& nv : all_new_vars) {
        if (!sel.empty()) sel += ", ";
        if (nv == out_var) {
          sel += val + " AS " + VarColumn(nv);
        } else {
          sel += "NULL AS " + VarColumn(nv);
        }
      }
      if (sel.empty()) sel = "1 AS one";
      selects.push_back("SELECT " + sel + " FROM " + bfrom + " WHERE " +
                        JoinStrings(bwheres, " AND "));
    }
    cur_ = NewCte(JoinStrings(selects, " UNION ALL "));
    for (const auto& v : all_new_vars) {
      // Unbound in the branches that did not produce it.
      bound_[v] = BoundVar{VarColumn(v), true};
    }
    return Status::OK();
  }

  /// Transitive-path triple: access the materialized closure table
  /// (entry = subject, val = object) built by the store.
  Status EmitClosureAccess(const sparql::TriplePattern& t) {
    if (store_.closure_tables == nullptr) {
      return Status::Internal("no closure tables provided for path triple");
    }
    auto it = store_.closure_tables->find(t.id);
    if (it == store_.closure_tables->end()) {
      return Status::Internal("missing closure table for triple t" +
                              std::to_string(t.id));
    }
    EmitBinaryAccess(it->second, t);
    return Status::OK();
  }

  /// Variable-predicate triple: UNION ALL over every predicate column.
  Status EmitVariablePredicate(const sparql::TriplePattern& t,
                               AccessMethod method) {
    DirectionInfo dir = DirectionFor(method);
    uint32_t k = method == AccessMethod::kAco
                     ? store_.schema->config().k_reverse
                     : store_.schema->config().k_direct;
    const sparql::TermOrVar& entry = EntryOf(t, method);
    const sparql::TermOrVar& value = ValueOf(t, method);

    // Variables newly bound by this triple, in binding order (the select
    // list keeps it). Repeated variables (?x ?x ?o, ?x ?p ?x, ...)
    // constrain instead of rebinding. Every branch binds alike.
    std::vector<std::string> new_var_order;
    AccessBinds binds;
    std::vector<std::string> branches;
    for (uint32_t c = 0; c < k; ++c) {
      std::string pcol = "T." + Db2RdfSchema::PredColumn(c);
      std::string vcol = "T." + Db2RdfSchema::ValColumn(c);
      binds = AccessBinds{};
      binds.wheres.push_back(pcol + " IS NOT NULL");
      new_var_order.clear();
      const std::pair<const sparql::TermOrVar*, std::string> comps[3] = {
          {&entry, "T.entry"},
          {&t.predicate, pcol},
          {&value, "COALESCE(S0.elm, " + vcol + ")"}};
      for (const auto& [tv, expr] : comps) {
        if (BindComponent(*tv, expr, &binds)) new_var_order.push_back(tv->var);
      }

      std::string from = dir.primary + " AS T";
      if (!cur_.empty()) from += ", " + cur_;
      std::string oj = " LEFT OUTER JOIN " + dir.secondary +
                       " AS S0 ON " + vcol + " = S0.l_id";

      std::string select = CarryList(cur_, binds.overrides);
      for (const auto& var : new_var_order) {
        if (!select.empty()) select += ", ";
        select += binds.new_vars[var] + " AS " + VarColumn(var);
      }
      if (select.empty()) select = "1 AS one";
      branches.push_back("SELECT " + select + " FROM " + from + oj +
                         " WHERE " + JoinStrings(binds.wheres, " AND "));
    }
    cur_ = NewCte(JoinStrings(branches, " UNION ALL "));
    for (const auto& var : new_var_order) {
      bound_[var] = BoundVar{VarColumn(var), false};
    }
    for (const auto& var : binds.resolved) bound_[var].maybe_null = false;
    return Status::OK();
  }

 private:
  const StoreContext& store_;
};

}  // namespace

Result<TranslatedQuery> BuildSqlFull(const sparql::Query& query,
                                     const opt::ExecNode& plan,
                                     const StoreContext& store) {
  Db2RdfSqlBuilder b(query, store);
  return b.Build(plan);
}

}  // namespace rdfrel::translate
