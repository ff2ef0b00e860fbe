#ifndef RDFREL_TRANSLATE_SQL_BASE_H_
#define RDFREL_TRANSLATE_SQL_BASE_H_

/// \file sql_base.h
/// Backend-agnostic skeleton for SPARQL-to-SQL translation: walks the query
/// plan tree emitting one CTE per node (a body that repeats an earlier one
/// reuses its name), maintaining the bound-variable environment, and
/// handling UNION (UNION ALL), OPTIONAL (LEFT OUTER JOIN), FILTER (incl.
/// lex-table joins for ordered comparisons), and the final projection.
/// Backends implement EmitAccess() for their physical layout: DB2RDF
/// (entity rows), triple-store, and predicate-oriented.

#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "opt/exec_tree.h"
#include "rdf/dictionary.h"
#include "sparql/ast.h"
#include "util/status.h"

namespace rdfrel::translate {

/// Translation output: SQL text plus any root-level FILTERs that cannot be
/// expressed in the SQL subset (e.g. REGEX) and must be applied by the
/// caller on the decoded results.
struct TranslatedQuery {
  std::string sql;
  std::vector<const sparql::FilterExpr*> post_filters;
  /// Variables the decode stage reads that are NOT in the projection —
  /// those of the post-filters and the ORDER BY keys: the SQL carries them
  /// as extra trailing columns, and the decode stage drops them again once
  /// it has filtered and sorted. Which of DISTINCT and LIMIT/OFFSET then
  /// stay in the SQL is PlaceModifiers'.
  std::vector<std::string> post_filter_vars;
};

/// Where DISTINCT and the LIMIT/OFFSET slice run: in the generated SQL, or
/// in the decode stage after the post-filters and ORDER BY. Whatever does
/// not run in the SQL runs at decode (DISTINCT only if the query asks for
/// it). ORDER BY always runs at decode.
struct ModifierPlacement {
  bool distinct_in_sql = false;
  bool slice_in_sql = true;
};

/// The one rule for placing solution modifiers, shared by the SQL builder
/// and the decode stage (store/backend_util.cc). ORDER BY compares RDF
/// terms, which dictionary ids do not order, so it sorts decoded rows.
/// Post-filters drop rows after the SQL and ORDER BY reorders them there,
/// so any slice in the SQL would cut too early: with either, the slice
/// defers to decode. DISTINCT stays in the SQL unless extra decode columns
/// widen the row, where it would keep duplicate projections. An aggregate
/// computed in the SQL cannot see a post-filter at all, so that
/// combination is Unsupported.
Result<ModifierPlacement> PlaceModifiers(const sparql::Query& query,
                                         bool has_post_filters,
                                         bool has_post_filter_vars);

/// SQL identifier for a SPARQL variable ("v_<name>", sanitized). A folded
/// UNION's hidden variable "#h<k>" (no SPARQL name contains '#') maps to
/// "h<k>", outside the "v_" namespace.
std::string VarColumn(const std::string& var);

/// One bound variable in the translation environment. `maybe_null` marks
/// variables that are unbound in part of the current relation (introduced
/// under a UNION branch or an OPTIONAL): joins against them must use SPARQL
/// *compatibility* semantics — NULL matches anything and the join result
/// takes the defined side's value.
struct BoundVar {
  std::string column;
  bool maybe_null = false;
};

class PatternSqlBuilderBase {
 public:
  PatternSqlBuilderBase(const sparql::Query& query,
                        const rdf::Dictionary* dict, std::string lex_table)
      : query_(query), dict_(dict), lex_table_(std::move(lex_table)) {}
  virtual ~PatternSqlBuilderBase() = default;

  /// Translates the plan rooted at \p plan.
  Result<TranslatedQuery> Build(const opt::ExecNode& plan);

 protected:
  /// Backend hook: emit the CTE(s) for a kTriple or kStar node, updating
  /// cur_/bound_.
  virtual Status EmitAccess(const opt::ExecNode& node) = 0;

  Status Translate(const opt::ExecNode& node, bool is_root = false);
  Status TranslateNode(const opt::ExecNode& node, bool is_root);
  /// Translates a folded subtree (opt::UnionFold): its positions read as
  /// hidden variables, and one CTE applies the fold's tuple test.
  Status TranslateFolded(const opt::ExecNode& node, bool is_root);
  /// Final SELECT for SPARQL 1.1 aggregate queries (COUNT over bindings,
  /// numeric aggregates via the lex table, GROUP BY over bound columns).
  Result<std::string> BuildAggregateSelect();
  Status EmitUnion(const opt::ExecNode& node);
  Status EmitOptional(const opt::ExecNode& node);
  Status EmitFilters(const std::vector<const sparql::FilterExpr*>& filters,
                     bool is_root);

  /// UNION folding, for EmitAccess. While a folded subtree translates, a
  /// folded position reads as a hidden variable; any other component as
  /// itself.
  const sparql::TermOrVar& Resolve(const sparql::TermOrVar& tv) const;
  /// `expr IN (...)` over the values \p var takes in the fold's tuples,
  /// when \p var is hidden and the tuple test needs more columns than it
  /// (so an index can still serve a folded entry); "" otherwise.
  std::string FoldDomain(const std::string& var,
                         const std::string& expr) const;
  /// Call once a CTE's new bindings \p new_vars (var -> expression) are
  /// known, before its SELECT list. When the CTE binds the last hidden
  /// variable, returns the fold's tuple test for its WHERE and drops the
  /// hidden variables from \p new_vars and bound_; "" otherwise.
  std::string TakeFoldTest(std::map<std::string, std::string>* new_vars);

  /// Registers a CTE body, returning its name (q1, q2, ...). A body equal
  /// to one already registered is not emitted again: its name is returned.
  std::string NewCte(const std::string& body);
  /// Dictionary id of a term (0 == matches nothing).
  int64_t IdOf(const rdf::Term& term) const;
  /// "alias.col AS col, ..." for every bound variable; \p overrides maps a
  /// variable to a replacement expression (compatible-join merges).
  std::string CarryList(
      const std::string& from_alias,
      const std::map<std::string, std::string>& overrides = {}) const;

  bool IsBound(const std::string& var) const { return bound_.count(var) > 0; }
  /// Qualified column of a bound variable ("<cur>.<col>").
  std::string BoundCol(const std::string& var) const {
    return cur_ + "." + bound_.at(var).column;
  }
  /// Join condition of \p expr against bound \p var under SPARQL
  /// compatibility: plain equality when the binding is always defined,
  /// otherwise NULL-on-either-side matches.
  std::string CompatEq(const std::string& expr, const std::string& var) const;
  /// The merged value of \p var after joining with \p expr: COALESCE when
  /// the binding may be NULL. Call RecordJoin() after emitting the CTE.
  /// Returns empty when no override is needed.
  std::string CompatMerge(const std::string& expr,
                          const std::string& var) const;

  // FILTER translation.
  Result<std::string> FilterToSql(const sparql::FilterExpr& f,
                                  std::map<std::string, std::string>* lex);
  Result<std::string> EqualityToSql(const sparql::FilterExpr& f,
                                    std::map<std::string, std::string>* lex);
  Result<std::string> OrderedToSql(const sparql::FilterExpr& f,
                                   std::map<std::string, std::string>* lex);
  Result<std::string> OperandToId(const sparql::FilterExpr& f);
  Result<std::string> LexAlias(const std::string& var,
                               std::map<std::string, std::string>* lex);
  /// Collects bound variables read by \p f that are missing from \p have
  /// into \p out (post-filter support columns for the final projection).
  void CollectExtraFilterVars(const sparql::FilterExpr& f,
                              std::set<std::string>* have,
                              std::vector<std::string>* out) const;
  static Result<double> NumericOf(const rdf::Term& term);

  const sparql::Query& query_;
  const rdf::Dictionary* dict_;
  std::string lex_table_;

  std::vector<std::pair<std::string, std::string>> ctes_;
  std::unordered_map<std::string, std::string> cte_names_;  ///< body -> name
  std::map<std::string, BoundVar> bound_;  ///< var -> binding in cur_
  std::string cur_;                        ///< current CTE name
  std::vector<const sparql::FilterExpr*> post_filters_;

  /// The folded subtree being translated, if any.
  struct ActiveFold {
    const opt::UnionFold* fold = nullptr;
    std::vector<sparql::TermOrVar> hidden;  ///< parallel to positions
    bool tested = false;
  };
  ActiveFold fold_;
};

}  // namespace rdfrel::translate

#endif  // RDFREL_TRANSLATE_SQL_BASE_H_
