#ifndef RDFREL_STORE_RESULT_SET_H_
#define RDFREL_STORE_RESULT_SET_H_

/// \file result_set.h
/// Decoded SPARQL results: named variables over rows of optional RDF terms
/// (nullopt == unbound), plus the post-filter evaluator used for FILTERs
/// that the SQL subset cannot express (REGEX).

#include <optional>
#include <string>
#include <vector>

#include "rdf/term.h"
#include "sparql/ast.h"
#include "util/status.h"

namespace rdfrel::store {

/// One solution: values parallel to ResultSet::vars.
using Binding = std::vector<std::optional<rdf::Term>>;

struct ResultSet {
  std::vector<std::string> vars;
  std::vector<Binding> rows;

  size_t size() const { return rows.size(); }
  /// Pretty table for examples/debugging.
  std::string ToString(size_t max_rows = 20) const;
};

/// Evaluates a FILTER expression against one solution (SPARQL semantics:
/// errors — unbound operands, type mismatches — propagate through !, &&
/// and || and yield false at the top). REGEX is simplified to
/// case-sensitive substring search over a literal's lexical form, which
/// covers the patterns used by the bundled benchmark workloads.
Result<bool> EvalFilterOnBinding(const sparql::FilterExpr& f,
                                 const std::vector<std::string>& vars,
                                 const Binding& row);

/// ORDER BY's order over solution values (-1, 0, 1): unbound < blank
/// nodes < IRIs < literals; numeric literals precede other literals and
/// compare by value, the rest by lexical form, language, then datatype.
int CompareForOrderBy(const std::optional<rdf::Term>& a,
                      const std::optional<rdf::Term>& b);

/// Applies \p filters in place, keeping rows on which every filter is true.
Status ApplyPostFilters(
    const std::vector<const sparql::FilterExpr*>& filters, ResultSet* rs);

/// Block-wise variant for the streaming path: filters \p rows (bindings
/// over \p vars) in place. Filters are row-local, so applying them per
/// block yields exactly the rows of the materialized evaluation.
Status ApplyPostFiltersToRows(
    const std::vector<const sparql::FilterExpr*>& filters,
    const std::vector<std::string>& vars, std::vector<Binding>* rows);

}  // namespace rdfrel::store

#endif  // RDFREL_STORE_RESULT_SET_H_
