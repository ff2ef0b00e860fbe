#ifndef RDFREL_TRANSLATE_SQL_BUILDER_H_
#define RDFREL_TRANSLATE_SQL_BUILDER_H_

/// \file sql_builder.h
/// SPARQL-to-SQL translation over the DB2RDF layout (paper §3.2.2):
/// post-order traversal of the query plan tree emitting one CTE per plan
/// node, instantiated from the Figure 12 code template — entry restriction,
/// predicate column tests (with multi-column CASE when a predicate maps to
/// several columns), secondary-table outer joins for multi-valued
/// predicates, UNION ALL for OR, LEFT OUTER JOIN for OPTIONAL, and an
/// UNNEST flip for disjunctive stars (Figure 13's TABLE(...) idiom).

#include <string>

#include "opt/exec_tree.h"
#include "rdf/dictionary.h"
#include "schema/db2rdf_schema.h"
#include "schema/predicate_mapping.h"
#include <map>

#include "sparql/ast.h"
#include "translate/sql_base.h"
#include "util/status.h"

namespace rdfrel::translate {

/// Everything the SQL builder needs to know about the target store.
struct StoreContext {
  const schema::Db2RdfSchema* schema = nullptr;
  const schema::PredicateMapping* direct_mapping = nullptr;
  const schema::PredicateMapping* reverse_mapping = nullptr;
  const rdf::Dictionary* dict = nullptr;
  /// Name of the literal-value side table `(id BIGINT, num DOUBLE)` used to
  /// translate ordered FILTER comparisons; empty when absent (such filters
  /// then fail with Unsupported).
  std::string lex_table;
  /// Materialized transitive-closure tables for property-path triples,
  /// keyed by triple id (see RdfStore::EnsureClosureTable). Each table has
  /// the binary shape (entry BIGINT, val BIGINT).
  const std::map<int, std::string>* closure_tables = nullptr;
};

/// Translates a merged query plan \p plan of \p query into one SQL SELECT
/// statement. The SQL's result columns are the query's effective
/// projection variables, in order, holding dictionary ids (NULL = unbound);
/// also returns the root-level FILTERs (e.g. REGEX) that the caller must
/// apply on the decoded results.
Result<TranslatedQuery> BuildSqlFull(const sparql::Query& query,
                                     const opt::ExecNode& plan,
                                     const StoreContext& store);

}  // namespace rdfrel::translate

#endif  // RDFREL_TRANSLATE_SQL_BUILDER_H_
