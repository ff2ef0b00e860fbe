#ifndef RDFREL_SQL_PLANNER_H_
#define RDFREL_SQL_PLANNER_H_

/// \file planner.h
/// Rule-based physical planning. Join order follows the written FROM order
/// (the SPARQL optimizer already chose it — paper §3); the planner picks
/// access paths: index scan for `col = constant` on indexed columns, index
/// nested-loop joins when an equi-join column is indexed, hash joins
/// otherwise. CTEs are planned and materialized in sequence.

#include <map>
#include <memory>
#include <string>

#include "sql/ast.h"
#include "sql/catalog.h"
#include "sql/executor.h"
#include "util/status.h"

namespace rdfrel::sql {

/// Per-query environment of materialized CTEs (name -> result).
using CteEnv = std::map<std::string, std::shared_ptr<const Materialized>>;

/// Plans and materializes every CTE of \p stmt into \p env (in order; later
/// CTEs may reference earlier ones), then returns the root operator for the
/// statement body. The returned operator tree borrows \p catalog and the
/// materialized results in \p env; both must outlive it. \p control (when
/// non-null) makes the CTE and subquery materializations — which run
/// *during planning* — honor the query's deadline/cancel token, and must
/// outlive execution.
Result<OperatorPtr> PlanSelect(const Catalog& catalog,
                               const ast::SelectStmt& stmt, CteEnv* env,
                               const ExecControl* control = nullptr);

/// The signature the perfbench harness calls: \p mode and \p exec are
/// inert (batches are the only execution surface, and exec's only field,
/// control, is passed as \p control).
inline Result<OperatorPtr> PlanSelect(const Catalog& catalog,
                                      const ast::SelectStmt& stmt,
                                      CteEnv* env, ExecMode /*mode*/,
                                      const ExecControl* control = nullptr,
                                      const ExecOptions* /*exec*/ = nullptr) {
  return PlanSelect(catalog, stmt, env, control);
}

}  // namespace rdfrel::sql

#endif  // RDFREL_SQL_PLANNER_H_
