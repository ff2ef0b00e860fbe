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
/// materialized results in \p env; both must outlive it. \p mode drives the
/// materialization of CTEs and subqueries during planning; \p control (when
/// non-null) makes those materializations — which run *during planning* —
/// honor the query's deadline/cancel token, and must outlive execution.
/// \p exec is accepted for existing callers and not read: its only field,
/// control, is passed as \p control.
Result<OperatorPtr> PlanSelect(const Catalog& catalog,
                               const ast::SelectStmt& stmt, CteEnv* env,
                               ExecMode mode = ExecMode::kBatch,
                               const ExecControl* control = nullptr,
                               const ExecOptions* exec = nullptr);

/// Executes a planned SELECT to completion in the given drive mode.
Result<std::shared_ptr<Materialized>> RunSelect(
    const Catalog& catalog, const ast::SelectStmt& stmt,
    ExecMode mode = ExecMode::kBatch, const ExecControl* control = nullptr);

}  // namespace rdfrel::sql

#endif  // RDFREL_SQL_PLANNER_H_
