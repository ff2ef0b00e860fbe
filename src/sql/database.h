#ifndef RDFREL_SQL_DATABASE_H_
#define RDFREL_SQL_DATABASE_H_

/// \file database.h
/// Top-level facade of the embedded relational engine: owns a Catalog and
/// executes SQL text (DDL, INSERT, SELECT).

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sql/catalog.h"
#include "sql/exec_control.h"
#include "sql/planner.h"
#include "util/status.h"

namespace rdfrel::sql {

/// Result of a SELECT: ordered column names plus rows.
struct QueryResult {
  std::vector<std::string> columns;
  std::vector<Row> rows;

  /// Pretty-printed table (tests/examples).
  std::string ToString(size_t max_rows = 20) const;
};

/// An embedded relational database instance.
class Database {
 public:
  Database() = default;

  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }

  /// Executes any supported statement. DDL/INSERT return an empty result.
  Result<QueryResult> Execute(std::string_view sql);

  /// Executes a SELECT (text).
  Result<QueryResult> Query(std::string_view sql);

  /// Streams a SELECT batch-at-a-time instead of materializing it.
  /// \p columns (optional) receives the output column names before the
  /// first batch. \p on_batch is invoked once per non-empty RowBatch, in
  /// order, on the calling thread; the batch is only valid for the duration
  /// of the call. A non-OK return from \p on_batch aborts execution and is
  /// returned verbatim. \p control (optional, borrowed) is checked at every
  /// batch boundary — including inside blocking operators and CTE
  /// materialization — and surfaces kDeadlineExceeded / kCancelled.
  Status QueryStreaming(std::string_view sql, const ExecControl* control,
                        std::vector<std::string>* columns,
                        const std::function<Status(const RowBatch&)>& on_batch);

  /// Executes a parsed SELECT.
  Result<QueryResult> QueryAst(const ast::SelectStmt& stmt);

  /// Executes a SELECT with per-operator profiling enabled and renders the
  /// operator tree (rows/batches/time per operator) into \p profile_out.
  Result<QueryResult> QueryProfiled(std::string_view sql,
                                    std::string* profile_out);

  /// Inert (see ExecMode): always kBatch, kept for the perfbench harness.
  ExecMode exec_mode() const { return ExecMode::kBatch; }

 private:
  Status ExecCreateTable(const ast::CreateTableStmt& ct);
  Status ExecCreateIndex(const ast::CreateIndexStmt& ci);
  Status ExecInsert(const ast::InsertStmt& ins);

  Catalog catalog_;
};

}  // namespace rdfrel::sql

#endif  // RDFREL_SQL_DATABASE_H_
