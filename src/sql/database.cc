#include "sql/database.h"

#include "sql/parser.h"

namespace rdfrel::sql {

std::string QueryResult::ToString(size_t max_rows) const {
  std::string out;
  for (size_t i = 0; i < columns.size(); ++i) {
    if (i) out += " | ";
    out += columns[i];
  }
  out += "\n";
  for (size_t r = 0; r < rows.size() && r < max_rows; ++r) {
    for (size_t i = 0; i < rows[r].size(); ++i) {
      if (i) out += " | ";
      out += rows[r][i].ToString();
    }
    out += "\n";
  }
  if (rows.size() > max_rows) {
    out += "... (" + std::to_string(rows.size()) + " rows total)\n";
  }
  return out;
}

Result<QueryResult> Database::Execute(std::string_view sql) {
  RDFREL_ASSIGN_OR_RETURN(ast::Statement stmt, ParseSql(sql));
  switch (stmt.kind) {
    case ast::StatementKind::kSelect:
      return QueryAst(*stmt.select);
    case ast::StatementKind::kCreateTable:
      RDFREL_RETURN_NOT_OK(ExecCreateTable(*stmt.create_table));
      return QueryResult{};
    case ast::StatementKind::kCreateIndex:
      RDFREL_RETURN_NOT_OK(ExecCreateIndex(*stmt.create_index));
      return QueryResult{};
    case ast::StatementKind::kInsert:
      RDFREL_RETURN_NOT_OK(ExecInsert(*stmt.insert));
      return QueryResult{};
  }
  return Status::Internal("unhandled statement kind");
}

Result<QueryResult> Database::Query(std::string_view sql) {
  RDFREL_ASSIGN_OR_RETURN(auto stmt, ParseSelect(sql));
  return QueryAst(*stmt);
}

Status Database::QueryStreaming(
    std::string_view sql, const ExecControl* control,
    std::vector<std::string>* columns,
    const std::function<Status(const RowBatch&)>& on_batch) {
  RDFREL_ASSIGN_OR_RETURN(auto stmt, ParseSelect(sql));
  CteEnv env;
  RDFREL_ASSIGN_OR_RETURN(OperatorPtr op,
                          PlanSelect(catalog_, *stmt, &env, control));
  if (control != nullptr) op->SetControl(control);
  RDFREL_RETURN_NOT_OK(op->Open());
  if (columns != nullptr) *columns = op->scope().Names();
  RowBatch batch;
  while (true) {
    RDFREL_ASSIGN_OR_RETURN(bool has, op->NextBatch(&batch));
    if (!has) return Status::OK();
    if (batch.ActiveSize() == 0) continue;
    RDFREL_RETURN_NOT_OK(on_batch(batch));
  }
}

Result<QueryResult> Database::QueryAst(const ast::SelectStmt& stmt) {
  CteEnv env;
  RDFREL_ASSIGN_OR_RETURN(OperatorPtr op, PlanSelect(catalog_, stmt, &env));
  QueryResult qr;
  qr.columns = op->scope().Names();
  RDFREL_ASSIGN_OR_RETURN(qr.rows, CollectRows(op.get()));
  return qr;
}

Result<QueryResult> Database::QueryProfiled(std::string_view sql,
                                            std::string* profile_out) {
  RDFREL_ASSIGN_OR_RETURN(auto stmt, ParseSelect(sql));
  CteEnv env;
  RDFREL_ASSIGN_OR_RETURN(OperatorPtr op, PlanSelect(catalog_, *stmt, &env));
  op->EnableTiming(true);
  RDFREL_ASSIGN_OR_RETURN(std::vector<Row> rows, CollectRows(op.get()));
  QueryResult qr;
  qr.columns = op->scope().Names();
  qr.rows = std::move(rows);
  if (profile_out != nullptr) *profile_out = FormatOperatorStats(*op);
  return qr;
}

Status Database::ExecCreateTable(const ast::CreateTableStmt& ct) {
  RDFREL_ASSIGN_OR_RETURN(Table * t,
                          catalog_.CreateTable(ct.table_name,
                                               Schema(ct.columns)));
  (void)t;
  return Status::OK();
}

Status Database::ExecCreateIndex(const ast::CreateIndexStmt& ci) {
  RDFREL_ASSIGN_OR_RETURN(Table * t, catalog_.GetTable(ci.table_name));
  return t->CreateIndex(ci.index_name, ci.column_name);
}

Status Database::ExecInsert(const ast::InsertStmt& ins) {
  RDFREL_ASSIGN_OR_RETURN(Table * t, catalog_.GetTable(ins.table_name));
  const Schema& schema = t->schema();
  // Column position mapping.
  std::vector<int> positions;
  if (ins.columns.empty()) {
    for (size_t i = 0; i < schema.num_columns(); ++i) {
      positions.push_back(static_cast<int>(i));
    }
  } else {
    for (const auto& name : ins.columns) {
      int idx = schema.FindColumn(name);
      if (idx < 0) return Status::NotFound("column " + name);
      positions.push_back(idx);
    }
  }
  Scope empty_scope;
  Row no_row;
  for (const auto& exprs : ins.rows) {
    if (exprs.size() != positions.size()) {
      return Status::InvalidArgument("VALUES arity mismatch");
    }
    Row row(schema.num_columns());  // defaults to NULL
    for (size_t i = 0; i < exprs.size(); ++i) {
      RDFREL_ASSIGN_OR_RETURN(BoundExprPtr b,
                              BindExpr(*exprs[i], empty_scope));
      RDFREL_ASSIGN_OR_RETURN(row[static_cast<size_t>(positions[i])],
                              b->Evaluate(no_row));
    }
    RDFREL_RETURN_NOT_OK(t->Insert(std::move(row)).status());
  }
  return Status::OK();
}

}  // namespace rdfrel::sql
