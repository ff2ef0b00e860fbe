#ifndef RDFREL_SQL_PARSER_H_
#define RDFREL_SQL_PARSER_H_

/// \file parser.h
/// Recursive-descent parser for the SQL subset (see ast.h for the grammar's
/// shape). Entry points parse a full statement or just a SELECT.

#include <memory>
#include <string_view>

#include "sql/ast.h"
#include "util/status.h"

namespace rdfrel::sql {

/// Parses one statement (SELECT / CREATE TABLE / CREATE INDEX /
/// INSERT). A trailing ';' is allowed.
Result<ast::Statement> ParseSql(std::string_view sql);

/// Parses a SELECT statement only.
Result<std::unique_ptr<ast::SelectStmt>> ParseSelect(std::string_view sql);

}  // namespace rdfrel::sql

#endif  // RDFREL_SQL_PARSER_H_
