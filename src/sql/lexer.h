#ifndef RDFREL_SQL_LEXER_H_
#define RDFREL_SQL_LEXER_H_

/// \file lexer.h
/// Tokenizer for the SQL subset. Keywords are not distinguished here —
/// identifiers are matched case-insensitively by the parser.

#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace rdfrel::sql {

enum class TokenKind {
  kIdentifier,    ///< bare word (keywords included)
  kInteger,       ///< 123
  kFloat,         ///< 1.5
  kString,        ///< 'text' (quotes stripped, '' unescaped); the parser
                  ///< rejects it, naming it in the error
  kSymbol,        ///< punctuation / operator, in `text`
  kEnd,
};

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;  ///< identifier name, literal text, or symbol spelling
  size_t offset = 0; ///< byte offset in the input (for error messages)
};

/// Tokenizes \p sql fully. Multi-char operators recognized: <=, >=, <>, !=.
/// Comments: `-- to end of line`.
Result<std::vector<Token>> LexSql(std::string_view sql);

}  // namespace rdfrel::sql

#endif  // RDFREL_SQL_LEXER_H_
