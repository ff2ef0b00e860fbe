#ifndef RDFREL_TOOLS_LINT_LEXER_H_
#define RDFREL_TOOLS_LINT_LEXER_H_

/// \file lexer.h
/// A minimal C++ surface lexer for the lexical lint engine. It does not
/// preprocess: macros stay as identifier tokens (which is exactly what the
/// engine wants — RDFREL_REQUIRES is matched by name), #include lines
/// are skipped, comments and string/char literals are consumed without
/// producing tokens. Comment text is kept separately, keyed by line, for
/// suppression lookup.

#include <string>
#include <vector>

namespace rdfrel_lint {

enum class TokenKind {
  kIdent,   ///< identifiers and keywords (macros included)
  kNumber,  ///< numeric literal (value unused; kept for stream integrity)
  kString,  ///< string or char literal (text dropped)
  kPunct,   ///< one token per punctuator character: { } ( ) ; : , . etc.
};

struct Token {
  TokenKind kind;
  std::string text;  ///< punctuators may be multi-char: :: -> . etc.
  int line;          ///< 1-based
};

struct Comment {
  int line;          ///< line the comment starts on
  std::string text;  ///< without the // or /* */ markers
};

struct LexedFile {
  std::vector<Token> tokens;
  std::vector<Comment> comments;
};

/// Tokenizes \p source. Never fails: unknown bytes are skipped. Multi-char
/// punctuators recognized: `::`, `->`. Everything else is one char per
/// token. Preprocessor directives are consumed to end of line (respecting
/// backslash continuations).
LexedFile Lex(const std::string& source);

}  // namespace rdfrel_lint

#endif  // RDFREL_TOOLS_LINT_LEXER_H_
