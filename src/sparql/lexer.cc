#include "sparql/lexer.h"

#include <cctype>

namespace rdfrel::sparql {

namespace {
bool IsNameStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
         c == '-' || c == '.';
}
}  // namespace

Result<std::vector<Token>> LexSparql(std::string_view in) {
  std::vector<Token> tokens;
  size_t i = 0;
  const size_t n = in.size();
  while (i < n) {
    char c = in[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '#') {
      while (i < n && in[i] != '\n') ++i;
      continue;
    }
    size_t start = i;
    // Variable.
    if (c == '?' || c == '$') {
      ++i;
      std::string name;
      while (i < n && IsNameChar(in[i]) && in[i] != '.') {
        name.push_back(in[i]);
        ++i;
      }
      if (name.empty()) {
        return Status::ParseError("empty variable name at offset " +
                                  std::to_string(start));
      }
      tokens.push_back({TokenKind::kVar, std::move(name), start});
      continue;
    }
    // IRI (only when it looks like one; bare '<' is a comparison).
    if (c == '<') {
      size_t j = i + 1;
      bool iri_like = false;
      while (j < n && in[j] != '>' && !std::isspace(
                 static_cast<unsigned char>(in[j]))) {
        ++j;
      }
      iri_like = j < n && in[j] == '>';
      if (iri_like) {
        std::string iri(in.substr(i + 1, j - i - 1));
        i = j + 1;
        tokens.push_back({TokenKind::kIri, std::move(iri), start});
        continue;
      }
    }
    // String literal.
    if (c == '"') {
      ++i;
      std::string text;
      bool closed = false;
      while (i < n) {
        if (in[i] == '"') {
          closed = true;
          ++i;
          break;
        }
        if (in[i] == '\\' && i + 1 < n) {
          char e = in[i + 1];
          switch (e) {
            case 'n': text.push_back('\n'); break;
            case 't': text.push_back('\t'); break;
            case 'r': text.push_back('\r'); break;
            case '"': text.push_back('"'); break;
            case '\\': text.push_back('\\'); break;
            default:
              return Status::ParseError("bad escape in string literal");
          }
          i += 2;
          continue;
        }
        text.push_back(in[i]);
        ++i;
      }
      if (!closed) {
        return Status::ParseError("unterminated string at offset " +
                                  std::to_string(start));
      }
      tokens.push_back({TokenKind::kString, std::move(text), start});
      continue;
    }
    // Lang tag.
    if (c == '@') {
      ++i;
      std::string tag;
      while (i < n && (std::isalnum(static_cast<unsigned char>(in[i])) ||
                       in[i] == '-')) {
        tag.push_back(in[i]);
        ++i;
      }
      tokens.push_back({TokenKind::kLangTag, std::move(tag), start});
      continue;
    }
    // Number.
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '-' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(in[i + 1])))) {
      if (c == '-') ++i;
      bool decimal = false;
      while (i < n && std::isdigit(static_cast<unsigned char>(in[i]))) ++i;
      if (i < n && in[i] == '.' && i + 1 < n &&
          std::isdigit(static_cast<unsigned char>(in[i + 1]))) {
        decimal = true;
        ++i;
        while (i < n && std::isdigit(static_cast<unsigned char>(in[i]))) ++i;
      }
      tokens.push_back({decimal ? TokenKind::kDecimal : TokenKind::kInteger,
                        std::string(in.substr(start, i - start)), start});
      continue;
    }
    // Name, keyword, or prefixed name.
    if (IsNameStart(c)) {
      ++i;
      while (i < n && IsNameChar(in[i])) ++i;
      // Trailing '.' belongs to the triple terminator, not the name.
      while (i > start && in[i - 1] == '.') --i;
      std::string word(in.substr(start, i - start));
      if (i < n && in[i] == ':') {
        // prefix:local
        ++i;
        size_t lstart = i;
        while (i < n && IsNameChar(in[i])) ++i;
        while (i > lstart && in[i - 1] == '.') --i;  // terminator
        std::string local(in.substr(lstart, i - lstart));
        tokens.push_back({TokenKind::kPname, word + ":" + local, start});
        continue;
      }
      tokens.push_back({TokenKind::kKeywordOrName, std::move(word), start});
      continue;
    }
    // ':' starting a pname with empty prefix (":local").
    if (c == ':') {
      ++i;
      size_t lstart = i;
      while (i < n && IsNameChar(in[i])) ++i;
      while (i > lstart && in[i - 1] == '.') --i;
      tokens.push_back(
          {TokenKind::kPname,
           std::string(":").append(in.substr(lstart, i - lstart)),
           start});
      continue;
    }
    // Multi-char symbols.
    if (i + 1 < n) {
      std::string_view two = in.substr(i, 2);
      if (two == "^^" || two == "&&" || two == "||" || two == "!=" ||
          two == "<=" || two == ">=") {
        tokens.push_back({TokenKind::kSymbol, std::string(two), start});
        i += 2;
        continue;
      }
    }
    static constexpr std::string_view kSingles = "{}().,;*=<>!/_+|^";
    if (kSingles.find(c) != std::string_view::npos) {
      tokens.push_back({TokenKind::kSymbol, std::string(1, c), start});
      ++i;
      continue;
    }
    return Status::ParseError(std::string("unexpected character '") + c +
                              "' at offset " + std::to_string(start));
  }
  tokens.push_back({TokenKind::kEnd, "", n});
  return tokens;
}

}  // namespace rdfrel::sparql
