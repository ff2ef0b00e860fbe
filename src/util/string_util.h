#ifndef RDFREL_UTIL_STRING_UTIL_H_
#define RDFREL_UTIL_STRING_UTIL_H_

/// \file string_util.h
/// Small string helpers shared across parsers and SQL generation.

#include <string>
#include <string_view>
#include <vector>

namespace rdfrel {

/// Splits on a single character; keeps empty fields.
std::vector<std::string> SplitString(std::string_view s, char sep);

/// Removes leading/trailing ASCII whitespace.
std::string_view TrimWhitespace(std::string_view s);

/// True if \p s starts with / ends with \p prefix / \p suffix.
bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Lower-cases ASCII letters.
std::string ToLowerAscii(std::string_view s);
/// Upper-cases ASCII letters.
std::string ToUpperAscii(std::string_view s);

/// Case-insensitive ASCII equality (for SQL keywords).
bool EqualsIgnoreCaseAscii(std::string_view a, std::string_view b);

/// Joins strings with a separator.
std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view sep);

/// Escapes control characters, quotes and backslashes for N-Triples output.
std::string NtEscape(std::string_view s);

/// Reads the whole of \p s as a double, as std::strtod does (leading
/// whitespace, hex, "inf" and "nan" included), into \p out. False for an
/// empty string, trailing input, or a value out of range (ERANGE), so it
/// accepts exactly what std::stod reads in full, without throwing.
bool ParseDouble(const std::string& s, double* out);

}  // namespace rdfrel

#endif  // RDFREL_UTIL_STRING_UTIL_H_
