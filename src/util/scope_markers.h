#ifndef RDFREL_UTIL_SCOPE_MARKERS_H_
#define RDFREL_UTIL_SCOPE_MARKERS_H_

/// \file scope_markers.h
/// Lifetime-scope marker macros checked by rdfrel-lint (DESIGN.md §15).
///
/// RDFREL_QUERY_SCOPED declares that every instance of the annotated class
/// lives strictly inside one query execution: constructed after the query's
/// QueryArena, destroyed before it. Members of such a class may therefore
/// hold arena-backed pointers and containers — the lint's arena-escape rule
/// exempts them. Apply it between the class keyword and the name:
///
///   class RDFREL_QUERY_SCOPED PerQueryRows final { ... };
///
/// The claim is a contract, not a decoration: marking a type that escapes
/// the query (a cache entry, a store member, anything reachable from the
/// plan cache) reintroduces exactly the use-after-free the rule exists to
/// prevent. Under Clang the marker compiles to [[clang::annotate]] so the
/// libTooling engine reads it from the AST; under other compilers it
/// vanishes and the lexical engine matches the macro name in source.

#if defined(__clang__)
#define RDFREL_QUERY_SCOPED [[clang::annotate("rdfrel-query-scoped")]]
#else
#define RDFREL_QUERY_SCOPED
#endif

#endif  // RDFREL_UTIL_SCOPE_MARKERS_H_
