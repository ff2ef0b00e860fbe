#ifndef RDFREL_TOOLS_LINT_FRONTEND_CLANG_H_
#define RDFREL_TOOLS_LINT_FRONTEND_CLANG_H_

/// \file frontend_clang.h
/// Optional Clang libTooling frontend. Compiled only when CMake finds the
/// Clang development libraries (RDFREL_LINT_HAVE_CLANG); otherwise a stub
/// reports the engine unavailable and the driver falls back to the lexical
/// engine. The libTooling pass re-implements the assignment-shaped rules
/// (borrowed-batch, status-discipline) on the AST, where
/// member resolution and types are exact; blocking-under-lock stays with
/// the lexical engine in both modes because its release-around-I/O idiom
/// is a statement-order property the token walk models directly.

#include <set>
#include <string>
#include <vector>

#include "lint.h"

namespace rdfrel_lint {

/// True when this binary was built against the Clang libraries.
bool ClangEngineAvailable();

/// Runs the libTooling pass for \p rules over \p files using the compile
/// database at \p build_path (a directory containing compile_commands.json).
/// Returns false (with \p error set) on tooling failure. Unavailable stub
/// always returns false.
bool RunClangEngine(const std::vector<std::string>& files,
                    const std::string& build_path,
                    const std::set<std::string>& rules,
                    std::vector<Diagnostic>* out, std::string* error);

}  // namespace rdfrel_lint

#endif  // RDFREL_TOOLS_LINT_FRONTEND_CLANG_H_
