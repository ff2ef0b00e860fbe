#include "frontend_clang.h"

// Built when the Clang development libraries are absent: the libTooling
// engine reports itself unavailable and rdfrel-lint runs every rule on the
// lexical engine instead (scripts/lint.sh prints the notice).

namespace rdfrel_lint {

bool ClangEngineAvailable() { return false; }

bool RunClangEngine(const std::vector<std::string>&, const std::string&,
                    const std::set<std::string>&, std::vector<Diagnostic>*,
                    std::string* error) {
  *error =
      "rdfrel-lint was built without the Clang libTooling engine "
      "(LLVM/Clang development libraries were not found at configure time)";
  return false;
}

}  // namespace rdfrel_lint
