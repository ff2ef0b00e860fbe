#ifndef RDFREL_TOOLS_LINT_LINT_H_
#define RDFREL_TOOLS_LINT_LINT_H_

/// \file lint.h
/// rdfrel-lint: project-invariant checks that the compiler cannot express
/// (DESIGN.md §15). Three rules, each a named, suppressible diagnostic:
///
///   blocking-under-lock a blocking call (Env I/O, fsync, WritableFile::Sync,
///                       ThreadPool::Submit, CondVar::Wait on a foreign
///                       mutex) is made while a MutexLock/ReaderLock/
///                       WriterLock is held — unless the site releases around
///                       the call (the relockable idiom from persist/wal.cc).
///   borrowed-batch      a borrowed RowBatch, a pointer into its rows, or a
///                       copy of its selection vector is stored into state
///                       that survives the producing NextBatch call.
///   status-discipline   a Status/Result is swallowed with a bare `(void)`
///                       cast instead of rdfrel::IgnoreError(expr, "reason"),
///                       so silenced errors stay greppable.
///
/// Suppression: `// rdfrel-lint: allow(<rule-id>): <reason>` on the flagged
/// line or the line above. The reason is mandatory.
///
/// Two engines share this interface: the always-available lexical engine
/// (lexer.h + engine.cc, no dependencies beyond the standard library) and an
/// optional Clang libTooling frontend (frontend_clang.cc, compiled when LLVM
/// dev libraries are found) that re-implements the assignment-shaped rules
/// on the AST. Diagnostics from either engine are filtered through the same
/// suppression comments and printed in the same format.

#include <map>
#include <set>
#include <string>
#include <vector>

namespace rdfrel_lint {

/// Stable rule identifiers; these strings are the public contract (they
/// appear in diagnostics, suppression comments, and fixture expectations).
inline const char* const kRuleBlockingUnderLock = "blocking-under-lock";
inline const char* const kRuleBorrowedBatch = "borrowed-batch";
inline const char* const kRuleStatusDiscipline = "status-discipline";

/// All rule ids in canonical order.
std::vector<std::string> AllRules();

struct Diagnostic {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;

  bool operator<(const Diagnostic& o) const {
    if (file != o.file) return file < o.file;
    if (line != o.line) return line < o.line;
    if (rule != o.rule) return rule < o.rule;
    return message < o.message;
  }
};

/// Formats one diagnostic the way the driver prints it:
/// `<file>:<line>: error: [<rule>] <message>`.
std::string FormatDiagnostic(const Diagnostic& d);

/// Runs the lexical engine's \p rules over one file's content. Diagnostics
/// are appended unfiltered; the caller applies suppressions.
void AnalyzeFileLexical(const std::string& path, const std::string& source,
                        const std::set<std::string>& rules,
                        std::vector<Diagnostic>* out);

/// Returns the set of lines of \p source carrying a well-formed suppression
/// comment for \p rule (`// rdfrel-lint: allow(<rule>): <reason>` with a
/// non-empty reason). A diagnostic at line L is suppressed when L or L-1 is
/// in the set for its rule.
std::map<std::string, std::set<int>> SuppressionLines(
    const std::string& source);

/// Drops diagnostics whose line (or the line above) carries a matching
/// suppression comment in \p source. Returns the number dropped.
size_t ApplySuppressions(const std::string& source,
                         const std::string& path,
                         std::vector<Diagnostic>* diags);

}  // namespace rdfrel_lint

#endif  // RDFREL_TOOLS_LINT_LINT_H_
