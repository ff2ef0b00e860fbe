/// rdfrel-lint driver (DESIGN.md §15).
///
///   rdfrel-lint -p build [--rules=a,b] [--scope=src/] [files...]
///
/// With -p, every compile_commands.json entry under --scope is analyzed,
/// plus every header under the scope directories (inline code in headers is
/// just as able to violate an invariant). Positional files override the
/// database and are analyzed as-is. Exit 0 = clean, 1 = diagnostics,
/// 2 = usage or I/O error.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "compile_commands.h"
#include "frontend_clang.h"
#include "lint.h"

namespace {

namespace fs = std::filesystem;
using rdfrel_lint::Diagnostic;

struct Options {
  std::string build_path;           // -p
  std::vector<std::string> scopes;  // --scope= (default: src/)
  std::set<std::string> rules;      // --rules= (default: all)
  std::string engine = "auto";      // --engine=auto|lite|clang
  bool no_suppress = false;         // --no-suppress
  bool verbose = false;             // --verbose
  std::vector<std::string> files;   // positional
};

int Usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0
      << " [-p <build-dir>] [--rules=r1,r2] [--scope=prefix/]...\n"
         "       [--engine=auto|lite|clang] [--no-suppress] [--verbose]\n"
         "       [--list-rules] [files...]\n\n"
         "Enforces the rdfrel project invariants (DESIGN.md '15. Project "
         "lint').\nWith -p, analyzes every compile_commands.json entry "
         "whose path falls\nunder a --scope prefix (default src/), plus "
         "headers under those\ndirectories. Positional files are analyzed "
         "unconditionally.\n";
  return 2;
}

bool ReadFileToString(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

/// Repo-relative normalization: diagnostics print paths relative to the
/// current directory when possible so fixture expectations stay stable.
std::string DisplayPath(const std::string& path) {
  std::error_code ec;
  fs::path p = fs::weakly_canonical(path, ec);
  if (ec) return path;
  fs::path cwd = fs::current_path(ec);
  if (ec) return p.string();
  auto rel = fs::relative(p, cwd, ec);
  if (ec || rel.empty() || rel.string().rfind("..", 0) == 0) {
    return p.string();
  }
  return rel.string();
}

bool InScope(const std::string& display_path,
             const std::vector<std::string>& scopes) {
  for (const auto& s : scopes) {
    if (display_path.rfind(s, 0) == 0) return true;
    if (display_path.find("/" + s) != std::string::npos) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (const std::string& rule : rdfrel_lint::AllRules()) {
    opt.rules.insert(rule);
  }

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "-p") {
      if (++i >= argc) return Usage(argv[0]);
      opt.build_path = argv[i];
    } else if (arg.rfind("-p=", 0) == 0) {
      opt.build_path = arg.substr(3);
    } else if (arg.rfind("--rules=", 0) == 0) {
      opt.rules.clear();
      std::stringstream ss(arg.substr(8));
      std::string rule;
      std::vector<std::string> all = rdfrel_lint::AllRules();
      while (std::getline(ss, rule, ',')) {
        if (std::find(all.begin(), all.end(), rule) == all.end()) {
          std::cerr << argv[0] << ": unknown rule '" << rule
                    << "' (see --list-rules)\n";
          return 2;
        }
        opt.rules.insert(rule);
      }
      if (opt.rules.empty()) return Usage(argv[0]);
    } else if (arg.rfind("--scope=", 0) == 0) {
      opt.scopes.push_back(arg.substr(8));
    } else if (arg.rfind("--engine=", 0) == 0) {
      opt.engine = arg.substr(9);
      if (opt.engine != "auto" && opt.engine != "lite" &&
          opt.engine != "clang") {
        return Usage(argv[0]);
      }
    } else if (arg == "--no-suppress") {
      opt.no_suppress = true;
    } else if (arg == "--verbose") {
      opt.verbose = true;
    } else if (arg == "--list-rules") {
      for (const std::string& rule : rdfrel_lint::AllRules()) {
        std::cout << rule << "\n";
      }
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      return Usage(argv[0]);
    } else {
      opt.files.push_back(arg);
    }
  }
  if (opt.scopes.empty()) opt.scopes.push_back("src/");

  // ------------------------------------------------------ collect file set
  std::vector<std::string> files;  // display paths, deduped, ordered
  std::set<std::string> seen;
  auto add_file = [&](const std::string& path) {
    std::string display = DisplayPath(path);
    if (seen.insert(display).second) files.push_back(display);
  };

  for (const auto& f : opt.files) add_file(f);

  if (!opt.build_path.empty()) {
    fs::path db = opt.build_path;
    if (fs::is_directory(db)) db /= "compile_commands.json";
    std::string json;
    if (!ReadFileToString(db.string(), &json)) {
      std::cerr << argv[0] << ": cannot read " << db.string() << "\n";
      return 2;
    }
    std::string error;
    auto entries = rdfrel_lint::ParseCompileCommands(json, &error);
    if (!error.empty()) {
      std::cerr << argv[0] << ": " << error << "\n";
      return 2;
    }
    std::vector<std::string> db_files;
    for (const auto& e : entries) {
      std::string display = DisplayPath(e.file);
      if (InScope(display, opt.scopes)) db_files.push_back(display);
    }
    std::sort(db_files.begin(), db_files.end());
    for (const auto& f : db_files) add_file(f);
    // Headers under the scope directories of the database entries: inline
    // code lives there too.
    std::set<std::string> scope_dirs;
    for (const auto& f : db_files) {
      scope_dirs.insert(fs::path(f).begin()->string());
    }
    std::vector<std::string> headers;
    for (const auto& dir : scope_dirs) {
      std::error_code ec;
      for (fs::recursive_directory_iterator it(dir, ec), end;
           !ec && it != end; it.increment(ec)) {
        if (it->is_regular_file(ec) && it->path().extension() == ".h") {
          headers.push_back(it->path().string());
        }
      }
    }
    std::sort(headers.begin(), headers.end());
    for (const auto& h : headers) add_file(h);
  }

  if (files.empty()) {
    std::cerr << argv[0]
              << ": nothing to analyze (no -p database and no files)\n";
    return 2;
  }

  // --------------------------------------------------------------- load
  std::vector<std::pair<std::string, std::string>> contents;  // path, text
  for (const auto& f : files) {
    std::string text;
    if (!ReadFileToString(f, &text)) {
      std::cerr << argv[0] << ": cannot read " << f << "\n";
      return 2;
    }
    contents.emplace_back(f, std::move(text));
  }

  // ------------------------------------------------------------ run engines
  bool use_clang = false;
  if (opt.engine == "clang") {
    if (!rdfrel_lint::ClangEngineAvailable()) {
      std::cerr << argv[0]
                << ": --engine=clang requested but this binary was built "
                   "without the Clang libTooling engine\n";
      return 2;
    }
    use_clang = true;
  } else if (opt.engine == "auto") {
    use_clang = rdfrel_lint::ClangEngineAvailable();
    if (!use_clang && opt.verbose) {
      std::cerr << "rdfrel-lint: notice: Clang libTooling engine "
                   "unavailable; using the built-in lexical engine\n";
    }
  }

  // Rules the AST engine owns when active; blocking-under-lock is always
  // lexical (see frontend_clang.h).
  std::set<std::string> clang_rules;
  std::set<std::string> lexical_rules = opt.rules;
  if (use_clang) {
    for (const char* rule : {rdfrel_lint::kRuleBorrowedBatch,
                             rdfrel_lint::kRuleStatusDiscipline}) {
      if (opt.rules.count(rule) > 0) {
        clang_rules.insert(rule);
        lexical_rules.erase(rule);
      }
    }
  }

  std::vector<Diagnostic> diags;
  for (const auto& [path, text] : contents) {
    rdfrel_lint::AnalyzeFileLexical(path, text, lexical_rules, &diags);
  }
  if (!clang_rules.empty()) {
    // Headers are analyzed through the TUs that include them; feed the
    // tool only real database entries (.cc) to avoid double reports.
    std::vector<std::string> tu_files;
    for (const auto& [path, text] : contents) {
      if (path.size() > 3 && path.substr(path.size() - 3) == ".cc") {
        tu_files.push_back(path);
      }
    }
    std::string error;
    if (!rdfrel_lint::RunClangEngine(tu_files, opt.build_path, clang_rules,
                                     &diags, &error)) {
      std::cerr << argv[0] << ": " << error << "\n";
      return 2;
    }
  }

  // ------------------------------------------- suppressions + presentation
  size_t suppressed = 0;
  if (!opt.no_suppress) {
    for (const auto& [path, text] : contents) {
      suppressed += rdfrel_lint::ApplySuppressions(text, path, &diags);
    }
  }
  std::sort(diags.begin(), diags.end());
  diags.erase(std::unique(diags.begin(), diags.end(),
                          [](const Diagnostic& a, const Diagnostic& b) {
                            return a.file == b.file && a.line == b.line &&
                                   a.rule == b.rule;
                          }),
              diags.end());

  for (const auto& d : diags) {
    std::cout << rdfrel_lint::FormatDiagnostic(d) << "\n";
  }
  if (opt.verbose) {
    std::cerr << "rdfrel-lint: " << files.size() << " files, "
              << diags.size() << " diagnostics, " << suppressed
              << " suppressed (engine: " << (use_clang ? "clang" : "lexical")
              << ")\n";
  }
  return diags.empty() ? 0 : 1;
}
