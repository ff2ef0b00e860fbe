#include <algorithm>
#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lexer.h"
#include "lint.h"

namespace rdfrel_lint {

namespace {

// ---------------------------------------------------------------- helpers

/// Member access by project naming convention: trailing underscore.
bool IsMemberName(const std::string& ident) {
  return ident.size() >= 2 && ident.back() == '_';
}

const std::set<std::string>& BlockingCallNames() {
  // Env / WritableFile I/O plus pool hand-off. `Append` and `Close` are
  // deliberately absent: the names are too generic to match lexically
  // without drowning real diagnostics in noise (DESIGN.md §15).
  static const std::set<std::string> kNames = {
      "fsync",          "fdatasync",  "NewWritableFile",
      "ReadFile",       "FileSize",   "ListDir",
      "CreateDirIfMissing",           "RemoveFile",
      "RenameFile",     "TruncateFile",
      "Submit",         "Sync",
  };
  return kNames;
}

const std::set<std::string>& ContainerInsertNames() {
  static const std::set<std::string> kNames = {
      "push_back", "emplace_back", "emplace", "insert", "push_front",
      "assign",
  };
  return kNames;
}

struct ScopedName {
  std::string name;
  int depth;     ///< brace depth the declaration is live at
  bool pointer;  ///< declared `T*` (batch vars only; others leave it false)
};

struct LockRecord {
  std::string name;    ///< RAII variable name
  std::string mutex;   ///< normalized text of the mutex argument
  int depth;
  bool locked;
};

/// Walk state shared by every rule; one pass per file.
class Analyzer {
 public:
  Analyzer(const std::string& path, const LexedFile& lexed,
           const std::set<std::string>& rules, std::vector<Diagnostic>* out)
      : path_(path), t_(lexed.tokens), rules_(rules), out_(out) {}

  void Run();

 private:
  bool RuleOn(const char* rule) const { return rules_.count(rule) > 0; }

  void Diag(const char* rule, int line, std::string message) {
    out_->push_back({path_, line, rule, std::move(message)});
  }

  const Token& Tok(size_t k) const {
    static const Token kEof{TokenKind::kPunct, "", 0};
    return k < t_.size() ? t_[k] : kEof;
  }
  bool IsPunct(size_t k, const char* text) const {
    return Tok(k).kind == TokenKind::kPunct && Tok(k).text == text;
  }
  bool IsIdent(size_t k) const { return Tok(k).kind == TokenKind::kIdent; }
  bool IsIdent(size_t k, const char* text) const {
    return IsIdent(k) && Tok(k).text == text;
  }

  /// Index of the token after the `)` matching the `(` at \p open.
  size_t AfterMatchingParen(size_t open) const;
  /// Normalized text of the argument starting at \p k (after `(` or `,`):
  /// concatenated tokens up to the next top-level `,` or `)`, `&` dropped.
  std::string NormalizedArg(size_t k) const;
  /// Collects statement-end index: first `;` at the current paren level.
  size_t StatementEnd(size_t k) const;

  int DeclDepth() const { return paren_depth_ > 0 ? depth_ + 1 : depth_; }

  template <typename Rec>
  static void Purge(std::vector<Rec>* v, int depth) {
    v->erase(std::remove_if(v->begin(), v->end(),
                            [depth](const Rec& r) { return r.depth > depth; }),
             v->end());
  }

  bool IsLiveIn(const std::vector<ScopedName>& v, const std::string& n) const {
    for (const auto& r : v) {
      if (r.name == n) return true;
    }
    return false;
  }

  // Sub-handlers, each invoked from the main token loop.
  void HandleCloseBrace();
  void HandleLockDecl(size_t k);
  void HandleLockToggle(size_t k);
  void HandleBlockingCall(size_t k);
  void HandleWaitCall(size_t k);
  void HandleVoidCast(size_t k);
  void HandleDeclOrAssign(size_t k);
  void HandleContainerInsert(size_t k);

  /// True when [begin, end) captures borrowed RowBatch storage: `&batch`,
  /// `batch.RowAt/Active/ActiveIndex/selection`, or the bare batch name.
  bool RhsCapturesBatch(size_t begin, size_t end,
                        std::string* which_batch) const;

  const std::string& path_;
  const std::vector<Token>& t_;
  const std::set<std::string>& rules_;
  std::vector<Diagnostic>* out_;

  int depth_ = 0;        ///< brace depth
  int paren_depth_ = 0;  ///< open parens

  std::vector<LockRecord> locks_;
  std::vector<ScopedName> batch_vars_;
  std::vector<ScopedName> status_vars_;
};

size_t Analyzer::AfterMatchingParen(size_t open) const {
  int level = 0;
  for (size_t k = open; k < t_.size(); ++k) {
    if (IsPunct(k, "(")) ++level;
    if (IsPunct(k, ")")) {
      --level;
      if (level == 0) return k + 1;
    }
  }
  return t_.size();
}

std::string Analyzer::NormalizedArg(size_t k) const {
  std::string out;
  int paren = 0;
  for (; k < t_.size(); ++k) {
    if (IsPunct(k, "(")) ++paren;
    if (IsPunct(k, ")")) {
      if (paren == 0) break;
      --paren;
    }
    if (paren == 0 && IsPunct(k, ",")) break;
    if (IsPunct(k, "&")) continue;  // address-of is lock-decl noise
    out += Tok(k).text;
  }
  return out;
}

size_t Analyzer::StatementEnd(size_t k) const {
  int paren = 0;
  int brace = 0;
  for (; k < t_.size(); ++k) {
    if (IsPunct(k, "(")) ++paren;
    if (IsPunct(k, ")")) {
      if (paren == 0) break;  // left our expression (e.g. inside `for`)
      --paren;
    }
    if (IsPunct(k, "{")) ++brace;  // braced init / lambda body
    if (IsPunct(k, "}")) {
      if (brace == 0) break;
      --brace;
    }
    if (paren == 0 && brace == 0 && IsPunct(k, ";")) return k;
  }
  return k;
}

void Analyzer::HandleCloseBrace() {
  --depth_;
  if (depth_ < 0) depth_ = 0;
  Purge(&locks_, depth_);
  Purge(&batch_vars_, depth_);
  Purge(&status_vars_, depth_);
}

void Analyzer::HandleLockDecl(size_t k) {
  // `MutexLock name(&mu);` / `ReaderLock` / `WriterLock`.
  const std::string& ty = Tok(k).text;
  if (ty != "MutexLock" && ty != "ReaderLock" && ty != "WriterLock") return;
  if (!(IsIdent(k + 1) && IsPunct(k + 2, "("))) return;
  locks_.push_back(
      {Tok(k + 1).text, NormalizedArg(k + 3), DeclDepth(), true});
}

void Analyzer::HandleLockToggle(size_t k) {
  // `name.Unlock()` / `name.Lock()` on a live relockable MutexLock.
  if (!(IsIdent(k) && IsPunct(k + 1, ".") &&
        (IsIdent(k + 2, "Unlock") || IsIdent(k + 2, "Lock")) &&
        IsPunct(k + 3, "("))) {
    return;
  }
  for (auto& l : locks_) {
    if (l.name == Tok(k).text) l.locked = IsIdent(k + 2, "Lock");
  }
}

void Analyzer::HandleBlockingCall(size_t k) {
  if (!RuleOn(kRuleBlockingUnderLock)) return;
  if (!IsIdent(k) || !IsPunct(k + 1, "(")) return;
  const std::string& name = Tok(k).text;
  if (name == "Wait" || name == "WaitFor") {
    HandleWaitCall(k);
    return;
  }
  if (BlockingCallNames().count(name) == 0) return;
  // Skip definitions/declarations: `Status Foo::Sync() {` or `... Sync();`
  // at class scope — a definition's close paren is followed by a body or
  // qualifiers, a call's never is.
  size_t after = AfterMatchingParen(k + 1);
  if (IsPunct(after, "{") || IsIdent(after, "const") ||
      IsIdent(after, "noexcept") || IsIdent(after, "override") ||
      IsIdent(after, "final") || IsIdent(after, "RDFREL_EXCLUDES") ||
      IsIdent(after, "RDFREL_REQUIRES")) {
    return;
  }
  for (const auto& l : locks_) {
    if (!l.locked) continue;
    Diag(kRuleBlockingUnderLock, Tok(k).line,
         "blocking call " + name + "() while holding lock '" + l.name +
             "' on " + l.mutex +
             "; release around the call (relockable MutexLock idiom, see "
             "persist/wal.cc FlusherLoop) or move the I/O out of the "
             "critical section");
    return;  // one diagnostic per call site is enough
  }
}

void Analyzer::HandleWaitCall(size_t k) {
  // `cv.Wait(mu)` / `cv.WaitFor(mu, t)`: waiting is legitimate only on the
  // mutex of a held lock, and only when no *other* mutex is held — waiting
  // while holding a second lock blocks everyone queued on it.
  if (!(IsPunct(k - 1, ".") || IsPunct(k - 1, "->"))) return;
  const std::string arg = NormalizedArg(k + 2);
  for (const auto& l : locks_) {
    if (!l.locked) continue;
    if (l.mutex == arg) continue;
    Diag(kRuleBlockingUnderLock, Tok(k).line,
         "CondVar::" + Tok(k).text + "(" + arg + ") while holding lock '" +
             l.name + "' on a different mutex (" + l.mutex +
             "); waiting parks the thread with that mutex still held");
    return;
  }
}

void Analyzer::HandleVoidCast(size_t k) {
  if (!RuleOn(kRuleStatusDiscipline)) return;
  // `(void)expr;` — flag call-expression drops and Status-variable drops.
  if (!(IsPunct(k, "(") && IsIdent(k + 1, "void") && IsPunct(k + 2, ")"))) {
    return;
  }
  size_t expr = k + 3;
  if (Tok(expr).kind == TokenKind::kPunct) return;  // `(void)` param list etc.
  size_t end = StatementEnd(expr);
  bool has_call = false;
  for (size_t j = expr; j < end; ++j) {
    if (IsPunct(j, "(")) {
      has_call = true;
      break;
    }
  }
  if (has_call) {
    Diag(kRuleStatusDiscipline, Tok(k).line,
         "(void)-cast call drops its result; if it returns Status/Result "
         "use rdfrel::IgnoreError(expr, \"reason\"), otherwise call it "
         "without the cast");
    return;
  }
  // Single identifier: flag only variables declared as Status/Result.
  if (IsIdent(expr) && end == expr + 1 &&
      IsLiveIn(status_vars_, Tok(expr).text)) {
    Diag(kRuleStatusDiscipline, Tok(k).line,
         "(void) discards Status variable '" + Tok(expr).text +
             "'; use rdfrel::IgnoreError(" + Tok(expr).text +
             ", \"reason\") so the swallowed error stays greppable");
  }
}

bool Analyzer::RhsCapturesBatch(size_t begin, size_t end,
                                std::string* which_batch) const {
  // Copying a Row or an index *value* out of a batch is always safe; the
  // hazard is address-shaped: `&batch`, `&batch.RowAt(i)`, retaining a
  // RowBatch* variable, or copying the whole selection vector (indices
  // that only mean something against this batch's storage).
  for (size_t j = begin; j < end; ++j) {
    if (!IsIdent(j)) continue;
    const std::string& id = Tok(j).text;
    const ScopedName* var = nullptr;
    for (const auto& r : batch_vars_) {
      if (r.name == id) var = &r;
    }
    if (var == nullptr) continue;
    *which_batch = id;
    // `&batch` / `&batch.RowAt(i)` — taking an address into batch storage.
    if (IsPunct(j - 1, "&")) return true;
    // `member_ = out;` where out is RowBatch* — retaining the pointer.
    if (var->pointer && end == begin + 1) return true;
    // `member_ = batch.selection();` — wholesale selection copy.
    if ((IsPunct(j + 1, ".") || IsPunct(j + 1, "->")) &&
        IsIdent(j + 2, "selection")) {
      return true;
    }
  }
  return false;
}

void Analyzer::HandleDeclOrAssign(size_t k) {
  // Declarations first: they feed the taint/type maps used by assignments.
  if (IsIdent(k)) {
    const std::string& id = Tok(k).text;
    // `RowBatch [*&] name` — remember batch-typed locals and parameters.
    if (id == "RowBatch") {
      size_t j = k + 1;
      bool pointer = false;
      while (IsPunct(j, "*") || IsPunct(j, "&") || IsIdent(j, "const")) {
        if (IsPunct(j, "*")) pointer = true;
        ++j;
      }
      if (IsIdent(j) && !IsPunct(j + 1, "::") &&
          RuleOn(kRuleBorrowedBatch)) {
        batch_vars_.push_back({Tok(j).text, DeclDepth(), pointer});
      }
    }
    // `Status name` / `Result<T> name` — remember status-typed locals.
    if (id == "Status" || id == "Result") {
      size_t j = k + 1;
      if (IsPunct(j, "<")) {  // skip template argument list
        int angle = 0;
        for (; j < t_.size(); ++j) {
          if (IsPunct(j, "<")) ++angle;
          if (IsPunct(j, ">")) {
            --angle;
            if (angle == 0) {
              ++j;
              break;
            }
          }
        }
      }
      if (IsIdent(j) && !IsPunct(j + 1, "::") && !IsPunct(j + 1, "(") &&
          RuleOn(kRuleStatusDiscipline)) {
        status_vars_.push_back({Tok(j).text, DeclDepth(), false});
      }
    }
  }

  // Assignment statements: `lhs = rhs ;` at paren level 0. `==`, `<=`, etc.
  // never match because the lexer emits one punct per char and we check the
  // neighbors.
  if (!IsPunct(k, "=") || paren_depth_ > 0) return;
  if (IsPunct(k - 1, "=") || IsPunct(k + 1, "=") || IsPunct(k - 1, "<") ||
      IsPunct(k - 1, ">") || IsPunct(k - 1, "!") || IsPunct(k - 1, "+") ||
      IsPunct(k - 1, "-") || IsPunct(k - 1, "*") || IsPunct(k - 1, "/") ||
      IsPunct(k - 1, "%") || IsPunct(k - 1, "&") || IsPunct(k - 1, "|") ||
      IsPunct(k - 1, "^")) {
    return;
  }

  const size_t rhs_begin = k + 1;
  const size_t rhs_end = StatementEnd(rhs_begin);

  // Classify the LHS.
  bool member_store = false;
  bool static_store = false;
  bool is_decl = false;
  std::string lhs_name;
  if (IsIdent(k - 1)) {
    lhs_name = Tok(k - 1).text;
    // Preceded by a type-ish token => declaration with initializer.
    if (IsIdent(k - 2) || IsPunct(k - 2, "*") || IsPunct(k - 2, "&") ||
        IsPunct(k - 2, ">")) {
      is_decl = true;
      // `static T name = ...` — scan the declaration head for `static`.
      for (size_t j = k; j-- > 0;) {
        if (IsPunct(j, ";") || IsPunct(j, "{") || IsPunct(j, "}")) break;
        if (IsIdent(j, "static")) {
          static_store = true;
          break;
        }
      }
    } else if (IsMemberName(lhs_name)) {
      member_store = IsPunct(k - 2, ";") || IsPunct(k - 2, "{") ||
                     IsPunct(k - 2, "}") || IsPunct(k - 2, ")") ||
                     k - 1 == 0;
    } else if (IsPunct(k - 2, "->") && IsIdent(k - 3, "this")) {
      member_store = true;
      lhs_name = Tok(k - 1).text;
    }
  }

  if (is_decl && !static_store) return;
  if (!member_store && !static_store) return;

  std::string batch;
  if (RuleOn(kRuleBorrowedBatch) &&
      RhsCapturesBatch(rhs_begin, rhs_end, &batch)) {
    Diag(kRuleBorrowedBatch, Tok(k).line,
         "borrowed RowBatch state from '" + batch + "' stored into " +
             (static_store ? "a static" : "member '" + lhs_name + "'") +
             "; batch storage and selection are only valid until the "
             "producing operator's next NextBatch call");
  }
}

void Analyzer::HandleContainerInsert(size_t k) {
  // `member_.push_back(&batch)` / `this->member.emplace(..., &batch)` —
  // moving batch-borrowed state into a member container.
  if (!(IsIdent(k) && IsPunct(k + 1, ".") && IsIdent(k + 2) &&
        IsPunct(k + 3, "(") &&
        ContainerInsertNames().count(Tok(k + 2).text) > 0)) {
    return;
  }
  bool member = IsMemberName(Tok(k).text) ||
                (IsPunct(k - 1, "->") && IsIdent(k - 2, "this"));
  if (!member) return;
  const size_t args_begin = k + 4;
  const size_t args_end = AfterMatchingParen(k + 3);

  std::string batch;
  if (RuleOn(kRuleBorrowedBatch) &&
      RhsCapturesBatch(args_begin, args_end, &batch)) {
    Diag(kRuleBorrowedBatch, Tok(k).line,
         "borrowed RowBatch state from '" + batch +
             "' inserted into member container '" + Tok(k).text +
             "'; it is only valid until the next NextBatch call");
  }
}

void Analyzer::Run() {
  for (size_t k = 0; k < t_.size(); ++k) {
    const Token& tok = t_[k];
    if (tok.kind == TokenKind::kPunct) {
      if (tok.text == "{") {
        ++depth_;
        continue;
      }
      if (tok.text == "}") {
        HandleCloseBrace();
        continue;
      }
      if (tok.text == "(") {
        HandleVoidCast(k);
        ++paren_depth_;
        continue;
      }
      if (tok.text == ")") {
        if (paren_depth_ > 0) --paren_depth_;
        continue;
      }
      if (tok.text == "=") {
        HandleDeclOrAssign(k);
        continue;
      }
      continue;
    }
    if (tok.kind != TokenKind::kIdent) continue;

    HandleLockDecl(k);
    HandleLockToggle(k);
    HandleBlockingCall(k);
    HandleDeclOrAssign(k);  // declarations without `=` (brace init, params)
    HandleContainerInsert(k);
  }
}

}  // namespace

std::vector<std::string> AllRules() {
  return {kRuleBlockingUnderLock, kRuleBorrowedBatch, kRuleStatusDiscipline};
}

std::string FormatDiagnostic(const Diagnostic& d) {
  return d.file + ":" + std::to_string(d.line) + ": error: [" + d.rule +
         "] " + d.message;
}

void AnalyzeFileLexical(const std::string& path, const std::string& source,
                        const std::set<std::string>& rules,
                        std::vector<Diagnostic>* out) {
  LexedFile lexed = Lex(source);
  Analyzer(path, lexed, rules, out).Run();
}

std::map<std::string, std::set<int>> SuppressionLines(
    const std::string& source) {
  std::map<std::string, std::set<int>> out;
  LexedFile lexed = Lex(source);
  std::set<int> comment_lines;
  for (const auto& c : lexed.comments) comment_lines.insert(c.line);
  for (const auto& c : lexed.comments) {
    const std::string& text = c.text;
    size_t pos = text.find("rdfrel-lint:");
    if (pos == std::string::npos) continue;
    size_t allow = text.find("allow(", pos);
    if (allow == std::string::npos) continue;
    size_t close = text.find(')', allow);
    if (close == std::string::npos) continue;
    std::string rule = text.substr(allow + 6, close - (allow + 6));
    // The reason after `):` is mandatory: an unexplained suppression is
    // itself a violation of the discipline.
    size_t colon = text.find(':', close);
    bool has_reason = false;
    if (colon != std::string::npos) {
      for (size_t i = colon + 1; i < text.size(); ++i) {
        if (!std::isspace(static_cast<unsigned char>(text[i]))) {
          has_reason = true;
          break;
        }
      }
    }
    if (!has_reason) continue;
    // The reason may continue over following comment lines; the suppression
    // rides the whole block and lands on the first code line after it.
    out[rule].insert(c.line);
    int last = c.line;
    while (comment_lines.count(last + 1) > 0) ++last;
    out[rule].insert(last);
  }
  return out;
}

size_t ApplySuppressions(const std::string& source, const std::string& path,
                         std::vector<Diagnostic>* diags) {
  std::map<std::string, std::set<int>> lines = SuppressionLines(source);
  if (lines.empty()) return 0;
  size_t before = diags->size();
  diags->erase(
      std::remove_if(diags->begin(), diags->end(),
                     [&](const Diagnostic& d) {
                       if (d.file != path) return false;
                       auto it = lines.find(d.rule);
                       if (it == lines.end()) return false;
                       return it->second.count(d.line) > 0 ||
                              it->second.count(d.line - 1) > 0;
                     }),
      diags->end());
  return before - diags->size();
}

}  // namespace rdfrel_lint
