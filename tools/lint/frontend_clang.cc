// Clang libTooling frontend for rdfrel-lint (see frontend_clang.h for the
// engine split). Compiled only when CMake finds ClangConfig.cmake; the CI
// lint job pins the LLVM version it builds against (.github/workflows).
//
// The AST pass owns the assignment-shaped rules, where semantic facts make
// the checks exact:
//   - borrowed-batch: RowBatch-typed decls are found by type, not name;
//   - status-discipline: the cast's operand type is known, so only genuine
//     Status/Result drops fire.

#include <map>
#include <set>
#include <string>
#include <vector>

#include "clang/AST/ASTConsumer.h"
#include "clang/AST/Decl.h"
#include "clang/AST/DeclCXX.h"
#include "clang/AST/Expr.h"
#include "clang/AST/ExprCXX.h"
#include "clang/AST/RecursiveASTVisitor.h"
#include "clang/Basic/SourceManager.h"
#include "clang/Frontend/CompilerInstance.h"
#include "clang/Frontend/FrontendAction.h"
#include "clang/Tooling/ArgumentsAdjusters.h"
#include "clang/Tooling/CompilationDatabase.h"
#include "clang/Tooling/Tooling.h"
#include "llvm/Support/FileSystem.h"
#include "llvm/Support/Path.h"

#include "frontend_clang.h"
#include "lint.h"

namespace rdfrel_lint {

namespace {

struct Context {
  const std::set<std::string>* rules;
  std::vector<Diagnostic>* out;
  std::string cwd;
};

std::string DisplayPath(const Context& ctx, llvm::StringRef file) {
  llvm::SmallString<256> abs(file);
  llvm::sys::path::remove_dots(abs, /*remove_dot_dot=*/true);
  std::string path = std::string(abs.str());
  if (!ctx.cwd.empty() && path.rfind(ctx.cwd + "/", 0) == 0) {
    return path.substr(ctx.cwd.size() + 1);
  }
  return path;
}

llvm::StringRef RecordName(clang::QualType type) {
  const clang::CXXRecordDecl* rd =
      type.getNonReferenceType()->getAsCXXRecordDecl();
  return rd != nullptr ? rd->getName() : llvm::StringRef();
}

/// Subtree scan: does \p e capture borrowed RowBatch storage?
class BatchCaptureFinder
    : public clang::RecursiveASTVisitor<BatchCaptureFinder> {
 public:
  bool found() const { return found_; }
  const std::string& batch_name() const { return batch_name_; }

  bool VisitDeclRefExpr(clang::DeclRefExpr* ref) {
    const auto* var = llvm::dyn_cast<clang::VarDecl>(ref->getDecl());
    if (var == nullptr) return true;
    if (RecordName(var->getType()) == "RowBatch") {
      found_ = true;
      batch_name_ = var->getNameAsString();
    }
    return !found_;
  }

 private:
  bool found_ = false;
  std::string batch_name_;
};

class Visitor : public clang::RecursiveASTVisitor<Visitor> {
 public:
  Visitor(Context* ctx, clang::ASTContext* ast) : ctx_(ctx), ast_(ast) {}

  bool shouldVisitTemplateInstantiations() const { return false; }

  bool RuleOn(const char* rule) const { return ctx_->rules->count(rule) > 0; }

  void Diag(const char* rule, clang::SourceLocation loc,
            std::string message) {
    const clang::SourceManager& sm = ast_->getSourceManager();
    clang::SourceLocation expansion = sm.getExpansionLoc(loc);
    std::string file = DisplayPath(*ctx_, sm.getFilename(expansion));
    // Only first-party code: anything resolved outside the working tree
    // (system headers, toolchain) is out of scope.
    if (file.empty() || file[0] == '/') return;
    ctx_->out->push_back({file,
                          static_cast<int>(sm.getExpansionLineNumber(loc)),
                          rule, std::move(message)});
  }

  // ------------------------------------------------------ status-discipline
  bool VisitCStyleCastExpr(clang::CStyleCastExpr* cast) {
    if (!RuleOn(kRuleStatusDiscipline)) return true;
    if (!cast->getTypeAsWritten()->isVoidType()) return true;
    clang::QualType sub =
        cast->getSubExpr()->IgnoreParenImpCasts()->getType();
    llvm::StringRef name = RecordName(sub);
    if (name == "Status" || name == "Result") {
      Diag(kRuleStatusDiscipline, cast->getBeginLoc(),
           "(void) discards a " + name.str() +
               "; use rdfrel::IgnoreError(expr, \"reason\") so the "
               "swallowed error stays greppable");
    }
    return true;
  }

  // ------------------------------------- stores: plain and operator= forms
  bool VisitBinaryOperator(clang::BinaryOperator* op) {
    if (op->getOpcode() != clang::BO_Assign) return true;
    CheckStore(op->getLHS(), op->getRHS(), op->getOperatorLoc());
    return true;
  }

  bool VisitCXXOperatorCallExpr(clang::CXXOperatorCallExpr* call) {
    if (call->getOperator() != clang::OO_Equal || call->getNumArgs() != 2) {
      return true;
    }
    CheckStore(call->getArg(0), call->getArg(1), call->getOperatorLoc());
    return true;
  }

  // --------------------------------------- member-container insert stores
  bool VisitCXXMemberCallExpr(clang::CXXMemberCallExpr* call) {
    static const std::set<std::string> kInserts = {
        "push_back", "emplace_back", "emplace", "insert", "push_front",
        "assign"};
    const clang::CXXMethodDecl* method = call->getMethodDecl();
    if (method == nullptr ||
        kInserts.count(method->getNameAsString()) == 0) {
      return true;
    }
    const auto* object = llvm::dyn_cast<clang::MemberExpr>(
        call->getImplicitObjectArgument()->IgnoreParenImpCasts());
    if (object == nullptr) return true;  // not a member container
    const auto* field =
        llvm::dyn_cast<clang::FieldDecl>(object->getMemberDecl());
    if (field == nullptr) return true;
    for (const clang::Expr* arg : call->arguments()) {
      CheckValueFlow(field, const_cast<clang::Expr*>(arg),
                     call->getExprLoc(),
                     "inserted into member container '" +
                         field->getNameAsString() + "'");
    }
    return true;
  }

 private:
  void CheckStore(clang::Expr* lhs, clang::Expr* rhs,
                  clang::SourceLocation loc) {
    lhs = lhs->IgnoreParenImpCasts();
    if (const auto* member = llvm::dyn_cast<clang::MemberExpr>(lhs)) {
      if (const auto* field =
              llvm::dyn_cast<clang::FieldDecl>(member->getMemberDecl())) {
        CheckValueFlow(field, rhs, loc,
                       "stored into member '" + field->getNameAsString() +
                           "'");
      }
      return;
    }
    if (const auto* ref = llvm::dyn_cast<clang::DeclRefExpr>(lhs)) {
      const auto* var = llvm::dyn_cast<clang::VarDecl>(ref->getDecl());
      if (var != nullptr && var->hasGlobalStorage()) {
        CheckValueFlow(nullptr, rhs, loc, "stored into a static");
      }
    }
  }

  /// Borrowed-batch flow check for a value reaching member or static
  /// storage. \p field null means static storage.
  void CheckValueFlow(const clang::FieldDecl* field, clang::Expr* rhs,
                      clang::SourceLocation loc, const std::string& sink) {
    if (RuleOn(kRuleBorrowedBatch)) {
      // Copying a Row or index value out of a batch is safe; the hazard is
      // address-shaped. Flag: (a) taking an address into batch storage,
      // (b) retaining a RowBatch* into a pointer/reference sink, (c) a
      // wholesale selection() copy (indices only valid for this batch).
      class BatchHazardFinder
          : public clang::RecursiveASTVisitor<BatchHazardFinder> {
       public:
        bool found = false;
        std::string batch_name;

        bool VisitUnaryOperator(clang::UnaryOperator* op) {
          if (op->getOpcode() != clang::UO_AddrOf) return true;
          BatchCaptureFinder inner;
          inner.TraverseStmt(op->getSubExpr());
          if (inner.found()) {
            found = true;
            batch_name = inner.batch_name();
          }
          return !found;
        }
        bool VisitCXXMemberCallExpr(clang::CXXMemberCallExpr* c) {
          const clang::CXXMethodDecl* m = c->getMethodDecl();
          if (m != nullptr && m->getName() == "selection" &&
              m->getParent() != nullptr &&
              m->getParent()->getName() == "RowBatch") {
            found = true;
            BatchCaptureFinder inner;
            inner.TraverseStmt(c->getImplicitObjectArgument());
            if (inner.found()) batch_name = inner.batch_name();
          }
          return !found;
        }
      } hazard;
      hazard.TraverseStmt(rhs);
      if (!hazard.found) {
        // (b): a bare RowBatch* flowing into a pointer/reference sink.
        clang::QualType sink_type =
            field != nullptr ? field->getType() : clang::QualType();
        bool pointerish =
            !sink_type.isNull() &&
            (sink_type->isPointerType() || sink_type->isReferenceType());
        if (field == nullptr || pointerish) {
          const auto* ref = llvm::dyn_cast<clang::DeclRefExpr>(
              rhs->IgnoreParenImpCasts());
          const auto* var =
              ref != nullptr
                  ? llvm::dyn_cast<clang::VarDecl>(ref->getDecl())
                  : nullptr;
          if (var != nullptr && var->getType()->isPointerType() &&
              RecordName(var->getType()->getPointeeType()) == "RowBatch") {
            hazard.found = true;
            hazard.batch_name = var->getNameAsString();
          }
        }
      }
      if (hazard.found) {
        Diag(kRuleBorrowedBatch, loc,
             "borrowed RowBatch state from '" + hazard.batch_name + "' " +
                 sink +
                 "; batch storage and selection are only valid until the "
                 "producing operator's next NextBatch call");
      }
    }
  }

  Context* ctx_;
  clang::ASTContext* ast_;
};

class Consumer : public clang::ASTConsumer {
 public:
  explicit Consumer(Context* ctx) : ctx_(ctx) {}
  void HandleTranslationUnit(clang::ASTContext& ast) override {
    Visitor visitor(ctx_, &ast);
    visitor.TraverseDecl(ast.getTranslationUnitDecl());
  }

 private:
  Context* ctx_;
};

class Action : public clang::ASTFrontendAction {
 public:
  explicit Action(Context* ctx) : ctx_(ctx) {}
  std::unique_ptr<clang::ASTConsumer> CreateASTConsumer(
      clang::CompilerInstance&, llvm::StringRef) override {
    return std::make_unique<Consumer>(ctx_);
  }

 private:
  Context* ctx_;
};

class Factory : public clang::tooling::FrontendActionFactory {
 public:
  explicit Factory(Context* ctx) : ctx_(ctx) {}
  std::unique_ptr<clang::FrontendAction> create() override {
    return std::make_unique<Action>(ctx_);
  }

 private:
  Context* ctx_;
};

}  // namespace

bool ClangEngineAvailable() { return true; }

bool RunClangEngine(const std::vector<std::string>& files,
                    const std::string& build_path,
                    const std::set<std::string>& rules,
                    std::vector<Diagnostic>* out, std::string* error) {
  std::unique_ptr<clang::tooling::CompilationDatabase> db;
  if (!build_path.empty()) {
    std::string load_error;
    db = clang::tooling::CompilationDatabase::loadFromDirectory(build_path,
                                                                load_error);
    if (db == nullptr) {
      *error = "cannot load compilation database from " + build_path +
               ": " + load_error;
      return false;
    }
  } else {
    db = std::make_unique<clang::tooling::FixedCompilationDatabase>(
        ".", std::vector<std::string>{"-std=c++20", "-Isrc"});
  }

  clang::tooling::ClangTool tool(*db, files);
  tool.appendArgumentsAdjuster(clang::tooling::getInsertArgumentAdjuster(
      "-Wno-everything", clang::tooling::ArgumentInsertPosition::END));

  Context ctx;
  ctx.rules = &rules;
  ctx.out = out;
  llvm::SmallString<256> cwd;
  if (!llvm::sys::fs::current_path(cwd)) ctx.cwd = std::string(cwd.str());

  Factory factory(&ctx);
  if (tool.run(&factory) != 0) {
    *error = "clang tooling reported errors (see output above)";
    return false;
  }
  return true;
}

}  // namespace rdfrel_lint
