#ifndef RDFREL_SQL_EXPRESSION_H_
#define RDFREL_SQL_EXPRESSION_H_

/// \file expression.h
/// Name resolution (Scope) and bound, executable expression trees with SQL
/// three-valued logic.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sql/ast.h"
#include "sql/row.h"
#include "sql/row_batch.h"
#include "util/status.h"

namespace rdfrel::sql {

/// The column namespace of a row flowing through the executor: an ordered
/// list of (qualifier, column-name) pairs, both lower-cased. Qualifiers are
/// table aliases; the same qualifier appears once per column of its table.
class Scope {
 public:
  Scope() = default;

  /// Appends a column; returns its slot.
  int Add(std::string qualifier, std::string name);

  /// Appends every column of \p other (used when concatenating join sides).
  void Append(const Scope& other);

  /// Resolves [qualifier.]name to a slot. Errors: NotFound, or
  /// InvalidArgument("ambiguous") when an unqualified name matches several
  /// columns.
  Result<int> Resolve(std::string_view qualifier, std::string_view name) const;

  size_t size() const { return cols_.size(); }
  const std::pair<std::string, std::string>& column(size_t i) const {
    return cols_[i];
  }

  /// Output column names (unqualified), for QueryResult headers.
  std::vector<std::string> Names() const;

  std::string ToString() const;

 private:
  std::vector<std::pair<std::string, std::string>> cols_;
};

/// A bound (slot-resolved) expression ready for evaluation.
class BoundExpr {
 public:
  virtual ~BoundExpr() = default;
  /// Evaluates against one row (which must match the Scope this expression
  /// was bound under).
  virtual Result<Value> Evaluate(const Row& row) const = 0;

  /// Evaluates against every *active* row of \p batch, appending one value
  /// per active row to \p out (cleared first). The default loops Evaluate;
  /// hot node kinds (slot refs, literals, binary arithmetic/comparison)
  /// override it to cut per-tuple virtual dispatch.
  virtual Status EvaluateBatch(const RowBatch& batch,
                               std::vector<Value>* out) const;

  /// Predicate fast path: when this expression can compute the passing
  /// *physical* indices of \p batch directly (comparison of a slot against
  /// a literal — the common filter shape after conjunct splitting), fills
  /// \p passing and returns true. Returns false when unsupported, in which
  /// case the caller materializes values via EvaluateBatch instead.
  virtual Result<bool> FilterBatch(const RowBatch& batch,
                                   std::vector<uint32_t>* passing) const {
    (void)batch;
    (void)passing;
    return false;
  }

  /// If this expression is a bare slot reference, its slot; -1 otherwise.
  /// Lets operators copy column values straight out of input rows without
  /// an intermediate evaluated column.
  virtual int AsSlot() const { return -1; }

  /// If this expression is a literal, the constant; nullptr otherwise.
  virtual const Value* AsLiteral() const { return nullptr; }

  /// Appends every input slot this expression reads to \p out (duplicates
  /// allowed). The operator verifier uses this to bounds-check expressions
  /// against their operator's input scope.
  virtual void CollectSlots(std::vector<int>* out) const { (void)out; }
};

using BoundExprPtr = std::unique_ptr<BoundExpr>;

/// Binds \p expr against \p scope, resolving all column references.
Result<BoundExprPtr> BindExpr(const ast::Expr& expr, const Scope& scope);

/// The value of a column-free expression (a literal, -5, 1 + 2);
/// InvalidArgument when \p expr reads a column.
Result<Value> ConstantValue(const ast::Expr& expr);

/// A bound expression reading row slot \p slot directly (planner helper for
/// the projection over aggregate output).
BoundExprPtr MakeSlotRef(int slot);

/// SQL truthiness: NULL -> nullopt, numeric -> (v != 0).
std::optional<bool> ValueTruth(const Value& v);

/// Convenience: evaluates a bound predicate and applies WHERE semantics
/// (NULL counts as false).
Result<bool> EvalPredicate(const BoundExpr& expr, const Row& row);

/// Batched EvalPredicate: appends to \p passing (cleared first) the
/// *physical* index of every active row of \p batch on which the predicate
/// is true. The result is a valid selection vector for the batch.
Status EvalPredicateBatch(const BoundExpr& expr, const RowBatch& batch,
                          std::vector<uint32_t>* passing);

/// Collects the AND-conjuncts of an (unbound) expression tree.
void CollectConjuncts(const ast::Expr& expr,
                      std::vector<const ast::Expr*>* out);

/// True if every column reference in \p expr resolves in \p scope.
bool ExprCoveredByScope(const ast::Expr& expr, const Scope& scope);

}  // namespace rdfrel::sql

#endif  // RDFREL_SQL_EXPRESSION_H_
