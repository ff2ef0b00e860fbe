#include "sql/expression.h"

#include <unordered_set>

#include "util/string_util.h"

namespace rdfrel::sql {

// ------------------------------------------------------------------- Scope

int Scope::Add(std::string qualifier, std::string name) {
  cols_.emplace_back(ToLowerAscii(qualifier), ToLowerAscii(name));
  return static_cast<int>(cols_.size() - 1);
}

void Scope::Append(const Scope& other) {
  cols_.insert(cols_.end(), other.cols_.begin(), other.cols_.end());
}

Result<int> Scope::Resolve(std::string_view qualifier,
                           std::string_view name) const {
  std::string q = ToLowerAscii(qualifier);
  std::string n = ToLowerAscii(name);
  int found = -1;
  for (size_t i = 0; i < cols_.size(); ++i) {
    if (cols_[i].second != n) continue;
    if (!q.empty() && cols_[i].first != q) continue;
    if (found >= 0) {
      return Status::InvalidArgument("ambiguous column reference " +
                                     (q.empty() ? n : q + "." + n));
    }
    found = static_cast<int>(i);
  }
  if (found < 0) {
    return Status::NotFound("column " + (q.empty() ? n : q + "." + n) +
                            " not in scope {" + ToString() + "}");
  }
  return found;
}

std::vector<std::string> Scope::Names() const {
  std::vector<std::string> names;
  names.reserve(cols_.size());
  for (const auto& [q, n] : cols_) names.push_back(n);
  return names;
}

std::string Scope::ToString() const {
  std::string out;
  for (size_t i = 0; i < cols_.size(); ++i) {
    if (i) out += ", ";
    if (!cols_[i].first.empty()) out += cols_[i].first + ".";
    out += cols_[i].second;
  }
  return out;
}

// -------------------------------------------------------------- Bound exprs

std::optional<bool> ValueTruth(const Value& v) {
  if (v.is_null()) return std::nullopt;
  return v.NumericValue() != 0.0;
}

Status BoundExpr::EvaluateBatch(const RowBatch& batch,
                                std::vector<Value>* out) const {
  out->clear();
  size_t n = batch.ActiveSize();
  out->reserve(n);
  for (size_t i = 0; i < n; ++i) {
    RDFREL_ASSIGN_OR_RETURN(Value v, Evaluate(batch.Active(i)));
    out->push_back(std::move(v));
  }
  return Status::OK();
}

namespace {

class LiteralExpr final : public BoundExpr {
 public:
  explicit LiteralExpr(Value v) : value_(std::move(v)) {}
  Result<Value> Evaluate(const Row&) const override { return value_; }
  Status EvaluateBatch(const RowBatch& batch,
                       std::vector<Value>* out) const override {
    out->assign(batch.ActiveSize(), value_);
    return Status::OK();
  }
  const Value* AsLiteral() const override { return &value_; }

 private:
  Value value_;
};

class SlotExpr final : public BoundExpr {
 public:
  explicit SlotExpr(int slot) : slot_(slot) {}
  Result<Value> Evaluate(const Row& row) const override {
    if (static_cast<size_t>(slot_) >= row.size()) {
      return Status::Internal("slot out of range");
    }
    return row[static_cast<size_t>(slot_)];
  }
  Status EvaluateBatch(const RowBatch& batch,
                       std::vector<Value>* out) const override {
    out->clear();
    size_t n = batch.ActiveSize();
    out->reserve(n);
    for (size_t i = 0; i < n; ++i) {
      const Row& row = batch.Active(i);
      if (static_cast<size_t>(slot_) >= row.size()) {
        return Status::Internal("slot out of range");
      }
      out->push_back(row[static_cast<size_t>(slot_)]);
    }
    return Status::OK();
  }
  int AsSlot() const override { return slot_; }
  void CollectSlots(std::vector<int>* out) const override {
    out->push_back(slot_);
  }

 private:
  int slot_;
};

class BinaryExpr final : public BoundExpr {
 public:
  BinaryExpr(ast::BinaryOp op, BoundExprPtr lhs, BoundExprPtr rhs)
      : op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

  Result<Value> Evaluate(const Row& row) const override {
    using ast::BinaryOp;
    // AND/OR get Kleene shortcuts.
    if (op_ == BinaryOp::kAnd || op_ == BinaryOp::kOr) {
      RDFREL_ASSIGN_OR_RETURN(Value lv, lhs_->Evaluate(row));
      const std::optional<bool> lt = ValueTruth(lv);
      if (op_ == BinaryOp::kAnd && lt.has_value() && !*lt) {
        return Value::Bool(false);
      }
      if (op_ == BinaryOp::kOr && lt.has_value() && *lt) {
        return Value::Bool(true);
      }
      RDFREL_ASSIGN_OR_RETURN(Value rv, rhs_->Evaluate(row));
      const std::optional<bool> rt = ValueTruth(rv);
      if (op_ == BinaryOp::kAnd) {
        if (rt.has_value() && !*rt) return Value::Bool(false);
        if (lt.has_value() && rt.has_value()) return Value::Bool(true);
        return Value::Null();
      }
      if (rt.has_value() && *rt) return Value::Bool(true);
      if (lt.has_value() && rt.has_value()) return Value::Bool(false);
      return Value::Null();
    }

    RDFREL_ASSIGN_OR_RETURN(Value lv, lhs_->Evaluate(row));
    RDFREL_ASSIGN_OR_RETURN(Value rv, rhs_->Evaluate(row));
    return Apply(lv, rv);
  }

  /// Vectorized for everything but AND/OR: children evaluate over the whole
  /// batch, then the operator combines the flat value vectors. AND/OR keep
  /// the per-row default so the Kleene shortcut (right side unevaluated when
  /// the left decides) behaves identically to per-row Evaluate.
  Status EvaluateBatch(const RowBatch& batch,
                       std::vector<Value>* out) const override {
    using ast::BinaryOp;
    if (op_ == BinaryOp::kAnd || op_ == BinaryOp::kOr) {
      return BoundExpr::EvaluateBatch(batch, out);
    }
    std::vector<Value> lvals, rvals;
    RDFREL_RETURN_NOT_OK(lhs_->EvaluateBatch(batch, &lvals));
    RDFREL_RETURN_NOT_OK(rhs_->EvaluateBatch(batch, &rvals));
    out->clear();
    out->reserve(lvals.size());
    for (size_t i = 0; i < lvals.size(); ++i) {
      RDFREL_ASSIGN_OR_RETURN(Value v, Apply(lvals[i], rvals[i]));
      out->push_back(std::move(v));
    }
    return Status::OK();
  }

  /// slot-vs-literal comparisons select directly against the stored rows:
  /// no operand columns, no boolean Values, no per-row virtual dispatch.
  /// Semantics mirror Apply exactly (NULL never passes).
  Result<bool> FilterBatch(const RowBatch& batch,
                           std::vector<uint32_t>* passing) const override {
    using ast::BinaryOp;
    switch (op_) {
      case BinaryOp::kEq:
      case BinaryOp::kNe:
      case BinaryOp::kLt:
      case BinaryOp::kLe:
      case BinaryOp::kGt:
      case BinaryOp::kGe:
        break;
      default:
        return false;
    }
    int slot = lhs_->AsSlot();
    const Value* lit = rhs_->AsLiteral();
    bool flipped = false;  // literal on the left, slot on the right
    if (slot < 0 || lit == nullptr) {
      slot = rhs_->AsSlot();
      lit = lhs_->AsLiteral();
      flipped = true;
    }
    if (slot < 0 || lit == nullptr) return false;
    passing->clear();
    const size_t n = batch.ActiveSize();
    if (lit->is_null()) return true;  // NULL comparand: nothing passes
    // Decode the literal once; comparisons inline (Compare is symmetric for
    // same-kind non-null operands, so a flipped comparison just negates).
    const bool lit_is_int = lit->is_int();
    const int64_t lit_i = lit_is_int ? lit->AsInt() : 0;
    const double lit_d = lit->NumericValue();
    for (size_t i = 0; i < n; ++i) {
      const Row& row = batch.Active(i);
      if (static_cast<size_t>(slot) >= row.size()) {
        return Status::Internal("slot out of range");
      }
      const Value& v = row[static_cast<size_t>(slot)];
      if (v.is_null()) continue;
      bool pass;
      if (op_ == BinaryOp::kEq) {
        pass = v.EqualsNonNull(*lit);
      } else if (op_ == BinaryOp::kNe) {
        pass = !v.EqualsNonNull(*lit);
      } else {
        int c;
        if (lit_is_int && v.is_int()) {
          const int64_t a = v.AsInt();
          c = a < lit_i ? -1 : (a > lit_i ? 1 : 0);
        } else {
          const double a = v.NumericValue();
          c = a < lit_d ? -1 : (a > lit_d ? 1 : 0);
        }
        if (flipped) c = -c;
        switch (op_) {
          case BinaryOp::kLt: pass = c < 0; break;
          case BinaryOp::kLe: pass = c <= 0; break;
          case BinaryOp::kGt: pass = c > 0; break;
          default: pass = c >= 0; break;
        }
      }
      if (pass) passing->push_back(batch.ActiveIndex(i));
    }
    return true;
  }

  void CollectSlots(std::vector<int>* out) const override {
    lhs_->CollectSlots(out);
    rhs_->CollectSlots(out);
  }

 private:
  /// The non-logical operators over two already-computed operand values.
  Result<Value> Apply(const Value& lv, const Value& rv) const {
    using ast::BinaryOp;
    if (lv.is_null() || rv.is_null()) return Value::Null();

    switch (op_) {
      case BinaryOp::kEq:
        return Value::Bool(lv.EqualsNonNull(rv));
      case BinaryOp::kNe:
        return Value::Bool(!lv.EqualsNonNull(rv));
      case BinaryOp::kLt:
      case BinaryOp::kLe:
      case BinaryOp::kGt:
      case BinaryOp::kGe: {
        int c = lv.Compare(rv);
        switch (op_) {
          case BinaryOp::kLt: return Value::Bool(c < 0);
          case BinaryOp::kLe: return Value::Bool(c <= 0);
          case BinaryOp::kGt: return Value::Bool(c > 0);
          default: return Value::Bool(c >= 0);
        }
      }
      case BinaryOp::kAdd:
      case BinaryOp::kSub:
      case BinaryOp::kMul:
      case BinaryOp::kDiv: {
        if (lv.is_int() && rv.is_int() && op_ != BinaryOp::kDiv) {
          int64_t a = lv.AsInt(), b = rv.AsInt();
          switch (op_) {
            case BinaryOp::kAdd: return Value::Int(a + b);
            case BinaryOp::kSub: return Value::Int(a - b);
            default: return Value::Int(a * b);
          }
        }
        double a = lv.NumericValue(), b = rv.NumericValue();
        switch (op_) {
          case BinaryOp::kAdd: return Value::Real(a + b);
          case BinaryOp::kSub: return Value::Real(a - b);
          case BinaryOp::kMul: return Value::Real(a * b);
          default:
            if (b == 0.0) return Status::ExecutionError("division by zero");
            return Value::Real(a / b);
        }
      }
      default:
        return Status::Internal("unhandled binary op");
    }
  }

  ast::BinaryOp op_;
  BoundExprPtr lhs_;
  BoundExprPtr rhs_;
};

class NotExpr final : public BoundExpr {
 public:
  explicit NotExpr(BoundExprPtr child) : child_(std::move(child)) {}
  Result<Value> Evaluate(const Row& row) const override {
    RDFREL_ASSIGN_OR_RETURN(Value v, child_->Evaluate(row));
    const std::optional<bool> t = ValueTruth(v);
    if (!t.has_value()) return Value::Null();
    return Value::Bool(!*t);
  }
  void CollectSlots(std::vector<int>* out) const override {
    child_->CollectSlots(out);
  }

 private:
  BoundExprPtr child_;
};

class NegExpr final : public BoundExpr {
 public:
  explicit NegExpr(BoundExprPtr child) : child_(std::move(child)) {}
  Result<Value> Evaluate(const Row& row) const override {
    RDFREL_ASSIGN_OR_RETURN(Value v, child_->Evaluate(row));
    if (v.is_null()) return Value::Null();
    if (v.is_int()) return Value::Int(-v.AsInt());
    return Value::Real(-v.AsDouble());
  }
  void CollectSlots(std::vector<int>* out) const override {
    child_->CollectSlots(out);
  }

 private:
  BoundExprPtr child_;
};

class IsNullExpr final : public BoundExpr {
 public:
  IsNullExpr(BoundExprPtr child, bool negated)
      : child_(std::move(child)), negated_(negated) {}
  Result<Value> Evaluate(const Row& row) const override {
    RDFREL_ASSIGN_OR_RETURN(Value v, child_->Evaluate(row));
    bool is_null = v.is_null();
    return Value::Bool(negated_ ? !is_null : is_null);
  }
  void CollectSlots(std::vector<int>* out) const override {
    child_->CollectSlots(out);
  }

 private:
  BoundExprPtr child_;
  bool negated_;
};

class CaseExpr final : public BoundExpr {
 public:
  CaseExpr(std::vector<std::pair<BoundExprPtr, BoundExprPtr>> branches,
           BoundExprPtr else_expr)
      : branches_(std::move(branches)), else_(std::move(else_expr)) {}
  Result<Value> Evaluate(const Row& row) const override {
    for (const auto& [when, then] : branches_) {
      RDFREL_ASSIGN_OR_RETURN(bool taken, EvalPredicate(*when, row));
      if (taken) return then->Evaluate(row);
    }
    if (else_) return else_->Evaluate(row);
    return Value::Null();
  }
  void CollectSlots(std::vector<int>* out) const override {
    for (const auto& [when, then] : branches_) {
      when->CollectSlots(out);
      then->CollectSlots(out);
    }
    if (else_) else_->CollectSlots(out);
  }

 private:
  std::vector<std::pair<BoundExprPtr, BoundExprPtr>> branches_;
  BoundExprPtr else_;
};

class CoalesceExpr final : public BoundExpr {
 public:
  explicit CoalesceExpr(std::vector<BoundExprPtr> args)
      : args_(std::move(args)) {}
  Result<Value> Evaluate(const Row& row) const override {
    for (const auto& a : args_) {
      RDFREL_ASSIGN_OR_RETURN(Value v, a->Evaluate(row));
      if (!v.is_null()) return v;
    }
    return Value::Null();
  }
  void CollectSlots(std::vector<int>* out) const override {
    for (const auto& a : args_) a->CollectSlots(out);
  }

 private:
  std::vector<BoundExprPtr> args_;
};

/// `(e1, ..., ek) IN (constant rows)`: membership in a hash set of the
/// rows, under SQL's three-valued logic. TRUE when the operands equal a
/// row; otherwise NULL when a row equals them wherever both sides are
/// non-NULL and a NULL sits on either side, else FALSE.
class InListExpr final : public BoundExpr {
 public:
  InListExpr(std::vector<BoundExprPtr> operands,
             std::vector<std::vector<Value>> rows)
      : operands_(std::move(operands)) {
    for (auto& r : rows) {
      bool has_null = false;
      for (const Value& v : r) has_null = has_null || v.is_null();
      if (has_null) {
        null_rows_.push_back(std::move(r));
      } else {
        rows_.insert(std::move(r));
      }
    }
  }

  Result<Value> Evaluate(const Row& row) const override {
    std::vector<Value> probe;
    probe.reserve(operands_.size());
    for (const auto& e : operands_) {
      RDFREL_ASSIGN_OR_RETURN(Value v, e->Evaluate(row));
      probe.push_back(std::move(v));
    }
    bool has_null = false;
    for (const Value& v : probe) has_null = has_null || v.is_null();
    if (!has_null && rows_.count(probe) > 0) return Value::Bool(true);
    auto maybe = [&](const std::vector<Value>& r) {
      for (size_t i = 0; i < r.size(); ++i) {
        if (!probe[i].is_null() && !r[i].is_null() &&
            !probe[i].EqualsNonNull(r[i])) {
          return false;
        }
      }
      return true;
    };
    if (has_null) {
      for (const auto& r : rows_) {
        if (maybe(r)) return Value::Null();
      }
    }
    for (const auto& r : null_rows_) {
      if (maybe(r)) return Value::Null();
    }
    return Value::Bool(false);
  }

  /// Only TRUE passes, so a row passes iff its operands hold no NULL and
  /// hit the set. Slot operands are read in place; others evaluate once
  /// per batch.
  Result<bool> FilterBatch(const RowBatch& batch,
                           std::vector<uint32_t>* passing) const override {
    const size_t k = operands_.size();
    std::vector<int> slots(k);
    std::vector<std::vector<Value>> cols(k);
    for (size_t j = 0; j < k; ++j) {
      slots[j] = operands_[j]->AsSlot();
      if (slots[j] < 0) {
        RDFREL_RETURN_NOT_OK(operands_[j]->EvaluateBatch(batch, &cols[j]));
      }
    }
    passing->clear();
    std::vector<Value> probe(k);
    for (size_t i = 0; i < batch.ActiveSize(); ++i) {
      const Row& row = batch.Active(i);
      bool has_null = false;
      for (size_t j = 0; j < k && !has_null; ++j) {
        if (slots[j] >= 0 && static_cast<size_t>(slots[j]) >= row.size()) {
          return Status::Internal("slot out of range");
        }
        const Value& v = slots[j] >= 0 ? row[static_cast<size_t>(slots[j])]
                                       : cols[j][i];
        has_null = v.is_null();
        probe[j] = v;
      }
      if (!has_null && rows_.count(probe) > 0) {
        passing->push_back(batch.ActiveIndex(i));
      }
    }
    return true;
  }

  void CollectSlots(std::vector<int>* out) const override {
    for (const auto& e : operands_) e->CollectSlots(out);
  }

 private:
  /// SQL equality of NULL-free rows (int k equals double k).
  struct RowEq {
    bool operator()(const std::vector<Value>& a,
                    const std::vector<Value>& b) const {
      for (size_t i = 0; i < a.size(); ++i) {
        if (!a[i].EqualsNonNull(b[i])) return false;
      }
      return true;
    }
  };

  std::vector<BoundExprPtr> operands_;
  std::unordered_set<std::vector<Value>, ValueVectorHasher, RowEq> rows_;
  std::vector<std::vector<Value>> null_rows_;  ///< rows holding a NULL
};

}  // namespace

Result<Value> ConstantValue(const ast::Expr& expr) {
  auto bound = BindExpr(expr, Scope());
  if (!bound.ok()) {
    return Status::InvalidArgument(expr.ToString() + " is not a constant");
  }
  return (*bound)->Evaluate(Row());
}

Result<BoundExprPtr> BindExpr(const ast::Expr& expr, const Scope& scope) {
  using ast::ExprKind;
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return BoundExprPtr(new LiteralExpr(expr.literal));
    case ExprKind::kColumnRef: {
      RDFREL_ASSIGN_OR_RETURN(int slot,
                              scope.Resolve(expr.qualifier, expr.column));
      return BoundExprPtr(new SlotExpr(slot));
    }
    case ExprKind::kBinary: {
      RDFREL_ASSIGN_OR_RETURN(BoundExprPtr lhs, BindExpr(*expr.lhs, scope));
      RDFREL_ASSIGN_OR_RETURN(BoundExprPtr rhs, BindExpr(*expr.rhs, scope));
      return BoundExprPtr(
          new BinaryExpr(expr.op, std::move(lhs), std::move(rhs)));
    }
    case ExprKind::kNot: {
      RDFREL_ASSIGN_OR_RETURN(BoundExprPtr child,
                              BindExpr(*expr.child, scope));
      return BoundExprPtr(new NotExpr(std::move(child)));
    }
    case ExprKind::kNeg: {
      RDFREL_ASSIGN_OR_RETURN(BoundExprPtr child,
                              BindExpr(*expr.child, scope));
      return BoundExprPtr(new NegExpr(std::move(child)));
    }
    case ExprKind::kIsNull: {
      RDFREL_ASSIGN_OR_RETURN(BoundExprPtr child,
                              BindExpr(*expr.child, scope));
      return BoundExprPtr(new IsNullExpr(std::move(child), expr.negated));
    }
    case ExprKind::kCase: {
      std::vector<std::pair<BoundExprPtr, BoundExprPtr>> branches;
      for (const auto& b : expr.branches) {
        RDFREL_ASSIGN_OR_RETURN(BoundExprPtr w, BindExpr(*b.when, scope));
        RDFREL_ASSIGN_OR_RETURN(BoundExprPtr t, BindExpr(*b.then, scope));
        branches.emplace_back(std::move(w), std::move(t));
      }
      BoundExprPtr else_expr;
      if (expr.else_expr) {
        RDFREL_ASSIGN_OR_RETURN(else_expr, BindExpr(*expr.else_expr, scope));
      }
      return BoundExprPtr(
          new CaseExpr(std::move(branches), std::move(else_expr)));
    }
    case ExprKind::kCoalesce: {
      std::vector<BoundExprPtr> args;
      for (const auto& a : expr.args) {
        RDFREL_ASSIGN_OR_RETURN(BoundExprPtr ba, BindExpr(*a, scope));
        args.push_back(std::move(ba));
      }
      return BoundExprPtr(new CoalesceExpr(std::move(args)));
    }
    case ExprKind::kIn: {
      std::vector<BoundExprPtr> operands;
      for (const auto& a : expr.args) {
        RDFREL_ASSIGN_OR_RETURN(BoundExprPtr ba, BindExpr(*a, scope));
        operands.push_back(std::move(ba));
      }
      std::vector<std::vector<Value>> rows;
      for (const auto& r : expr.in_rows) {
        if (r.size() != operands.size()) {
          return Status::InvalidArgument("IN row arity differs from " +
                                         expr.ToString());
        }
        std::vector<Value> values;
        for (const auto& e : r) {
          RDFREL_ASSIGN_OR_RETURN(Value v, ConstantValue(*e));
          values.push_back(std::move(v));
        }
        rows.push_back(std::move(values));
      }
      return BoundExprPtr(new InListExpr(std::move(operands), std::move(rows)));
    }
  }
  return Status::Internal("unhandled expression kind");
}

BoundExprPtr MakeSlotRef(int slot) {
  return std::make_unique<SlotExpr>(slot);
}

Result<bool> EvalPredicate(const BoundExpr& expr, const Row& row) {
  RDFREL_ASSIGN_OR_RETURN(Value v, expr.Evaluate(row));
  const std::optional<bool> t = ValueTruth(v);
  return t.has_value() && *t;
}

Status EvalPredicateBatch(const BoundExpr& expr, const RowBatch& batch,
                          std::vector<uint32_t>* passing) {
  RDFREL_ASSIGN_OR_RETURN(bool handled, expr.FilterBatch(batch, passing));
  if (handled) return Status::OK();
  std::vector<Value> values;
  RDFREL_RETURN_NOT_OK(expr.EvaluateBatch(batch, &values));
  passing->clear();
  for (size_t i = 0; i < values.size(); ++i) {
    const std::optional<bool> t = ValueTruth(values[i]);
    if (t.has_value() && *t) passing->push_back(batch.ActiveIndex(i));
  }
  return Status::OK();
}

void CollectConjuncts(const ast::Expr& expr,
                      std::vector<const ast::Expr*>* out) {
  if (expr.kind == ast::ExprKind::kBinary &&
      expr.op == ast::BinaryOp::kAnd) {
    CollectConjuncts(*expr.lhs, out);
    CollectConjuncts(*expr.rhs, out);
    return;
  }
  out->push_back(&expr);
}

bool ExprCoveredByScope(const ast::Expr& expr, const Scope& scope) {
  using ast::ExprKind;
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return true;
    case ExprKind::kColumnRef:
      return scope.Resolve(expr.qualifier, expr.column).ok();
    case ExprKind::kBinary:
      return ExprCoveredByScope(*expr.lhs, scope) &&
             ExprCoveredByScope(*expr.rhs, scope);
    case ExprKind::kNot:
    case ExprKind::kNeg:
    case ExprKind::kIsNull:
      return ExprCoveredByScope(*expr.child, scope);
    case ExprKind::kCase: {
      for (const auto& b : expr.branches) {
        if (!ExprCoveredByScope(*b.when, scope)) return false;
        if (!ExprCoveredByScope(*b.then, scope)) return false;
      }
      if (expr.else_expr && !ExprCoveredByScope(*expr.else_expr, scope)) {
        return false;
      }
      return true;
    }
    case ExprKind::kCoalesce:
      for (const auto& a : expr.args) {
        if (!ExprCoveredByScope(*a, scope)) return false;
      }
      return true;
    case ExprKind::kIn:
      for (const auto& a : expr.args) {
        if (!ExprCoveredByScope(*a, scope)) return false;
      }
      for (const auto& r : expr.in_rows) {
        for (const auto& e : r) {
          if (!ExprCoveredByScope(*e, scope)) return false;
        }
      }
      return true;
  }
  return false;
}

}  // namespace rdfrel::sql
