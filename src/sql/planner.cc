#include "sql/planner.h"

#include "sql/operator_verifier.h"
#include "util/string_util.h"
#include "util/verify.h"

namespace rdfrel::sql {

namespace {

using ast::Expr;
using ast::ExprKind;
using ast::FromItem;
using ast::FromKind;
using ast::JoinType;
using ast::SelectCore;
using ast::SelectStmt;

/// Is this expression a constant literal?
const Value* AsLiteral(const Expr& e) {
  return e.kind == ExprKind::kLiteral ? &e.literal : nullptr;
}

/// A WHERE conjunct with its consumption state.
struct Conjunct {
  const Expr* expr;
  bool consumed = false;
};

/// A FROM entry not yet folded into the plan: for base tables we defer
/// operator construction so joins can choose to index-probe them.
struct PendingSource {
  // Base table (kind == kTable resolving to catalog).
  const Table* table = nullptr;
  // Materialized (CTE or derived table).
  std::shared_ptr<const Materialized> mat;
  std::string alias;
  Scope scope;

  bool is_base_table() const { return table != nullptr; }
};

class CorePlanner {
 public:
  CorePlanner(const Catalog& catalog, CteEnv* env, const ExecControl* control)
      : catalog_(catalog), env_(env), control_(control) {}

  /// Plans one core. When \p order_by is non-null the sort is planted inside
  /// this core (below the final projection trim), so sort keys may reference
  /// either output aliases or underlying FROM columns — matching standard
  /// SQL ORDER BY scoping for a non-UNION query.
  Result<OperatorPtr> PlanCore(const SelectCore& core,
                               const std::vector<ast::OrderItem>* order_by) {
    RDFREL_ASSIGN_OR_RETURN(OperatorPtr current, PlanJoinTree(core));
    return FinishCore(core, std::move(current), order_by);
  }

  /// Plans the FROM/WHERE join pipeline of a core — everything below the
  /// aggregate/projection tail.
  Result<OperatorPtr> PlanJoinTree(const SelectCore& core) {
    // Gather WHERE conjuncts for comma-join processing.
    std::vector<Conjunct> conjuncts;
    if (core.where) {
      std::vector<const Expr*> list;
      CollectConjuncts(*core.where, &list);
      for (const Expr* e : list) conjuncts.push_back({e, false});
    }

    OperatorPtr current;        // built plan so far (may be null)
    PendingSource pending;      // deferred first base table
    bool have_pending = false;

    for (size_t i = 0; i < core.from.size(); ++i) {
      const FromItem& item = core.from[i];
      if (item.kind == FromKind::kUnnest) {
        RDFREL_RETURN_NOT_OK(
            FlushPending(&current, &pending, &have_pending, &conjuncts));
        if (!current) {
          return Status::InvalidArgument("UNNEST cannot be first in FROM");
        }
        std::vector<BoundExprPtr> args;
        for (const auto& a : item.unnest_args) {
          RDFREL_ASSIGN_OR_RETURN(BoundExprPtr b,
                                  BindExpr(*a, current->scope()));
          args.push_back(std::move(b));
        }
        current = std::make_unique<UnnestOp>(std::move(current),
                                             std::move(args), item.alias,
                                             item.unnest_column);
        RDFREL_RETURN_NOT_OK(ApplyCoveredConjuncts(&current, &conjuncts));
        continue;
      }

      RDFREL_ASSIGN_OR_RETURN(PendingSource src, ResolveSource(item));

      if (!current && !have_pending) {
        // First source: defer base tables so a later join may index-probe.
        if (src.is_base_table()) {
          pending = std::move(src);
          have_pending = true;
        } else {
          current = MakeSourceOp(src);
          RDFREL_RETURN_NOT_OK(ApplyCoveredConjuncts(&current, &conjuncts));
        }
        continue;
      }

      // Determine the join inputs' scopes for predicate classification.
      const Scope& left_scope =
          have_pending ? pending.scope : current->scope();
      Scope combined = left_scope;
      combined.Append(src.scope);

      // Collect join predicates: explicit ON, or applicable WHERE conjuncts.
      std::vector<const Expr*> join_preds;
      if (item.on) {
        std::vector<const Expr*> list;
        CollectConjuncts(*item.on, &list);
        join_preds = std::move(list);
      } else {
        for (auto& c : conjuncts) {
          if (c.consumed) continue;
          if (!ExprCoveredByScope(*c.expr, combined)) continue;
          if (ExprCoveredByScope(*c.expr, left_scope)) continue;
          if (ExprCoveredByScope(*c.expr, src.scope)) continue;
          join_preds.push_back(c.expr);
          c.consumed = true;
        }
      }
      bool left_outer = item.join == JoinType::kLeftOuter;
      RDFREL_RETURN_NOT_OK(BuildJoin(&current, &pending, &have_pending,
                                     std::move(src), join_preds, left_outer,
                                     &conjuncts));
      RDFREL_RETURN_NOT_OK(ApplyCoveredConjuncts(&current, &conjuncts));
    }

    RDFREL_RETURN_NOT_OK(
        FlushPending(&current, &pending, &have_pending, &conjuncts));
    if (!current) return Status::InvalidArgument("empty FROM clause");
    RDFREL_RETURN_NOT_OK(ApplyCoveredConjuncts(&current, &conjuncts));

    for (const auto& c : conjuncts) {
      if (!c.consumed) {
        return Status::InvalidArgument("WHERE predicate references unknown "
                                       "columns: " + c.expr->ToString());
      }
    }
    return current;
  }

  /// Completes a core above its join tree: aggregate path, or projection +
  /// sort/trim/distinct.
  Result<OperatorPtr> FinishCore(const SelectCore& core, OperatorPtr current,
                                 const std::vector<ast::OrderItem>* order_by) {
    if (core.HasAggregates()) {
      return PlanAggregate(core, std::move(current), order_by);
    }
    return PlanProjection(core, std::move(current), order_by);
  }

  /// Builds the SELECT-list projection (plus hidden ORDER BY columns) over
  /// \p current, then sort + hidden-column trim + DISTINCT above it.
  Result<OperatorPtr> PlanProjection(
      const SelectCore& core, OperatorPtr current,
      const std::vector<ast::OrderItem>* order_by) {
    std::vector<BoundExprPtr> exprs;
    Scope out;
    for (const auto& it : core.items) {
      if (it.star) {
        for (size_t s = 0; s < current->scope().size(); ++s) {
          auto ref = ast::MakeColumnRef(current->scope().column(s).first,
                                        current->scope().column(s).second);
          RDFREL_ASSIGN_OR_RETURN(BoundExprPtr b,
                                  BindExpr(*ref, current->scope()));
          exprs.push_back(std::move(b));
          out.Add("", current->scope().column(s).second);
        }
        continue;
      }
      RDFREL_ASSIGN_OR_RETURN(BoundExprPtr b,
                              BindExpr(*it.expr, current->scope()));
      exprs.push_back(std::move(b));
      std::string name = it.alias;
      if (name.empty()) {
        name = it.expr->kind == ExprKind::kColumnRef ? it.expr->column
                                                     : "col" + std::to_string(
                                                           out.size() + 1);
      }
      out.Add("", name);
    }
    // ORDER BY handling: keys naming output columns sort on the projected
    // slot; anything else is computed from the pre-projection row as a
    // hidden column, sorted on, then trimmed away.
    size_t visible = exprs.size();
    std::vector<int> sort_slots;
    std::vector<bool> sort_desc;
    if (order_by != nullptr) {
      for (const auto& item : *order_by) {
        int slot = -1;
        if (item.expr->kind == ExprKind::kColumnRef &&
            item.expr->qualifier.empty()) {
          auto r = out.Resolve("", item.expr->column);
          if (r.ok()) slot = *r;
        }
        if (slot < 0) {
          RDFREL_ASSIGN_OR_RETURN(BoundExprPtr hidden,
                                  BindExpr(*item.expr, current->scope()));
          exprs.push_back(std::move(hidden));
          slot = out.Add("", "__sort" + std::to_string(sort_slots.size()));
        }
        sort_slots.push_back(slot);
        sort_desc.push_back(item.descending);
      }
    }

    current = std::make_unique<ProjectOp>(std::move(current),
                                          std::move(exprs), out);
    if (!sort_slots.empty()) {
      std::vector<BoundExprPtr> keys;
      for (int s : sort_slots) keys.push_back(MakeSlotRef(s));
      current = std::make_unique<SortOp>(std::move(current), std::move(keys),
                                         std::move(sort_desc));
    }
    if (out.size() > visible) {
      // Trim hidden sort columns.
      std::vector<BoundExprPtr> trim;
      Scope trimmed;
      for (size_t i = 0; i < visible; ++i) {
        trim.push_back(MakeSlotRef(static_cast<int>(i)));
        trimmed.Add("", out.column(i).second);
      }
      current = std::make_unique<ProjectOp>(std::move(current),
                                            std::move(trim),
                                            std::move(trimmed));
    }
    if (core.distinct) {
      current = std::make_unique<DistinctOp>(std::move(current));
    }
    return current;
  }

  /// GROUP BY / aggregate planning: AggregateOp over the joined input, then
  /// a projection restoring the SELECT-list order. Non-aggregate items must
  /// textually match a GROUP BY expression; ORDER BY may reference output
  /// aliases only.
  Result<OperatorPtr> PlanAggregate(
      const SelectCore& core, OperatorPtr input,
      const std::vector<ast::OrderItem>* order_by) {
    std::vector<BoundExprPtr> keys;
    std::vector<std::string> key_strs;
    for (const auto& g : core.group_by) {
      RDFREL_ASSIGN_OR_RETURN(BoundExprPtr k, BindExpr(*g, input->scope()));
      keys.push_back(std::move(k));
      key_strs.push_back(g->ToString());
    }

    std::vector<AggregateOp::AggSpec> aggs;
    struct OutCol {
      bool is_key;
      size_t index;
      std::string name;
    };
    std::vector<OutCol> outs;
    for (size_t n = 0; n < core.items.size(); ++n) {
      const ast::SelectItem& it = core.items[n];
      if (it.star) {
        return Status::InvalidArgument("SELECT * with aggregates");
      }
      std::string name = it.alias;
      if (name.empty()) {
        name = it.expr != nullptr && it.expr->kind == ExprKind::kColumnRef
                   ? it.expr->column
                   : "col" + std::to_string(n + 1);
      }
      if (it.agg == ast::AggFunc::kNone) {
        std::string text = it.expr->ToString();
        size_t key_idx = key_strs.size();
        for (size_t k = 0; k < key_strs.size(); ++k) {
          if (key_strs[k] == text) {
            key_idx = k;
            break;
          }
        }
        if (key_idx == key_strs.size()) {
          return Status::InvalidArgument(
              "non-aggregate item " + text + " must appear in GROUP BY");
        }
        outs.push_back({true, key_idx, name});
        continue;
      }
      AggregateOp::AggSpec spec;
      spec.func = it.agg;
      spec.distinct = it.agg_distinct;
      if (it.expr != nullptr) {
        RDFREL_ASSIGN_OR_RETURN(spec.input,
                                BindExpr(*it.expr, input->scope()));
      }
      outs.push_back({false, aggs.size(), name});
      aggs.push_back(std::move(spec));
    }

    size_t num_keys = keys.size();
    OperatorPtr current = std::make_unique<AggregateOp>(
        std::move(input), std::move(keys), std::move(aggs));

    std::vector<BoundExprPtr> exprs;
    Scope out;
    for (const auto& oc : outs) {
      exprs.push_back(MakeSlotRef(
          static_cast<int>(oc.is_key ? oc.index : num_keys + oc.index)));
      out.Add("", oc.name);
    }
    current = std::make_unique<ProjectOp>(std::move(current),
                                          std::move(exprs), out);

    if (order_by != nullptr && !order_by->empty()) {
      std::vector<BoundExprPtr> sort_keys;
      std::vector<bool> desc;
      for (const auto& item : *order_by) {
        RDFREL_ASSIGN_OR_RETURN(BoundExprPtr k, BindExpr(*item.expr, out));
        sort_keys.push_back(std::move(k));
        desc.push_back(item.descending);
      }
      current = std::make_unique<SortOp>(
          std::move(current), std::move(sort_keys), std::move(desc));
    }
    if (core.distinct) {
      current = std::make_unique<DistinctOp>(std::move(current));
    }
    return current;
  }

 private:
  /// Resolves a FROM item to a pending source (base table or materialized).
  Result<PendingSource> ResolveSource(const FromItem& item) {
    PendingSource src;
    src.alias = item.alias;
    if (item.kind == FromKind::kSubquery) {
      RDFREL_ASSIGN_OR_RETURN(OperatorPtr sub,
                              PlanSelect(catalog_, *item.subquery, env_,
                                         control_));
      RDFREL_ASSIGN_OR_RETURN(std::vector<Row> rows,
                              CollectRows(sub.get(), control_));
      auto mat = std::make_shared<Materialized>();
      mat->scope = sub->scope();
      mat->rows = std::move(rows);
      src.mat = mat;
      for (size_t i = 0; i < mat->scope.size(); ++i) {
        src.scope.Add(src.alias, mat->scope.column(i).second);
      }
      return src;
    }
    // Table name: CTE first, then catalog.
    auto cte = env_->find(ToLowerAscii(item.table_name));
    if (cte != env_->end()) {
      src.mat = cte->second;
      for (size_t i = 0; i < src.mat->scope.size(); ++i) {
        src.scope.Add(src.alias, src.mat->scope.column(i).second);
      }
      return src;
    }
    RDFREL_ASSIGN_OR_RETURN(Table * table,
                            catalog_.GetTable(item.table_name));
    src.table = table;
    for (const auto& col : table->schema().columns()) {
      src.scope.Add(src.alias, col.name);
    }
    return src;
  }

  /// Builds the cheapest standalone access path for a source, consuming any
  /// `col = constant` conjunct usable with an index.
  OperatorPtr MakeSourceOp(const PendingSource& src,
                           std::vector<Conjunct>* conjuncts = nullptr) {
    if (!src.is_base_table()) {
      return std::make_unique<MaterializedScanOp>(src.mat, src.alias);
    }
    if (conjuncts != nullptr) {
      for (auto& c : *conjuncts) {
        if (c.consumed) continue;
        const Expr* e = c.expr;
        if (e->kind != ExprKind::kBinary || e->op != ast::BinaryOp::kEq) {
          continue;
        }
        const Expr* col = nullptr;
        const Value* lit = nullptr;
        if (e->lhs->kind == ExprKind::kColumnRef && AsLiteral(*e->rhs)) {
          col = e->lhs.get();
          lit = AsLiteral(*e->rhs);
        } else if (e->rhs->kind == ExprKind::kColumnRef &&
                   AsLiteral(*e->lhs)) {
          col = e->rhs.get();
          lit = AsLiteral(*e->lhs);
        }
        if (!col) continue;
        if (!src.scope.Resolve(col->qualifier, col->column).ok()) continue;
        const IndexInfo* idx = src.table->FindIndexOn(col->column);
        if (!idx) continue;
        c.consumed = true;
        return std::make_unique<IndexScanOp>(src.table, src.alias, idx, *lit);
      }
    }
    return std::make_unique<SeqScanOp>(src.table, src.alias);
  }

  /// Materializes the deferred base table into `current` (used when no join
  /// will probe it).
  Status FlushPending(OperatorPtr* current, PendingSource* pending,
                      bool* have_pending, std::vector<Conjunct>* conjuncts) {
    if (!*have_pending) return Status::OK();
    *current = MakeSourceOp(*pending, conjuncts);
    *have_pending = false;
    RDFREL_RETURN_NOT_OK(ApplyCoveredConjuncts(current, conjuncts));
    return Status::OK();
  }

  /// Applies every unconsumed WHERE conjunct covered by the current scope.
  Status ApplyCoveredConjuncts(OperatorPtr* current,
                               std::vector<Conjunct>* conjuncts) {
    if (!*current) return Status::OK();
    for (auto& c : *conjuncts) {
      if (c.consumed) continue;
      if (!ExprCoveredByScope(*c.expr, (*current)->scope())) continue;
      RDFREL_ASSIGN_OR_RETURN(BoundExprPtr b,
                              BindExpr(*c.expr, (*current)->scope()));
      *current = std::make_unique<FilterOp>(std::move(*current),
                                            std::move(b));
      c.consumed = true;
    }
    return Status::OK();
  }

  /// Classifies one join predicate as equi (left-col = right-col across the
  /// two sides). Returns (left_expr, right_expr) or nullptrs.
  static std::pair<const Expr*, const Expr*> SplitEqui(
      const Expr& e, const Scope& left, const Scope& right) {
    if (e.kind != ExprKind::kBinary || e.op != ast::BinaryOp::kEq) {
      return {nullptr, nullptr};
    }
    bool l_in_left = ExprCoveredByScope(*e.lhs, left);
    bool l_in_right = ExprCoveredByScope(*e.lhs, right);
    bool r_in_left = ExprCoveredByScope(*e.rhs, left);
    bool r_in_right = ExprCoveredByScope(*e.rhs, right);
    if (l_in_left && !l_in_right && r_in_right && !r_in_left) {
      return {e.lhs.get(), e.rhs.get()};
    }
    if (r_in_left && !r_in_right && l_in_right && !l_in_left) {
      return {e.rhs.get(), e.lhs.get()};
    }
    return {nullptr, nullptr};
  }

  Status BuildJoin(OperatorPtr* current, PendingSource* pending,
                   bool* have_pending, PendingSource src,
                   const std::vector<const Expr*>& join_preds,
                   bool left_outer, std::vector<Conjunct>* conjuncts) {
    const Scope left_scope =
        *have_pending ? pending->scope
                      : (*current ? (*current)->scope() : Scope());
    // Split join predicates into equi pairs and residual.
    std::vector<std::pair<const Expr*, const Expr*>> equis;
    std::vector<const Expr*> residual;
    for (const Expr* e : join_preds) {
      auto [l, r] = SplitEqui(*e, left_scope, src.scope);
      if (l) {
        equis.emplace_back(l, r);
      } else {
        residual.push_back(e);
      }
    }

    Scope combined = left_scope;
    combined.Append(src.scope);
    BoundExprPtr residual_bound;
    if (!residual.empty()) {
      // AND the residual conjuncts into one bound predicate.
      BoundExprPtr acc;
      for (const Expr* e : residual) {
        RDFREL_ASSIGN_OR_RETURN(BoundExprPtr b, BindExpr(*e, combined));
        if (!acc) {
          acc = std::move(b);
        } else {
          // Wrap with an AND via a tiny adapter: re-bind the conjunction.
          // Cheapest: build an ast AND is impossible here (we have borrowed
          // pointers), so chain with a composite evaluator.
          acc = MakeAndExpr(std::move(acc), std::move(b));
        }
      }
      residual_bound = std::move(acc);
    }

    // Option 1: the new source is a base table with an index on one of the
    // equi columns -> index nested-loop probe into it.
    if (src.is_base_table() && !equis.empty()) {
      for (size_t k = 0; k < equis.size(); ++k) {
        const Expr* right_col = equis[k].second;
        if (right_col->kind != ExprKind::kColumnRef) continue;
        const IndexInfo* idx = src.table->FindIndexOn(right_col->column);
        if (!idx) continue;
        RDFREL_RETURN_NOT_OK(
            FlushPending(current, pending, have_pending, conjuncts));
        RDFREL_ASSIGN_OR_RETURN(
            BoundExprPtr key, BindExpr(*equis[k].first, (*current)->scope()));
        // Remaining equis become residual on the combined scope.
        BoundExprPtr extra = std::move(residual_bound);
        for (size_t j = 0; j < equis.size(); ++j) {
          if (j == k) continue;
          RDFREL_ASSIGN_OR_RETURN(
              BoundExprPtr b,
              BindEquiAsResidual(equis[j], (*current)->scope(), src.scope));
          extra = extra ? MakeAndExpr(std::move(extra), std::move(b))
                        : std::move(b);
        }
        *current = std::make_unique<IndexNLJoinOp>(
            std::move(*current), src.table, src.alias, idx, std::move(key),
            left_outer, std::move(extra));
        return Status::OK();
      }
    }

    // Option 2: the deferred left base table has an index on one of the equi
    // columns -> drive from the new source and probe the deferred table.
    // (Only for inner joins: reversing a LEFT OUTER join is not equivalent.)
    if (*have_pending && !left_outer && !equis.empty()) {
      for (size_t k = 0; k < equis.size(); ++k) {
        const Expr* left_col = equis[k].first;
        if (left_col->kind != ExprKind::kColumnRef) continue;
        const IndexInfo* idx = pending->table->FindIndexOn(left_col->column);
        if (!idx) continue;
        OperatorPtr outer = MakeSourceOp(src, conjuncts);
        // Apply src-only conjuncts before probing.
        for (auto& c : *conjuncts) {
          if (c.consumed) continue;
          if (!ExprCoveredByScope(*c.expr, outer->scope())) continue;
          RDFREL_ASSIGN_OR_RETURN(BoundExprPtr b,
                                  BindExpr(*c.expr, outer->scope()));
          outer = std::make_unique<FilterOp>(std::move(outer), std::move(b));
          c.consumed = true;
        }
        RDFREL_ASSIGN_OR_RETURN(BoundExprPtr key,
                                BindExpr(*equis[k].second, outer->scope()));
        Scope flipped = outer->scope();
        {
          Scope t;
          for (const auto& col : pending->table->schema().columns()) {
            t.Add(pending->alias, col.name);
          }
          flipped.Append(t);
        }
        BoundExprPtr extra;
        for (size_t j = 0; j < equis.size(); ++j) {
          if (j == k) continue;
          RDFREL_ASSIGN_OR_RETURN(BoundExprPtr b,
                                  BindExpr(MakeEqAst(equis[j]), flipped));
          extra = extra ? MakeAndExpr(std::move(extra), std::move(b))
                        : std::move(b);
        }
        for (const Expr* e : residual) {
          RDFREL_ASSIGN_OR_RETURN(BoundExprPtr b, BindExpr(*e, flipped));
          extra = extra ? MakeAndExpr(std::move(extra), std::move(b))
                        : std::move(b);
        }
        *current = std::make_unique<IndexNLJoinOp>(
            std::move(outer), pending->table, pending->alias, idx,
            std::move(key), /*left_outer=*/false, std::move(extra));
        *have_pending = false;
        // Pending-table conjuncts (e.g. T.pred1='x') are now covered by the
        // combined scope and get applied by the caller.
        return Status::OK();
      }
    }

    // Option 3: hash join on the equi keys.
    RDFREL_RETURN_NOT_OK(
        FlushPending(current, pending, have_pending, conjuncts));
    OperatorPtr right = MakeSourceOp(src, conjuncts);
    // Push source-only conjuncts below the join.
    for (auto& c : *conjuncts) {
      if (c.consumed) continue;
      if (!ExprCoveredByScope(*c.expr, right->scope())) continue;
      RDFREL_ASSIGN_OR_RETURN(BoundExprPtr b,
                              BindExpr(*c.expr, right->scope()));
      right = std::make_unique<FilterOp>(std::move(right), std::move(b));
      c.consumed = true;
    }
    if (!equis.empty()) {
      std::vector<BoundExprPtr> lkeys, rkeys;
      for (const auto& [l, r] : equis) {
        RDFREL_ASSIGN_OR_RETURN(BoundExprPtr lb,
                                BindExpr(*l, (*current)->scope()));
        RDFREL_ASSIGN_OR_RETURN(BoundExprPtr rb, BindExpr(*r, right->scope()));
        lkeys.push_back(std::move(lb));
        rkeys.push_back(std::move(rb));
      }
      *current = std::make_unique<HashJoinOp>(
          std::move(*current), std::move(right), std::move(lkeys),
          std::move(rkeys), left_outer, std::move(residual_bound));
      return Status::OK();
    }
    *current = std::make_unique<NestedLoopJoinOp>(
        std::move(*current), std::move(right), left_outer,
        std::move(residual_bound));
    return Status::OK();
  }

  /// Rebinds an equi pair as a residual equality over the combined scope.
  Result<BoundExprPtr> BindEquiAsResidual(
      const std::pair<const Expr*, const Expr*>& equi, const Scope& left,
      const Scope& right) {
    Scope combined = left;
    combined.Append(right);
    return BindExpr(MakeEqAst(equi), combined);
  }

  /// Builds (and owns) an equality AST node over two borrowed expressions.
  const Expr& MakeEqAst(const std::pair<const Expr*, const Expr*>& equi) {
    auto eq = std::make_unique<Expr>();
    eq->kind = ExprKind::kBinary;
    eq->op = ast::BinaryOp::kEq;
    eq->lhs = CloneExpr(*equi.first);
    eq->rhs = CloneExpr(*equi.second);
    owned_.push_back(std::move(eq));
    return *owned_.back();
  }

  static ast::ExprPtr CloneExpr(const Expr& e) {
    auto c = std::make_unique<Expr>();
    c->kind = e.kind;
    c->literal = e.literal;
    c->qualifier = e.qualifier;
    c->column = e.column;
    c->op = e.op;
    c->negated = e.negated;
    if (e.lhs) c->lhs = CloneExpr(*e.lhs);
    if (e.rhs) c->rhs = CloneExpr(*e.rhs);
    if (e.child) c->child = CloneExpr(*e.child);
    for (const auto& b : e.branches) {
      ast::CaseBranch nb;
      nb.when = CloneExpr(*b.when);
      nb.then = CloneExpr(*b.then);
      c->branches.push_back(std::move(nb));
    }
    if (e.else_expr) c->else_expr = CloneExpr(*e.else_expr);
    for (const auto& a : e.args) c->args.push_back(CloneExpr(*a));
    return c;
  }

  /// Combines two bound predicates with AND (three-valued).
  static BoundExprPtr MakeAndExpr(BoundExprPtr a, BoundExprPtr b);

  const Catalog& catalog_;
  CteEnv* env_;
  const ExecControl* control_;  ///< cancellation for those materializations
  std::vector<ast::ExprPtr> owned_;
};

/// Composite AND over bound expressions (planner-internal).
class BoundAnd final : public BoundExpr {
 public:
  BoundAnd(BoundExprPtr a, BoundExprPtr b)
      : a_(std::move(a)), b_(std::move(b)) {}
  Result<Value> Evaluate(const Row& row) const override {
    RDFREL_ASSIGN_OR_RETURN(Value av, a_->Evaluate(row));
    RDFREL_ASSIGN_OR_RETURN(std::optional<bool> at, ValueTruth(av));
    if (at.has_value() && !*at) return Value::Bool(false);
    RDFREL_ASSIGN_OR_RETURN(Value bv, b_->Evaluate(row));
    RDFREL_ASSIGN_OR_RETURN(std::optional<bool> bt, ValueTruth(bv));
    if (bt.has_value() && !*bt) return Value::Bool(false);
    if (at.has_value() && bt.has_value()) return Value::Bool(true);
    return Value::Null();
  }

  void CollectSlots(std::vector<int>* out) const override {
    a_->CollectSlots(out);
    b_->CollectSlots(out);
  }

 private:
  BoundExprPtr a_;
  BoundExprPtr b_;
};

BoundExprPtr CorePlanner::MakeAndExpr(BoundExprPtr a, BoundExprPtr b) {
  return std::make_unique<BoundAnd>(std::move(a), std::move(b));
}

}  // namespace

Result<OperatorPtr> PlanSelect(const Catalog& catalog,
                               const ast::SelectStmt& stmt, CteEnv* env,
                               const ExecControl* control) {
  // Materialize CTEs in order.
  for (const auto& cte : stmt.ctes) {
    RDFREL_ASSIGN_OR_RETURN(
        OperatorPtr op, PlanSelect(catalog, *cte.query, env, control));
    RDFREL_ASSIGN_OR_RETURN(std::vector<Row> rows,
                            CollectRows(op.get(), control));
    auto mat = std::make_shared<Materialized>();
    mat->scope = op->scope();
    mat->rows = std::move(rows);
    (*env)[ToLowerAscii(cte.name)] = std::move(mat);
  }

  // Plan cores. Bound expressions copy what they need from the AST, so the
  // planner (and the AST nodes it owns) may die before execution.
  std::vector<OperatorPtr> cores;
  const bool single_core = stmt.cores.size() == 1;
  for (const auto& core : stmt.cores) {
    CorePlanner planner(catalog, env, control);
    RDFREL_ASSIGN_OR_RETURN(
        OperatorPtr op,
        planner.PlanCore(core, single_core && !stmt.order_by.empty()
                                   ? &stmt.order_by
                                   : nullptr));
    cores.push_back(std::move(op));
  }

  OperatorPtr root;
  if (cores.size() == 1) {
    root = std::move(cores.front());
  } else {
    size_t arity = cores.front()->scope().size();
    for (const auto& c : cores) {
      if (c->scope().size() != arity) {
        return Status::InvalidArgument(
            "UNION ALL branches have different column counts");
      }
    }
    root = std::make_unique<UnionAllOp>(std::move(cores));
  }

  if (!stmt.order_by.empty() && !single_core) {
    std::vector<BoundExprPtr> keys;
    std::vector<bool> desc;
    for (const auto& item : stmt.order_by) {
      RDFREL_ASSIGN_OR_RETURN(BoundExprPtr k,
                              BindExpr(*item.expr, root->scope()));
      keys.push_back(std::move(k));
      desc.push_back(item.descending);
    }
    root = std::make_unique<SortOp>(std::move(root), std::move(keys),
                                    std::move(desc));
  }
  if (stmt.limit.has_value() || stmt.offset.has_value()) {
    root = std::make_unique<LimitOp>(std::move(root), stmt.limit,
                                     stmt.offset);
  }
  // Post-planning invariant gate (DESIGN.md §8). CTE subplans were already
  // verified when their recursive PlanSelect returned.
  if (util::VerifyPlansEnabled()) {
    RDFREL_RETURN_NOT_OK(VerifyOperatorTree(*root));
  }
  return root;
}

}  // namespace rdfrel::sql
