#ifndef RDFREL_SQL_EXECUTOR_H_
#define RDFREL_SQL_EXECUTOR_H_

/// \file executor.h
/// Pull-based physical operators, driven one vectorized batch at a time
/// (`NextBatch(RowBatch*)`, ~1024 rows per call). Scans deserialize a whole
/// heap page per call into reused row storage, filters attach selection
/// vectors instead of shuffling rows, projections evaluate expressions
/// column-at-a-time, and joins probe a batch per call, pausing between
/// input rows once the output batch is full.
///
/// `NextBatch` is a non-virtual wrapper that checks the query's
/// ExecControl and maintains per-operator counters (rows out, batches out,
/// and — when EnableTiming is on — inclusive nanoseconds);
/// `FormatOperatorStats` renders the profile tree that the stores surface
/// through Explain.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sql/ast.h"
#include "sql/catalog.h"
#include "sql/exec_control.h"
#include "sql/expression.h"
#include "sql/row.h"
#include "sql/row_batch.h"
#include "util/status.h"

namespace rdfrel::sql {

/// Inert: batches are the only way operators run. The enum,
/// Database::exec_mode(), Operator::SetExecMode and PlanSelect's mode
/// parameter remain only for the perfbench harness, which calls them.
enum class ExecMode { kBatch };

/// A materialized intermediate result (CTE or derived table), shared between
/// the planner's execution of the CTE and later scans of it.
struct Materialized {
  Scope scope;             ///< qualifier = the materialized name
  std::vector<Row> rows;
};

/// Per-operator execution counters (see file comment).
struct OperatorStats {
  uint64_t rows = 0;     ///< active rows produced
  uint64_t batches = 0;  ///< non-empty batches produced
  uint64_t ns = 0;       ///< inclusive time in Next/NextBatch (timing only)
};

/// Base class for physical operators.
class Operator {
 public:
  virtual ~Operator() = default;

  /// Prepares (or re-prepares) the operator for a full scan of its output.
  virtual Status Open() = 0;

  /// Produces the next batch (>= 1 active row) into \p out; returns false
  /// at end of stream. \p out is reset first; its contents stay valid until
  /// the next call on this operator.
  Result<bool> NextBatch(RowBatch* out);

  const Scope& scope() const { return scope_; }

  /// Display name for plan profiles, e.g. "SeqScan(dph)".
  virtual std::string name() const = 0;
  /// Child operators (profile tree + recursive timing/control propagation).
  virtual std::vector<Operator*> children() { return {}; }

  /// Structural self-check for the operator verifier (DESIGN.md §8):
  /// expression slots in bounds of child scopes, join key arity agreement,
  /// scope widths consistent across the operator boundary. Children are
  /// verified separately by VerifyOperatorTree, which prefixes failures
  /// with the operator's dotted path.
  virtual Status VerifySelf() const { return Status::OK(); }

  /// Inert (see ExecMode); kept for the perfbench harness.
  void SetExecMode(ExecMode /*mode*/) {}
  /// Turns per-call timing on/off for this subtree (off by default).
  void EnableTiming(bool on);
  /// Attaches a deadline/cancel control to this subtree. Checked in the
  /// NextBatch wrapper at every batch, so blocking Open()s that drain a
  /// child are interruptible too. \p control is borrowed and must outlive
  /// execution; nullptr detaches.
  void SetControl(const ExecControl* control);

  const OperatorStats& stats() const { return stats_; }

 protected:
  /// Fills \p out (already reset) with the next rows; returns false at end
  /// of stream.
  virtual Result<bool> NextBatchImpl(RowBatch* out) = 0;

  /// Runs \p child to exhaustion, invoking \p fn per active row.
  static Status ForEachChildRow(Operator* child,
                                const std::function<Status(const Row&)>& fn);

  Scope scope_;
  bool timing_ = false;
  const ExecControl* control_ = nullptr;
  OperatorStats stats_;
};

using OperatorPtr = std::unique_ptr<Operator>;

/// Renders the operator tree with its counters, one line per operator:
///   HashJoin: rows=812 batches=1 ms=0.42
///     SeqScan(l): rows=50000 batches=49 ms=0.18
/// (ms appears only after EnableTiming; times are inclusive of children.)
std::string FormatOperatorStats(Operator& root);

/// Full-table scan: one whole decoded heap page per call, zero copy.
class SeqScanOp final : public Operator {
 public:
  SeqScanOp(const Table* table, const std::string& alias);
  Status Open() override;
  std::string name() const override { return "SeqScan(" + table_->name() + ")"; }
  Status VerifySelf() const override;

 protected:
  Result<bool> NextBatchImpl(RowBatch* out) override;

 private:
  const Table* table_;
  size_t page_ = 0;
  /// Decoded rows of the current page; holding the shared_ptr keeps a
  /// Borrow'ed batch valid even if the cache entry is invalidated mid-scan.
  std::shared_ptr<const DecodedPage> cur_page_;
};

/// Point index lookup: emits rows whose indexed column equals a constant.
/// Rows deserialize straight from heap cells into the caller's storage (no
/// intermediate Row materialization per rid).
class IndexScanOp final : public Operator {
 public:
  IndexScanOp(const Table* table, const std::string& alias,
              const IndexInfo* index, Value key);
  Status Open() override;
  std::string name() const override {
    return "IndexScan(" + table_->name() + ")";
  }
  Status VerifySelf() const override;

 protected:
  Result<bool> NextBatchImpl(RowBatch* out) override;

 private:
  const Table* table_;
  const IndexInfo* index_;
  Value key_;
  std::vector<RowId> rids_;
  size_t pos_ = 0;
};

/// Scans a materialized result (CTE / derived table) under a new alias,
/// borrowing the cached rows (zero copies).
class MaterializedScanOp final : public Operator {
 public:
  MaterializedScanOp(std::shared_ptr<const Materialized> mat,
                     const std::string& alias);
  Status Open() override;
  std::string name() const override { return "MaterializedScan"; }
  Status VerifySelf() const override;

 protected:
  Result<bool> NextBatchImpl(RowBatch* out) override;

 private:
  std::shared_ptr<const Materialized> mat_;
  size_t pos_ = 0;
};

/// WHERE filter. Evaluates the predicate over the whole batch and narrows
/// it with a selection vector — surviving rows are not moved.
class FilterOp final : public Operator {
 public:
  FilterOp(OperatorPtr child, BoundExprPtr predicate);
  Status Open() override;
  std::string name() const override { return "Filter"; }
  std::vector<Operator*> children() override { return {child_.get()}; }
  Status VerifySelf() const override;

 protected:
  Result<bool> NextBatchImpl(RowBatch* out) override;

 private:
  OperatorPtr child_;
  BoundExprPtr predicate_;
  std::vector<uint32_t> sel_;  ///< scratch selection (reused per batch)
};

/// Projection: computes output expressions, renames scope. Each computed
/// expression evaluates column-at-a-time over the input batch.
class ProjectOp final : public Operator {
 public:
  ProjectOp(OperatorPtr child, std::vector<BoundExprPtr> exprs, Scope out);
  Status Open() override;
  std::string name() const override { return "Project"; }
  std::vector<Operator*> children() override { return {child_.get()}; }
  Status VerifySelf() const override;

 protected:
  Result<bool> NextBatchImpl(RowBatch* out) override;

 private:
  OperatorPtr child_;
  std::vector<BoundExprPtr> exprs_;
  std::vector<int> slots_;  ///< per-expr: source slot if a bare ref, else -1
  RowBatch in_batch_;                     ///< input buffer (reused)
  std::vector<std::vector<Value>> cols_;  ///< per-expression value columns
};

/// Hash join: builds on the right child, probes with the left. Inner or
/// left-outer. Residual predicate (if any) evaluated on the concatenated
/// row before a match counts. Probes a left batch per call, with join keys
/// computed column-at-a-time.
class HashJoinOp final : public Operator {
 public:
  HashJoinOp(OperatorPtr left, OperatorPtr right,
             std::vector<BoundExprPtr> left_keys,
             std::vector<BoundExprPtr> right_keys, bool left_outer,
             BoundExprPtr residual);
  Status Open() override;
  std::string name() const override { return "HashJoin"; }
  std::vector<Operator*> children() override {
    return {left_.get(), right_.get()};
  }
  Status VerifySelf() const override;

 protected:
  Result<bool> NextBatchImpl(RowBatch* out) override;

 private:
  /// Build-table probe. Null when no match.
  const std::vector<Row>* LookupBuild(const std::vector<Value>& key) const;

  OperatorPtr left_;
  OperatorPtr right_;
  std::vector<BoundExprPtr> left_keys_;
  std::vector<BoundExprPtr> right_keys_;
  bool left_outer_;
  BoundExprPtr residual_;

  std::unordered_map<std::vector<Value>, std::vector<Row>, ValueVectorHasher>
      build_;
  size_t right_width_ = 0;

  RowBatch probe_;                             ///< probe-side input buffer
  std::vector<std::vector<Value>> key_cols_;   ///< per-key probe columns
  size_t probe_pos_ = 0;                       ///< resume cursor into probe_
};

/// Index nested-loop join: for each outer row, probes the inner table's
/// index with a key computed from the outer row. Inner or left-outer.
/// Probes one outer batch at a time and pauses between outer rows once the
/// output batch reaches capacity, resuming on the next call.
class IndexNLJoinOp final : public Operator {
 public:
  IndexNLJoinOp(OperatorPtr outer, const Table* inner,
                const std::string& inner_alias, const IndexInfo* index,
                BoundExprPtr outer_key, bool left_outer,
                BoundExprPtr residual);
  Status Open() override;
  std::string name() const override {
    return "IndexNLJoin(" + inner_->name() + ")";
  }
  std::vector<Operator*> children() override { return {outer_.get()}; }
  Status VerifySelf() const override;

 protected:
  Result<bool> NextBatchImpl(RowBatch* out) override;

 private:
  /// Emits every join result of \p outer_row into \p out, or the
  /// NULL-padded row when a left-outer join finds none.
  Status ProbeInto(const Row& outer_row, const Value& key, RowBatch* out);

  OperatorPtr outer_;
  const Table* inner_;
  const IndexInfo* index_;
  BoundExprPtr outer_key_;
  bool left_outer_;
  BoundExprPtr residual_;  ///< bound against concatenated scope

  Row inner_row_;                             ///< inner fetch buffer
  RowBatch outer_batch_;                      ///< outer input buffer
  std::vector<Value> key_col_;                ///< batch-evaluated keys
  size_t outer_pos_ = 0;                      ///< resume cursor into batch
};

/// Cross nested-loop join (inner side materialized), with optional residual
/// predicate and left-outer support. Fallback when no equi-key exists.
/// Like the other joins it pauses between left rows once the output batch
/// is full, resuming on the next call.
class NestedLoopJoinOp final : public Operator {
 public:
  NestedLoopJoinOp(OperatorPtr left, OperatorPtr right, bool left_outer,
                   BoundExprPtr residual);
  Status Open() override;
  std::string name() const override { return "NestedLoopJoin"; }
  std::vector<Operator*> children() override {
    return {left_.get(), right_.get()};
  }
  Status VerifySelf() const override;

 protected:
  Result<bool> NextBatchImpl(RowBatch* out) override;

 private:
  OperatorPtr left_;
  OperatorPtr right_;
  bool left_outer_;
  BoundExprPtr residual_;

  std::vector<Row> right_rows_;
  size_t right_width_ = 0;
  RowBatch left_batch_;                       ///< left input buffer
  size_t left_pos_ = 0;                       ///< resume cursor into batch
};

/// UNNEST(e1, ..., en) AS a(c): lateral operator emitting, per input row,
/// one output row per argument with the argument's value appended as column
/// a.c. Implements the paper's multi-column "flip" (Fig. 13's TABLE(...)).
class UnnestOp final : public Operator {
 public:
  UnnestOp(OperatorPtr child, std::vector<BoundExprPtr> args,
           const std::string& alias, const std::string& column);
  Status Open() override;
  std::string name() const override { return "Unnest"; }
  std::vector<Operator*> children() override { return {child_.get()}; }
  Status VerifySelf() const override;

 protected:
  Result<bool> NextBatchImpl(RowBatch* out) override;

 private:
  OperatorPtr child_;
  std::vector<BoundExprPtr> args_;
  RowBatch in_batch_;                     ///< input buffer (reused)
  std::vector<std::vector<Value>> arg_cols_;
  size_t in_pos_ = 0;                     ///< resume cursor into in_batch_
};

/// Concatenation of children (UNION ALL). Children must agree on arity;
/// output scope is the first child's.
class UnionAllOp final : public Operator {
 public:
  explicit UnionAllOp(std::vector<OperatorPtr> children);
  Status Open() override;
  std::string name() const override { return "UnionAll"; }
  std::vector<Operator*> children() override;
  Status VerifySelf() const override;

 protected:
  Result<bool> NextBatchImpl(RowBatch* out) override;

 private:
  std::vector<OperatorPtr> children_;
  size_t current_ = 0;
};

/// Hash-based duplicate elimination. Marks first occurrences in a
/// selection vector.
class DistinctOp final : public Operator {
 public:
  explicit DistinctOp(OperatorPtr child);
  Status Open() override;
  std::string name() const override { return "Distinct"; }
  std::vector<Operator*> children() override { return {child_.get()}; }
  Status VerifySelf() const override;

 protected:
  Result<bool> NextBatchImpl(RowBatch* out) override;

 private:
  OperatorPtr child_;
  std::unordered_set<std::vector<Value>, ValueVectorHasher> seen_;
  std::vector<uint32_t> sel_;
};

/// Full sort (materializing). Key i uses keys_[i], descending per flag.
/// Batches are served as zero-copy slices of the sorted buffer.
class SortOp final : public Operator {
 public:
  SortOp(OperatorPtr child, std::vector<BoundExprPtr> keys,
         std::vector<bool> descending);
  Status Open() override;
  std::string name() const override { return "Sort"; }
  std::vector<Operator*> children() override { return {child_.get()}; }
  Status VerifySelf() const override;

 protected:
  Result<bool> NextBatchImpl(RowBatch* out) override;

 private:
  OperatorPtr child_;
  std::vector<BoundExprPtr> keys_;
  std::vector<bool> descending_;
  std::vector<Row> rows_;
  size_t pos_ = 0;
};

/// Hash aggregation (GROUP BY keys + aggregate functions). Output columns
/// are the keys in order, then one column per aggregate; a ProjectOp above
/// restores the SELECT-list order. With no keys, exactly one row is
/// produced even over empty input (SQL global-aggregate semantics).
class AggregateOp final : public Operator {
 public:
  struct AggSpec {
    ast::AggFunc func = ast::AggFunc::kCount;
    BoundExprPtr input;  ///< null == COUNT(*)
    bool distinct = false;
  };

  AggregateOp(OperatorPtr child, std::vector<BoundExprPtr> keys,
              std::vector<AggSpec> aggs);
  Status Open() override;
  std::string name() const override { return "Aggregate"; }
  std::vector<Operator*> children() override { return {child_.get()}; }
  Status VerifySelf() const override;

 protected:
  Result<bool> NextBatchImpl(RowBatch* out) override;

 private:
  struct AggState {
    int64_t count = 0;
    int64_t isum = 0;
    double dsum = 0;
    bool int_only = true;
    bool has_value = false;
    Value min_value;
    Value max_value;
    std::unordered_set<Value, ValueHasher> seen;  // DISTINCT inputs
  };

  /// Folds one non-null input value into \p st.
  Status Update(const AggSpec& spec, AggState* st, const Value& v);
  Value Finalize(const AggSpec& spec, const AggState& st) const;

  OperatorPtr child_;
  std::vector<BoundExprPtr> keys_;
  std::vector<AggSpec> aggs_;
  std::vector<Row> results_;
  size_t pos_ = 0;
};

/// LIMIT/OFFSET. Trims child batches with a selection vector.
class LimitOp final : public Operator {
 public:
  LimitOp(OperatorPtr child, std::optional<int64_t> limit,
          std::optional<int64_t> offset);
  Status Open() override;
  std::string name() const override { return "Limit"; }
  std::vector<Operator*> children() override { return {child_.get()}; }
  Status VerifySelf() const override;

 protected:
  Result<bool> NextBatchImpl(RowBatch* out) override;

 private:
  OperatorPtr child_;
  std::optional<int64_t> limit_;
  std::optional<int64_t> offset_;
  int64_t skipped_ = 0;
  int64_t emitted_ = 0;
  std::vector<uint32_t> sel_;
};

/// Runs \p op to completion, collecting rows. Attaches \p control (when
/// non-null) to the tree before Open().
Result<std::vector<Row>> CollectRows(Operator* op,
                                     const ExecControl* control = nullptr);

}  // namespace rdfrel::sql

#endif  // RDFREL_SQL_EXECUTOR_H_
