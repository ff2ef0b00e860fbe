/// Negative-path tests for the operator-tree / RowBatch verifier
/// (DESIGN.md §8): malformed operator trees are rejected with
/// kInternalPlanError carrying the dotted operator path, and a producer
/// emitting a broken selection vector is caught at the NextBatch boundary.

#include "sql/operator_verifier.h"

#include <gtest/gtest.h>

#include "sql/catalog.h"
#include "sql/executor.h"
#include "sql/expression.h"
#include "sql/row_batch.h"
#include "util/verify.h"

namespace rdfrel::sql {
namespace {

/// An operator yielding a fixed row list with a given scope.
class FixedOp final : public Operator {
 public:
  FixedOp(std::vector<Row> rows, Scope scope) : rows_(std::move(rows)) {
    scope_ = std::move(scope);
  }
  Status Open() override {
    pos_ = 0;
    return Status::OK();
  }
  std::string name() const override { return "Fixed"; }

 protected:
  Result<bool> NextBatchImpl(RowBatch* out) override {
    if (pos_ >= rows_.size()) return false;
    while (pos_ < rows_.size() && !out->Full()) *out->AddRow() = rows_[pos_++];
    return true;
  }

 private:
  std::vector<Row> rows_;
  size_t pos_ = 0;
};

Scope MakeScope(const std::vector<std::string>& names) {
  Scope s;
  for (const auto& n : names) s.Add("t", n);
  return s;
}

OperatorPtr Fixed(std::vector<Row> rows,
                  const std::vector<std::string>& names) {
  return std::make_unique<FixedOp>(std::move(rows), MakeScope(names));
}

std::vector<BoundExprPtr> Exprs(BoundExprPtr e) {
  std::vector<BoundExprPtr> v;
  v.push_back(std::move(e));
  return v;
}

void ExpectPlanError(const Status& st, const std::string& needle) {
  ASSERT_TRUE(st.IsInternalPlanError()) << st.ToString();
  EXPECT_NE(st.message().find(needle), std::string::npos) << st.ToString();
}

// --------------------------------------------------------------- RowBatch

TEST(OperatorVerifierTest, AcceptsDenseBatchAndValidSelection) {
  RowBatch b;
  *b.AddRow() = {Value::Int(1)};
  *b.AddRow() = {Value::Int(2)};
  *b.AddRow() = {Value::Int(3)};
  EXPECT_TRUE(VerifyRowBatch(b).ok());
  b.SetSelection({0, 2});
  EXPECT_TRUE(VerifyRowBatch(b).ok());
}

TEST(OperatorVerifierTest, RejectsSelectionOutOfBounds) {
  RowBatch b;
  *b.AddRow() = {Value::Int(1)};
  *b.AddRow() = {Value::Int(2)};
  b.SetSelection({0, 5});
  ExpectPlanError(VerifyRowBatch(b),
                  "selection[1] = 5 out of bounds for batch of 2 rows");
}

TEST(OperatorVerifierTest, RejectsNonAscendingSelection) {
  RowBatch b;
  *b.AddRow() = {Value::Int(1)};
  *b.AddRow() = {Value::Int(2)};
  *b.AddRow() = {Value::Int(3)};
  b.SetSelection({2, 1});
  ExpectPlanError(VerifyRowBatch(b),
                  "selection[1] = 1 not strictly ascending after 2");
}

TEST(OperatorVerifierTest, RejectsDuplicateSelectionIndex) {
  RowBatch b;
  *b.AddRow() = {Value::Int(1)};
  *b.AddRow() = {Value::Int(2)};
  b.SetSelection({1, 1});
  ExpectPlanError(VerifyRowBatch(b), "not strictly ascending");
}

// ---------------------------------------------------------- operator tree

TEST(OperatorVerifierTest, AcceptsWellFormedTree) {
  auto filter = std::make_unique<FilterOp>(
      Fixed({{Value::Int(1), Value::Int(2)}}, {"a", "b"}), MakeSlotRef(1));
  auto sort = std::make_unique<SortOp>(std::move(filter),
                                       Exprs(MakeSlotRef(0)),
                                       std::vector<bool>{false});
  EXPECT_TRUE(VerifyOperatorTree(*sort).ok());
}

TEST(OperatorVerifierTest, RejectsFilterSlotOutsideChildArity) {
  auto filter = std::make_unique<FilterOp>(
      Fixed({{Value::Int(1)}}, {"a"}), MakeSlotRef(3));
  Status st = VerifyOperatorTree(*filter);
  ExpectPlanError(st, "predicate reads slot 3 outside input arity 1");
  ExpectPlanError(st, "Filter");
}

TEST(OperatorVerifierTest, ReportsDottedPathToNestedOffender) {
  // Sort -> Filter(bad slot): the error must name the full path.
  auto filter = std::make_unique<FilterOp>(
      Fixed({{Value::Int(1)}}, {"a"}), MakeSlotRef(9));
  auto sort = std::make_unique<SortOp>(std::move(filter),
                                       Exprs(MakeSlotRef(0)),
                                       std::vector<bool>{false});
  Status st = VerifyOperatorTree(*sort);
  ExpectPlanError(st, "Sort.0.Filter");
  ExpectPlanError(st, "reads slot 9 outside input arity 1");
}

TEST(OperatorVerifierTest, RejectsHashJoinKeyArityMismatch) {
  auto join = std::make_unique<HashJoinOp>(
      Fixed({{Value::Int(1)}}, {"a"}), Fixed({{Value::Int(1)}}, {"b"}),
      Exprs(MakeSlotRef(0)), std::vector<BoundExprPtr>{},
      /*left_outer=*/false, /*residual=*/nullptr);
  ExpectPlanError(VerifyOperatorTree(*join),
                  "join key arity mismatch: 1 left vs 0 right");
}

TEST(OperatorVerifierTest, RejectsSortKeyDirectionMismatch) {
  auto sort = std::make_unique<SortOp>(Fixed({{Value::Int(1)}}, {"a"}),
                                       Exprs(MakeSlotRef(0)),
                                       std::vector<bool>{});
  ExpectPlanError(VerifyOperatorTree(*sort), "1 keys vs 0 direction flags");
}

TEST(OperatorVerifierTest, RejectsNegativeLimit) {
  auto limit = std::make_unique<LimitOp>(Fixed({{Value::Int(1)}}, {"a"}),
                                         std::optional<int64_t>(-1),
                                         std::nullopt);
  ExpectPlanError(VerifyOperatorTree(*limit), "negative LIMIT");
}

TEST(OperatorVerifierTest, RejectsUnnestArgumentSlotOutOfRange) {
  auto unnest = std::make_unique<UnnestOp>(Fixed({{Value::Int(1)}}, {"a"}),
                                           Exprs(MakeSlotRef(9)), "u",
                                           "elem");
  ExpectPlanError(VerifyOperatorTree(*unnest),
                  "argument 0 reads slot 9 outside input arity 1");
}

// ------------------------------------------------- NextBatch verification

/// A producer that violates the RowBatch selection contract.
class BadSelectionOp final : public Operator {
 public:
  BadSelectionOp() { scope_ = MakeScope({"a"}); }
  Status Open() override {
    done_ = false;
    return Status::OK();
  }
  std::string name() const override { return "BadSelection"; }

 protected:
  Result<bool> NextBatchImpl(RowBatch* out) override {
    if (done_) return false;
    done_ = true;
    out->Reset();
    *out->AddRow() = {Value::Int(1)};
    *out->AddRow() = {Value::Int(2)};
    out->SetSelection({1, 0});  // descending: contract violation
    return true;
  }

 private:
  bool done_ = false;
};

TEST(OperatorVerifierTest, NextBatchCatchesBrokenSelectionWhenEnabled) {
  util::SetVerifyPlans(true);
  BadSelectionOp op;
  ASSERT_TRUE(op.Open().ok());
  RowBatch b;
  auto r = op.NextBatch(&b);
  util::ResetVerifyPlans();
  ASSERT_FALSE(r.ok());
  ExpectPlanError(r.status(), "BadSelection");
  ExpectPlanError(r.status(), "not strictly ascending");
}

TEST(OperatorVerifierTest, NextBatchPassesBrokenSelectionWhenDisabled) {
  util::SetVerifyPlans(false);
  BadSelectionOp op;
  ASSERT_TRUE(op.Open().ok());
  RowBatch b;
  auto r = op.NextBatch(&b);
  util::ResetVerifyPlans();
  ASSERT_TRUE(r.ok());  // gate off: the bad batch sails through
  EXPECT_TRUE(*r);
}

}  // namespace
}  // namespace rdfrel::sql
