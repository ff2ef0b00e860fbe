/// Direct unit tests of the physical operators (edge cases that SQL-level
/// tests cannot isolate: rescans via Open(), NULL join keys, empty inputs,
/// residual predicates, operator composition).

#include "sql/executor.h"

#include <gtest/gtest.h>

#include "sql/catalog.h"

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
    ++open_count_;
    return Status::OK();
  }
  std::string name() const override { return "Fixed"; }
  int open_count() const { return open_count_; }

 protected:
  Result<bool> NextBatchImpl(RowBatch* out) override {
    if (pos_ >= rows_.size()) return false;
    while (pos_ < rows_.size() && !out->Full()) *out->AddRow() = rows_[pos_++];
    return true;
  }

 private:
  std::vector<Row> rows_;
  size_t pos_ = 0;
  int open_count_ = 0;
};

Scope MakeScope(const std::vector<std::string>& names,
                const std::string& qual = "t") {
  Scope s;
  for (const auto& n : names) s.Add(qual, n);
  return s;
}

OperatorPtr Fixed(std::vector<Row> rows,
                  const std::vector<std::string>& names,
                  const std::string& qual = "t") {
  return std::make_unique<FixedOp>(std::move(rows), MakeScope(names, qual));
}

BoundExprPtr Slot(int i) { return MakeSlotRef(i); }

TEST(ExecutorTest, CollectRowsReopens) {
  auto op = Fixed({{Value::Int(1)}, {Value::Int(2)}}, {"a"});
  auto r1 = CollectRows(op.get());
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->size(), 2u);
  // A second collection must rescan from the start.
  auto r2 = CollectRows(op.get());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->size(), 2u);
}

TEST(ExecutorTest, HashJoinNullKeysNeverMatch) {
  auto left = Fixed({{Value::Int(1)}, {Value::Null()}}, {"a"}, "l");
  auto right = Fixed({{Value::Int(1)}, {Value::Null()}}, {"b"}, "r");
  std::vector<BoundExprPtr> lk, rk;
  lk.push_back(Slot(0));
  rk.push_back(Slot(0));
  HashJoinOp join(std::move(left), std::move(right), std::move(lk),
                  std::move(rk), /*left_outer=*/false, nullptr);
  auto rows = CollectRows(&join);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);  // only 1=1; NULL keys drop
  EXPECT_EQ((*rows)[0][0].AsInt(), 1);
}

TEST(ExecutorTest, LeftOuterHashJoinPadsNullKeyRows) {
  auto left = Fixed({{Value::Int(1)}, {Value::Null()}}, {"a"}, "l");
  auto right = Fixed({{Value::Int(1)}}, {"b"}, "r");
  std::vector<BoundExprPtr> lk, rk;
  lk.push_back(Slot(0));
  rk.push_back(Slot(0));
  HashJoinOp join(std::move(left), std::move(right), std::move(lk),
                  std::move(rk), /*left_outer=*/true, nullptr);
  auto rows = CollectRows(&join);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  // The NULL-keyed left row survives padded.
  bool padded = false;
  for (const auto& r : *rows) {
    if (r[0].is_null()) {
      EXPECT_TRUE(r[1].is_null());
      padded = true;
    }
  }
  EXPECT_TRUE(padded);
}

TEST(ExecutorTest, HashJoinResidualFiltersWithinMatches) {
  // Join on a constant key; residual keeps only l.a < r.b.
  auto left = Fixed({{Value::Int(1), Value::Int(7)},
                     {Value::Int(1), Value::Int(9)}},
                    {"k", "a"}, "l");
  auto right = Fixed({{Value::Int(1), Value::Int(8)}}, {"k", "b"}, "r");
  std::vector<BoundExprPtr> lk, rk;
  lk.push_back(Slot(0));
  rk.push_back(Slot(0));
  // Residual over concatenated row: slot1 (l.a) < slot3 (r.b).
  auto lt = std::make_unique<FixedOp>(std::vector<Row>{}, Scope{});
  // Build residual via ast binding is overkill; use a tiny lambda expr:
  class LtExpr final : public BoundExpr {
   public:
    Result<Value> Evaluate(const Row& row) const override {
      if (row[1].is_null() || row[3].is_null()) return Value::Null();
      return Value::Bool(row[1].AsInt() < row[3].AsInt());
    }
  };
  HashJoinOp join(std::move(left), std::move(right), std::move(lk),
                  std::move(rk), false, std::make_unique<LtExpr>());
  auto rows = CollectRows(&join);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][1].AsInt(), 7);
}

TEST(ExecutorTest, IndexNLJoinProbesAndPads) {
  Table table("inner", Schema({{"id", ValueType::kInt64},
                               {"v", ValueType::kInt64}}));
  ASSERT_TRUE(table.CreateIndex("idx", "id").ok());
  ASSERT_TRUE(table.Insert({Value::Int(1), Value::Int(101)}).ok());
  ASSERT_TRUE(table.Insert({Value::Int(1), Value::Int(102)}).ok());
  ASSERT_TRUE(table.Insert({Value::Int(2), Value::Int(103)}).ok());

  auto outer = Fixed({{Value::Int(1)}, {Value::Int(3)}, {Value::Null()}},
                     {"k"}, "o");
  IndexNLJoinOp join(std::move(outer), &table, "i", table.FindIndexOn("id"),
                     Slot(0), /*left_outer=*/true, nullptr);
  auto rows = CollectRows(&join);
  ASSERT_TRUE(rows.ok());
  // k=1 matches twice; k=3 and k=NULL pad.
  EXPECT_EQ(rows->size(), 4u);
  int padded = 0;
  for (const auto& r : *rows) {
    if (r[1].is_null()) ++padded;
  }
  EXPECT_EQ(padded, 2);
}

TEST(ExecutorTest, UnionAllEmptyChildren) {
  std::vector<OperatorPtr> kids;
  kids.push_back(Fixed({}, {"a"}));
  kids.push_back(Fixed({{Value::Int(5)}}, {"a"}));
  kids.push_back(Fixed({}, {"a"}));
  UnionAllOp u(std::move(kids));
  auto rows = CollectRows(&u);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][0].AsInt(), 5);
}

TEST(ExecutorTest, DistinctTreatsNullRowsEqual) {
  auto child = Fixed({{Value::Null()}, {Value::Null()}, {Value::Int(1)}},
                     {"a"});
  DistinctOp d(std::move(child));
  auto rows = CollectRows(&d);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 2u);
}

TEST(ExecutorTest, UnnestEmitsPerArgumentIncludingNulls) {
  auto child = Fixed({{Value::Int(1), Value::Null()}}, {"a", "b"});
  std::vector<BoundExprPtr> args;
  args.push_back(Slot(0));
  args.push_back(Slot(1));
  UnnestOp u(std::move(child), std::move(args), "lt", "v");
  auto rows = CollectRows(&u);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0][2].AsInt(), 1);
  EXPECT_TRUE((*rows)[1][2].is_null());
}

TEST(ExecutorTest, AggregateEmptyKeyedInputYieldsNoGroups) {
  auto child = Fixed({}, {"a"});
  std::vector<BoundExprPtr> keys;
  keys.push_back(Slot(0));
  std::vector<AggregateOp::AggSpec> aggs;
  aggs.push_back({ast::AggFunc::kCount, nullptr, false});
  AggregateOp agg(std::move(child), std::move(keys), std::move(aggs));
  auto rows = CollectRows(&agg);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 0u);
}

TEST(ExecutorTest, AggregateMixedIntDoubleSum) {
  auto child = Fixed({{Value::Int(1)}, {Value::Real(2.5)}}, {"a"});
  std::vector<AggregateOp::AggSpec> aggs;
  aggs.push_back({ast::AggFunc::kSum, Slot(0), false});
  AggregateOp agg(std::move(child), {}, std::move(aggs));
  auto rows = CollectRows(&agg);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_DOUBLE_EQ((*rows)[0][0].AsDouble(), 3.5);
}

TEST(ExecutorTest, LimitZeroAndOffsetBeyondEnd) {
  {
    auto child = Fixed({{Value::Int(1)}, {Value::Int(2)}}, {"a"});
    LimitOp l(std::move(child), 0, std::nullopt);
    auto rows = CollectRows(&l);
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows->size(), 0u);
  }
  {
    auto child = Fixed({{Value::Int(1)}, {Value::Int(2)}}, {"a"});
    LimitOp l(std::move(child), std::nullopt, 10);
    auto rows = CollectRows(&l);
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows->size(), 0u);
  }
}

TEST(ExecutorTest, NestedLoopLeftOuterNoRightRows) {
  auto left = Fixed({{Value::Int(1)}}, {"a"}, "l");
  auto right = Fixed({}, {"b"}, "r");
  NestedLoopJoinOp j(std::move(left), std::move(right),
                     /*left_outer=*/true, nullptr);
  auto rows = CollectRows(&j);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_TRUE((*rows)[0][1].is_null());
}

}  // namespace
}  // namespace rdfrel::sql
