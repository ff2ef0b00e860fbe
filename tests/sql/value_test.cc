#include "sql/value.h"

#include <cstring>
#include <type_traits>

#include <gtest/gtest.h>

namespace rdfrel::sql {
namespace {

TEST(ValueTest, SixteenTriviallyCopyableBytes) {
  static_assert(sizeof(Value) == 16);
  static_assert(std::is_trivially_copyable_v<Value>);
  // A copy is a byte copy: kind and payload both survive.
  Value src[3] = {Value::Null(), Value::Int(-7), Value::Real(0.25)};
  Value dst[3];
  std::memcpy(dst, src, sizeof(src));
  EXPECT_TRUE(dst[0].is_null());
  EXPECT_EQ(dst[1].AsInt(), -7);
  EXPECT_EQ(dst[2].AsDouble(), 0.25);
}

TEST(ValueTest, DefaultIsNull) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.type(), ValueType::kNull);
  EXPECT_EQ(v.ToString(), "NULL");
}

TEST(ValueTest, Factories) {
  EXPECT_EQ(Value::Int(42).AsInt(), 42);
  EXPECT_EQ(Value::Real(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value::Bool(true).AsInt(), 1);
  EXPECT_EQ(Value::Bool(false).AsInt(), 0);
}

TEST(ValueTest, EqualsNonNullNumericWidening) {
  EXPECT_TRUE(Value::Int(5).EqualsNonNull(Value::Real(5.0)));
  EXPECT_FALSE(Value::Int(5).EqualsNonNull(Value::Real(5.5)));
}

TEST(ValueTest, StructuralEqualityTreatsNullEqual) {
  EXPECT_EQ(Value::Null(), Value::Null());
  EXPECT_NE(Value::Null(), Value::Int(0));
}

TEST(ValueTest, CompareTotalOrder) {
  // NULL < numeric; numerics by value, across BIGINT and DOUBLE.
  EXPECT_LT(Value::Null().Compare(Value::Int(-100)), 0);
  EXPECT_EQ(Value::Null().Compare(Value::Null()), 0);
  EXPECT_LT(Value::Int(1).Compare(Value::Int(2)), 0);
  EXPECT_GT(Value::Real(2.5).Compare(Value::Int(2)), 0);
  EXPECT_EQ(Value::Real(1.5).Compare(Value::Real(1.5)), 0);
  EXPECT_LT(Value::Int(1).Compare(Value::Real(1.5)), 0);
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value::Int(7).Hash(), Value::Real(7.0).Hash());
  EXPECT_EQ(Value::Real(2.5).Hash(), Value::Real(2.5).Hash());
  EXPECT_NE(Value::Real(2.5).Hash(), Value::Int(2).Hash());
  EXPECT_NE(Value::Int(7).Hash(), Value::Int(8).Hash());
}

TEST(ValueTest, VectorHasherDistinguishesOrder) {
  ValueVectorHasher h;
  std::vector<Value> a = {Value::Int(1), Value::Int(2)};
  std::vector<Value> b = {Value::Int(2), Value::Int(1)};
  EXPECT_NE(h(a), h(b));
}

TEST(ValueTest, Int64Extremes) {
  int64_t max = INT64_MAX, min = INT64_MIN;
  EXPECT_EQ(Value::Int(max).AsInt(), max);
  EXPECT_EQ(Value::Int(min).AsInt(), min);
  EXPECT_LT(Value::Int(min).Compare(Value::Int(max)), 0);
}

}  // namespace
}  // namespace rdfrel::sql
