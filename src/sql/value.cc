#include "sql/value.h"

#include <cmath>
#include <cstring>
#include <vector>

#include "util/hash.h"

namespace rdfrel::sql {

const char* ValueTypeToString(ValueType t) {
  switch (t) {
    case ValueType::kNull: return "NULL";
    case ValueType::kInt64: return "BIGINT";
    case ValueType::kDouble: return "DOUBLE";
  }
  return "?";
}

int Value::Compare(const Value& other) const {
  // NULLs first.
  if (is_null() && other.is_null()) return 0;
  if (is_null()) return -1;
  if (other.is_null()) return 1;
  if (is_int() && other.is_int()) {
    return i_ < other.i_ ? -1 : (i_ > other.i_ ? 1 : 0);
  }
  double a = NumericValue(), b = other.NumericValue();
  return a < b ? -1 : (a > b ? 1 : 0);
}

uint64_t Value::Hash() const {
  if (is_null()) return 0x9b1c3f5a;
  // Integral doubles hash as their int64 value so 5 and 5.0 agree with
  // EqualsNonNull.
  if (is_double()) {
    double r = std::floor(d_);
    if (r == d_ && d_ >= -9.2e18 && d_ <= 9.2e18) {
      return Mix64(static_cast<uint64_t>(static_cast<int64_t>(d_)));
    }
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(d_));
    std::memcpy(&bits, &d_, sizeof(bits));
    return Mix64(bits);
  }
  return Mix64(static_cast<uint64_t>(i_));
}

std::string Value::ToString() const {
  if (is_null()) return "NULL";
  if (is_int()) return std::to_string(i_);
  return std::to_string(d_);
}

size_t ValueVectorHasher::operator()(const std::vector<Value>& vs) const {
  uint64_t h = 0x51ed270b;
  for (const auto& v : vs) h = HashCombine(h, v.Hash());
  return h;
}

}  // namespace rdfrel::sql
