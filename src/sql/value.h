#ifndef RDFREL_SQL_VALUE_H_
#define RDFREL_SQL_VALUE_H_

/// \file value.h
/// The runtime value type of the relational engine: SQL NULL, BIGINT or
/// DOUBLE. Dictionary-encoded RDF ids travel as BIGINT; the lex table's
/// numeric view is the one DOUBLE column. Strings stay in the dictionary.

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

namespace rdfrel::sql {

/// Declared column types.
enum class ValueType : uint8_t {
  kNull = 0,  ///< Only as a runtime value kind, not a declared column type.
  kInt64,
  kDouble,
};

const char* ValueTypeToString(ValueType t);

/// A single SQL value: a tag and an 8-byte payload, trivially copyable.
class Value {
 public:
  /// Constructs SQL NULL.
  Value() = default;

  static Value Null() { return Value(); }
  static Value Int(int64_t v) {
    Value x;
    x.type_ = ValueType::kInt64;
    x.i_ = v;
    return x;
  }
  static Value Real(double v) {
    Value x;
    x.type_ = ValueType::kDouble;
    x.d_ = v;
    return x;
  }
  static Value Bool(bool b) { return Int(b ? 1 : 0); }

  bool is_null() const { return type_ == ValueType::kNull; }
  bool is_int() const { return type_ == ValueType::kInt64; }
  bool is_double() const { return type_ == ValueType::kDouble; }

  ValueType type() const { return type_; }

  /// The payload; only meaningful when is_int() / is_double() holds.
  int64_t AsInt() const { return i_; }
  double AsDouble() const { return d_; }

  /// Numeric view: int is widened to double. Undefined on NULL.
  double NumericValue() const {
    return is_int() ? static_cast<double>(i_) : d_;
  }

  /// SQL equality (NULL never equal; int/double compare numerically).
  /// Returns NULL semantics via CompareResult in expression.cc; this is the
  /// "known both non-null" fast path.
  bool EqualsNonNull(const Value& other) const {
    if (is_int() && other.is_int()) return i_ == other.i_;
    return NumericValue() == other.NumericValue();
  }

  /// Total ordering used by the ordered comparisons (<, <=, >, >=) and by
  /// MIN/MAX: NULLs first, then by numeric value.
  int Compare(const Value& other) const;

  /// Exact structural equality (NULL == NULL): used by tests and hash maps.
  bool operator==(const Value& other) const {
    if (is_null() || other.is_null()) return is_null() == other.is_null();
    return EqualsNonNull(other);
  }
  bool operator!=(const Value& other) const { return !(*this == other); }

  /// Hash consistent with operator== (and with EqualsNonNull: int k and
  /// double k hash alike when the double is integral).
  uint64_t Hash() const;

  /// Display form: NULL, 42 or 3.500000.
  std::string ToString() const;

 private:
  ValueType type_ = ValueType::kNull;
  union {
    int64_t i_ = 0;
    double d_;
  };
};

static_assert(sizeof(Value) == 16);
static_assert(std::is_trivially_copyable_v<Value>);

/// Hasher for unordered containers keyed by Value.
struct ValueHasher {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

/// Hasher/equality for composite keys (join keys).
struct ValueVectorHasher {
  size_t operator()(const std::vector<Value>& vs) const;
};

}  // namespace rdfrel::sql

#endif  // RDFREL_SQL_VALUE_H_
