#ifndef STATDB_RELATIONAL_VALUE_H_
#define STATDB_RELATIONAL_VALUE_H_

#include <compare>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <variant>

#include "common/result.h"
#include "common/status.h"

namespace statdb {

/// Attribute data types. Statistical packages view a data set as a flat
/// file of typed columns; statdb supports integers (including encoded
/// category values), doubles and strings. "Missing value" (the outcome of
/// invalidating a suspicious measurement, §3.1) is the null Value.
enum class DataType : uint8_t {
  kNull = 0,
  kInt64 = 1,
  kDouble = 2,
  kString = 3,
};

std::string_view DataTypeName(DataType t);

/// A dynamically typed cell value. Null (missing) compares less than any
/// non-null value; cross-type numeric comparison promotes to double.
class Value {
 public:
  Value() : v_(std::monostate{}) {}
  explicit Value(int64_t v) : v_(v) {}
  explicit Value(double v) : v_(v) {}
  explicit Value(std::string v) : v_(std::move(v)) {}
  explicit Value(const char* v) : v_(std::string(v)) {}

  static Value Null() { return Value(); }
  static Value Int(int64_t v) { return Value(v); }
  static Value Real(double v) { return Value(v); }
  static Value Str(std::string v) { return Value(std::move(v)); }

  DataType type() const {
    switch (v_.index()) {
      case 0: return DataType::kNull;
      case 1: return DataType::kInt64;
      case 2: return DataType::kDouble;
      default: return DataType::kString;
    }
  }

  bool is_null() const { return v_.index() == 0; }
  bool is_numeric() const {
    return type() == DataType::kInt64 || type() == DataType::kDouble;
  }

  /// Typed accessors; require the matching type.
  int64_t AsInt() const { return std::get<int64_t>(v_); }
  double AsReal() const { return std::get<double>(v_); }
  const std::string& AsStr() const { return std::get<std::string>(v_); }

  /// Numeric coercion: int64 or double to double; error otherwise.
  Result<double> ToDouble() const;

  /// Numeric coercion to int64 (double truncates); OUT_OF_RANGE for a
  /// NaN, infinite or out-of-range double; error for non-numerics.
  Result<int64_t> ToInt() const;

  std::string ToString() const;

  /// Total order: null < numerics (by value, cross-type) < strings.
  std::strong_ordering Compare(const Value& other) const;

  friend bool operator==(const Value& a, const Value& b) {
    return a.Compare(b) == std::strong_ordering::equal;
  }
  friend bool operator<(const Value& a, const Value& b) {
    return a.Compare(b) == std::strong_ordering::less;
  }

  size_t Hash() const;

 private:
  std::variant<std::monostate, int64_t, double, std::string> v_;
};

inline std::ostream& operator<<(std::ostream& os, const Value& v) {
  return os << v.ToString();
}

struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

class ByteWriter;
class ByteReader;

/// Tagged binary encoding of one Value (u8 type tag + payload), shared
/// by row serialization, expression serialization and the update log.
void EncodeValue(const Value& v, ByteWriter* w);
Result<Value> DecodeValue(ByteReader* r);

}  // namespace statdb

#endif  // STATDB_RELATIONAL_VALUE_H_
