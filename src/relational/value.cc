#include "relational/value.h"

#include <cmath>
#include <sstream>

#include "common/bytes.h"

namespace statdb {

std::string_view DataTypeName(DataType t) {
  switch (t) {
    case DataType::kNull: return "NULL";
    case DataType::kInt64: return "INT64";
    case DataType::kDouble: return "DOUBLE";
    case DataType::kString: return "STRING";
  }
  return "UNKNOWN";
}

Result<double> Value::ToDouble() const {
  switch (type()) {
    case DataType::kInt64: return static_cast<double>(AsInt());
    case DataType::kDouble: return AsReal();
    default:
      return InvalidArgumentError("value is not numeric: " + ToString());
  }
}

Result<int64_t> Value::ToInt() const {
  switch (type()) {
    case DataType::kInt64: return AsInt();
    case DataType::kDouble: {
      // Truncation is defined only inside int64's range: [-2^63, 2^63).
      const double d = AsReal();
      if (!(d >= -9223372036854775808.0 && d < 9223372036854775808.0)) {
        return OutOfRangeError("value out of int64 range: " + ToString());
      }
      return static_cast<int64_t>(d);
    }
    default:
      return InvalidArgumentError("value is not numeric: " + ToString());
  }
}

std::string Value::ToString() const {
  switch (type()) {
    case DataType::kNull: return "NULL";
    case DataType::kInt64: return std::to_string(AsInt());
    case DataType::kDouble: {
      std::ostringstream os;
      os << AsReal();
      return os.str();
    }
    case DataType::kString: return AsStr();
  }
  return "?";
}

std::strong_ordering Value::Compare(const Value& other) const {
  // Rank: null(0) < numeric(1) < string(2).
  auto rank = [](const Value& v) {
    if (v.is_null()) return 0;
    if (v.is_numeric()) return 1;
    return 2;
  };
  int ra = rank(*this), rb = rank(other);
  if (ra != rb) return ra <=> rb;
  if (ra == 0) return std::strong_ordering::equal;
  if (ra == 1) {
    // Compare int-int exactly; otherwise promote to double. NaN is not
    // produced by statdb computations (missing is null instead), so
    // partial_ordering is safely collapsed.
    if (type() == DataType::kInt64 && other.type() == DataType::kInt64) {
      return AsInt() <=> other.AsInt();
    }
    double a = type() == DataType::kInt64 ? double(AsInt()) : AsReal();
    double b =
        other.type() == DataType::kInt64 ? double(other.AsInt()) : other.AsReal();
    if (a < b) return std::strong_ordering::less;
    if (a > b) return std::strong_ordering::greater;
    return std::strong_ordering::equal;
  }
  int c = AsStr().compare(other.AsStr());
  return c <=> 0;
}

size_t Value::Hash() const {
  switch (type()) {
    case DataType::kNull:
      return 0x9e3779b97f4a7c15ULL;
    case DataType::kInt64:
      return std::hash<int64_t>()(AsInt());
    case DataType::kDouble: {
      double d = AsReal();
      // Hash integral doubles like their int64 counterpart so mixed-type
      // keys that compare equal also hash equal.
      if (d == std::floor(d) && std::abs(d) < 9.2e18) {
        return std::hash<int64_t>()(static_cast<int64_t>(d));
      }
      return std::hash<double>()(d);
    }
    case DataType::kString:
      return std::hash<std::string>()(AsStr());
  }
  return 0;
}

void EncodeValue(const Value& v, ByteWriter* w) {
  w->PutU8(static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case DataType::kNull:
      break;
    case DataType::kInt64:
      w->PutI64(v.AsInt());
      break;
    case DataType::kDouble:
      w->PutDouble(v.AsReal());
      break;
    case DataType::kString:
      w->PutString(v.AsStr());
      break;
  }
}

Result<Value> DecodeValue(ByteReader* r) {
  STATDB_ASSIGN_OR_RETURN(uint8_t tag, r->GetU8());
  switch (static_cast<DataType>(tag)) {
    case DataType::kNull:
      return Value::Null();
    case DataType::kInt64: {
      STATDB_ASSIGN_OR_RETURN(int64_t v, r->GetI64());
      return Value::Int(v);
    }
    case DataType::kDouble: {
      STATDB_ASSIGN_OR_RETURN(double v, r->GetDouble());
      return Value::Real(v);
    }
    case DataType::kString: {
      STATDB_ASSIGN_OR_RETURN(std::string v, r->GetString());
      return Value::Str(std::move(v));
    }
    default:
      return DataLossError("bad value tag");
  }
}

}  // namespace statdb
