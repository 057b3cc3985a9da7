#include "relational/table.h"

#include <iomanip>
#include <sstream>

#include "common/bytes.h"

namespace statdb {

Status Table::AppendRow(Row row) {
  if (row.size() != schema_.size()) {
    return InvalidArgumentError("row arity does not match schema");
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (row[i].is_null()) continue;
    DataType expected = schema_.attr(i).type;
    DataType got = row[i].type();
    // Ints are accepted into double columns (encoded/count data is often
    // integral); anything else must match exactly.
    if (got == expected) continue;
    if (expected == DataType::kDouble && got == DataType::kInt64) {
      row[i] = Value::Real(static_cast<double>(row[i].AsInt()));
      continue;
    }
    return InvalidArgumentError(
        "type mismatch in column " + schema_.attr(i).name + ": expected " +
        std::string(DataTypeName(expected)) + ", got " +
        std::string(DataTypeName(got)));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    columns_[i].push_back(std::move(row[i]));
  }
  return Status::OK();
}

Status Table::SetCell(size_t row, size_t col, Value v) {
  if (col >= columns_.size() || row >= num_rows()) {
    return OutOfRangeError("cell index out of range");
  }
  columns_[col][row] = std::move(v);
  return Status::OK();
}

Result<const std::vector<Value>*> Table::ColumnByName(
    const std::string& name) const {
  STATDB_ASSIGN_OR_RETURN(size_t idx, schema_.IndexOf(name));
  return &columns_[idx];
}

Row Table::GetRow(size_t row) const {
  Row out;
  out.reserve(columns_.size());
  for (const auto& col : columns_) {
    out.push_back(col[row]);
  }
  return out;
}

Status Table::AddColumn(Attribute attr, Value fill) {
  if (schema_.Contains(attr.name)) {
    return AlreadyExistsError("column already exists: " + attr.name);
  }
  size_t n = num_rows();
  schema_.Add(std::move(attr));
  columns_.emplace_back(n, fill);
  return Status::OK();
}

Result<std::vector<double>> Table::NumericColumn(
    const std::string& name) const {
  STATDB_ASSIGN_OR_RETURN(size_t idx, schema_.IndexOf(name));
  std::vector<double> out;
  out.reserve(columns_[idx].size());
  for (const Value& v : columns_[idx]) {
    if (v.is_null()) continue;
    STATDB_ASSIGN_OR_RETURN(double d, v.ToDouble());
    out.push_back(d);
  }
  return out;
}

std::string Table::ToString(size_t max_rows) const {
  std::ostringstream os;
  for (size_t i = 0; i < schema_.size(); ++i) {
    if (i > 0) os << " | ";
    os << std::setw(12) << schema_.attr(i).name;
  }
  os << "\n";
  size_t shown = std::min(max_rows, num_rows());
  for (size_t r = 0; r < shown; ++r) {
    for (size_t c = 0; c < schema_.size(); ++c) {
      if (c > 0) os << " | ";
      os << std::setw(12) << At(r, c).ToString();
    }
    os << "\n";
  }
  if (shown < num_rows()) {
    os << "... (" << num_rows() - shown << " more rows)\n";
  }
  return os.str();
}

std::vector<uint8_t> SerializeRow(const Row& row) {
  ByteWriter w;
  w.PutU32(static_cast<uint32_t>(row.size()));
  for (const Value& v : row) {
    w.PutU8(static_cast<uint8_t>(v.type()));
    switch (v.type()) {
      case DataType::kNull:
        break;
      case DataType::kInt64:
        w.PutI64(v.AsInt());
        break;
      case DataType::kDouble:
        w.PutDouble(v.AsReal());
        break;
      case DataType::kString:
        w.PutString(v.AsStr());
        break;
    }
  }
  return w.Take();
}

Result<Row> DeserializeRow(const uint8_t* data, size_t size) {
  ByteReader r(data, size);
  STATDB_ASSIGN_OR_RETURN(uint32_t n, r.GetCount(1));  // a tag per cell
  Row row;
  row.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    STATDB_ASSIGN_OR_RETURN(uint8_t tag, r.GetU8());
    switch (static_cast<DataType>(tag)) {
      case DataType::kNull:
        row.push_back(Value::Null());
        break;
      case DataType::kInt64: {
        STATDB_ASSIGN_OR_RETURN(int64_t v, r.GetI64());
        row.push_back(Value::Int(v));
        break;
      }
      case DataType::kDouble: {
        STATDB_ASSIGN_OR_RETURN(double v, r.GetDouble());
        row.push_back(Value::Real(v));
        break;
      }
      case DataType::kString: {
        STATDB_ASSIGN_OR_RETURN(std::string v, r.GetString());
        row.push_back(Value::Str(std::move(v)));
        break;
      }
      default:
        return DataLossError("bad value tag in serialized row");
    }
  }
  return row;
}

}  // namespace statdb
