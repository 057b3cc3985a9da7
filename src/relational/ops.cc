#include "relational/ops.h"

#include <algorithm>
#include <array>
#include <numeric>
#include <unordered_map>

#include "relational/bound_expr.h"

namespace statdb {

namespace {

/// Hash of a composite key (vector of cell values).
struct RowKeyHash {
  size_t operator()(const std::vector<Value>& key) const {
    size_t h = 0xcbf29ce484222325ULL;
    for (const Value& v : key) {
      h ^= v.Hash();
      h *= 0x100000001b3ULL;
    }
    return h;
  }
};

}  // namespace

Result<Table> Select(const Table& t, const Expr& pred) {
  STATDB_ASSIGN_OR_RETURN(BoundExpr bound, BoundExpr::Bind(pred, t.schema()));
  const std::vector<size_t>& cols = bound.columns();
  std::vector<ColumnBuffer> bufs(cols.size());
  RowBatch batch;
  batch.columns.resize(t.num_columns());
  for (size_t k = 0; k < cols.size(); ++k) {
    batch.columns[cols[k]] = bufs[k].View(t.schema().attr(cols[k]).type);
  }
  std::array<uint16_t, kBatchRows> sel{};
  std::array<uint16_t, kBatchRows> kept{};
  Table out(t.schema());
  for (size_t lo = 0; lo < t.num_rows(); lo += kBatchRows) {
    batch.size = std::min(kBatchRows, t.num_rows() - lo);
    for (size_t k = 0; k < cols.size(); ++k) {
      STATDB_RETURN_IF_ERROR(bufs[k].Fill(t.schema().attr(cols[k]).type,
                                          t.Column(cols[k]).data() + lo,
                                          batch.size));
    }
    for (size_t i = 0; i < batch.size; ++i) sel[i] = uint16_t(i);
    Status error;
    size_t n = 0;
    if (bound.Filter(batch, sel.data(), batch.size, kept.data(), &n,
                     &error) != BoundExpr::kNoError) {
      return error;
    }
    for (size_t k = 0; k < n; ++k) {
      STATDB_RETURN_IF_ERROR(out.AppendRow(t.GetRow(lo + kept[k])));
    }
  }
  return out;
}

Result<Table> Project(const Table& t, const std::vector<std::string>& cols) {
  std::vector<size_t> idx;
  std::vector<Attribute> attrs;
  for (const std::string& name : cols) {
    STATDB_ASSIGN_OR_RETURN(size_t i, t.schema().IndexOf(name));
    idx.push_back(i);
    attrs.push_back(t.schema().attr(i));
  }
  Table out{Schema(std::move(attrs))};
  for (size_t r = 0; r < t.num_rows(); ++r) {
    Row row;
    row.reserve(idx.size());
    for (size_t i : idx) row.push_back(t.At(r, i));
    STATDB_RETURN_IF_ERROR(out.AppendRow(std::move(row)));
  }
  return out;
}

Result<Table> HashJoin(const Table& left, const Table& right,
                       const std::vector<std::string>& left_keys,
                       const std::vector<std::string>& right_keys) {
  if (left_keys.size() != right_keys.size() || left_keys.empty()) {
    return InvalidArgumentError("join key lists must be equal and nonempty");
  }
  std::vector<size_t> lkey, rkey;
  for (const auto& k : left_keys) {
    STATDB_ASSIGN_OR_RETURN(size_t i, left.schema().IndexOf(k));
    lkey.push_back(i);
  }
  for (const auto& k : right_keys) {
    STATDB_ASSIGN_OR_RETURN(size_t i, right.schema().IndexOf(k));
    rkey.push_back(i);
  }
  // Output schema: left columns, then right non-key columns.
  std::vector<Attribute> attrs = left.schema().attrs();
  std::vector<size_t> rout;  // right columns carried to the output
  for (size_t i = 0; i < right.schema().size(); ++i) {
    if (std::find(rkey.begin(), rkey.end(), i) != rkey.end()) continue;
    Attribute a = right.schema().attr(i);
    if (left.schema().Contains(a.name)) a.name += "_r";
    attrs.push_back(std::move(a));
    rout.push_back(i);
  }
  Table out{Schema(std::move(attrs))};

  // Build on the smaller input conceptually; here we always build right.
  std::unordered_map<std::vector<Value>, std::vector<size_t>, RowKeyHash>
      ht;
  for (size_t r = 0; r < right.num_rows(); ++r) {
    std::vector<Value> key;
    key.reserve(rkey.size());
    bool has_null = false;
    for (size_t i : rkey) {
      const Value& v = right.At(r, i);
      has_null = has_null || v.is_null();
      key.push_back(v);
    }
    if (has_null) continue;  // nulls never join
    ht[std::move(key)].push_back(r);
  }
  for (size_t l = 0; l < left.num_rows(); ++l) {
    std::vector<Value> key;
    key.reserve(lkey.size());
    bool has_null = false;
    for (size_t i : lkey) {
      const Value& v = left.At(l, i);
      has_null = has_null || v.is_null();
      key.push_back(v);
    }
    if (has_null) continue;
    auto it = ht.find(key);
    if (it == ht.end()) continue;
    for (size_t r : it->second) {
      Row row = left.GetRow(l);
      for (size_t i : rout) row.push_back(right.At(r, i));
      STATDB_RETURN_IF_ERROR(out.AppendRow(std::move(row)));
    }
  }
  return out;
}

Result<Table> SortBy(const Table& t, const std::vector<std::string>& cols) {
  std::vector<size_t> idx;
  for (const auto& name : cols) {
    STATDB_ASSIGN_OR_RETURN(size_t i, t.schema().IndexOf(name));
    idx.push_back(i);
  }
  std::vector<size_t> order(t.num_rows());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    for (size_t i : idx) {
      auto c = t.At(a, i).Compare(t.At(b, i));
      if (c != std::strong_ordering::equal) {
        return c == std::strong_ordering::less;
      }
    }
    return false;
  });
  Table out(t.schema());
  for (size_t r : order) {
    STATDB_RETURN_IF_ERROR(out.AppendRow(t.GetRow(r)));
  }
  return out;
}

Result<Table> GroupByAggregate(const Table& t,
                               const std::vector<std::string>& group_cols,
                               const std::vector<AggSpec>& aggs) {
  std::vector<size_t> gidx;
  std::vector<Attribute> attrs;
  for (const auto& name : group_cols) {
    STATDB_ASSIGN_OR_RETURN(size_t i, t.schema().IndexOf(name));
    gidx.push_back(i);
    attrs.push_back(t.schema().attr(i));
  }
  struct AggCol {
    AggSpec spec;
    size_t input = 0;   // valid unless kCount
    size_t weight = 0;  // valid for kWeightedAvg
  };
  std::vector<AggCol> acols;
  for (const AggSpec& spec : aggs) {
    AggCol ac{spec, 0, 0};
    if (spec.kind != AggSpec::Kind::kCount) {
      STATDB_ASSIGN_OR_RETURN(ac.input, t.schema().IndexOf(spec.input));
    }
    if (spec.kind == AggSpec::Kind::kWeightedAvg) {
      STATDB_ASSIGN_OR_RETURN(ac.weight, t.schema().IndexOf(spec.weight));
    }
    DataType out_type = spec.kind == AggSpec::Kind::kCount
                            ? DataType::kInt64
                            : (spec.kind == AggSpec::Kind::kMin ||
                               spec.kind == AggSpec::Kind::kMax)
                                  ? t.schema().attr(ac.input).type
                                  : DataType::kDouble;
    attrs.push_back(Attribute{spec.output, out_type, AttributeKind::kValue,
                              "", true});
    acols.push_back(std::move(ac));
  }

  struct Acc {
    int64_t count = 0;
    double sum = 0;
    double wsum = 0;      // sum of weights (kWeightedAvg)
    double wvsum = 0;     // sum of value*weight
    int64_t non_null = 0;
    Value min, max;
  };
  std::unordered_map<std::vector<Value>, std::vector<Acc>, RowKeyHash> groups;
  std::vector<std::vector<Value>> group_order;  // first-seen order

  for (size_t r = 0; r < t.num_rows(); ++r) {
    std::vector<Value> key;
    key.reserve(gidx.size());
    for (size_t i : gidx) key.push_back(t.At(r, i));
    auto it = groups.find(key);
    if (it == groups.end()) {
      it = groups.emplace(key, std::vector<Acc>(acols.size())).first;
      group_order.push_back(key);
    }
    for (size_t a = 0; a < acols.size(); ++a) {
      Acc& acc = it->second[a];
      const AggCol& ac = acols[a];
      ++acc.count;
      if (ac.spec.kind == AggSpec::Kind::kCount) continue;
      const Value& v = t.At(r, ac.input);
      if (v.is_null()) continue;
      ++acc.non_null;
      switch (ac.spec.kind) {
        case AggSpec::Kind::kSum:
        case AggSpec::Kind::kAvg: {
          STATDB_ASSIGN_OR_RETURN(double d, v.ToDouble());
          acc.sum += d;
          break;
        }
        case AggSpec::Kind::kMin:
          if (acc.min.is_null() || v < acc.min) acc.min = v;
          break;
        case AggSpec::Kind::kMax:
          if (acc.max.is_null() || acc.max < v) acc.max = v;
          break;
        case AggSpec::Kind::kWeightedAvg: {
          const Value& w = t.At(r, ac.weight);
          if (w.is_null()) break;
          STATDB_ASSIGN_OR_RETURN(double d, v.ToDouble());
          STATDB_ASSIGN_OR_RETURN(double wd, w.ToDouble());
          acc.wvsum += d * wd;
          acc.wsum += wd;
          break;
        }
        default:
          break;
      }
    }
  }

  Table out{Schema(std::move(attrs))};
  for (const auto& key : group_order) {
    const std::vector<Acc>& accs = groups.at(key);
    Row row = key;
    for (size_t a = 0; a < acols.size(); ++a) {
      const Acc& acc = accs[a];
      switch (acols[a].spec.kind) {
        case AggSpec::Kind::kCount:
          row.push_back(Value::Int(acc.count));
          break;
        case AggSpec::Kind::kSum:
          row.push_back(acc.non_null == 0 ? Value::Null()
                                          : Value::Real(acc.sum));
          break;
        case AggSpec::Kind::kAvg:
          row.push_back(acc.non_null == 0
                            ? Value::Null()
                            : Value::Real(acc.sum / double(acc.non_null)));
          break;
        case AggSpec::Kind::kMin:
          row.push_back(acc.min);
          break;
        case AggSpec::Kind::kMax:
          row.push_back(acc.max);
          break;
        case AggSpec::Kind::kWeightedAvg:
          row.push_back(acc.wsum == 0 ? Value::Null()
                                      : Value::Real(acc.wvsum / acc.wsum));
          break;
      }
    }
    STATDB_RETURN_IF_ERROR(out.AppendRow(std::move(row)));
  }
  return out;
}

Result<Table> SampleBernoulli(const Table& t, double p, Rng* rng) {
  if (p < 0.0 || p > 1.0) {
    return InvalidArgumentError("sampling probability out of [0,1]");
  }
  Table out(t.schema());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    if (rng->Bernoulli(p)) {
      STATDB_RETURN_IF_ERROR(out.AppendRow(t.GetRow(r)));
    }
  }
  return out;
}

Result<Table> SampleReservoir(const Table& t, size_t k, Rng* rng) {
  std::vector<size_t> reservoir;
  reservoir.reserve(k);
  for (size_t r = 0; r < t.num_rows(); ++r) {
    if (reservoir.size() < k) {
      reservoir.push_back(r);
    } else {
      size_t j = static_cast<size_t>(rng->UniformInt(0, int64_t(r)));
      if (j < k) reservoir[j] = r;
    }
  }
  std::sort(reservoir.begin(), reservoir.end());
  Table out(t.schema());
  for (size_t r : reservoir) {
    STATDB_RETURN_IF_ERROR(out.AppendRow(t.GetRow(r)));
  }
  return out;
}

Result<Table> DecodeColumn(const Table& t, const std::string& column,
                           const Table& code_table,
                           const std::string& code_col,
                           const std::string& label_col) {
  STATDB_ASSIGN_OR_RETURN(size_t cidx, t.schema().IndexOf(column));
  STATDB_ASSIGN_OR_RETURN(size_t kidx, code_table.schema().IndexOf(code_col));
  STATDB_ASSIGN_OR_RETURN(size_t lidx, code_table.schema().IndexOf(label_col));
  std::unordered_map<Value, Value, ValueHash> mapping;
  for (size_t r = 0; r < code_table.num_rows(); ++r) {
    mapping[code_table.At(r, kidx)] = code_table.At(r, lidx);
  }
  std::vector<Attribute> attrs = t.schema().attrs();
  attrs[cidx].type = code_table.schema().attr(lidx).type;
  attrs[cidx].code_table.clear();  // now decoded
  Table out{Schema(std::move(attrs))};
  for (size_t r = 0; r < t.num_rows(); ++r) {
    Row row = t.GetRow(r);
    auto it = mapping.find(row[cidx]);
    row[cidx] = it == mapping.end() ? Value::Null() : it->second;
    STATDB_RETURN_IF_ERROR(out.AppendRow(std::move(row)));
  }
  return out;
}

}  // namespace statdb
