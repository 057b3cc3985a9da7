#include "relational/bound_expr.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

namespace statdb {

/// One bound node. Leaves and computed nodes alike expose their cells
/// through `out`: a column node points it at the batch, every other node
/// at its own buffers (a literal's are filled once, at bind time).
struct BoundExpr::Node {
  static constexpr size_t kNone = SIZE_MAX;

  ExprOp op = ExprOp::kLiteral;
  DataType type = DataType::kNull;
  size_t lhs = kNone;
  size_t rhs = kNone;
  size_t column = 0;  // kColumn: schema position
  Value literal;      // kLiteral
  ColumnVector out;

  std::vector<uint8_t> valid;
  std::vector<int64_t> ints;
  std::vector<double> reals;
  std::vector<std::string_view> strs;
  // Logic nodes: per-row truth of each side (-1 null, 0 false, 1 true)
  // and the rows an AND/OR must still ask its right side about.
  std::vector<int8_t> left_truth;
  std::vector<int8_t> right_truth;
  std::vector<uint16_t> undecided;
};

namespace {

constexpr size_t kNoError = BoundExpr::kNoError;

/// Writable cells of a computed node.
struct OutCells {
  uint8_t* valid;
  int64_t* ints;
  double* reals;
};

bool IsArith(ExprOp op) {
  return op == ExprOp::kAdd || op == ExprOp::kSub || op == ExprOp::kMul ||
         op == ExprOp::kDiv;
}

/// Binary ops are the ones declared from kAdd through kOr.
bool IsBinary(ExprOp op) {
  return op >= ExprOp::kAdd && op <= ExprOp::kOr;
}

/// The result type Expr::Eval gives every non-null result of `op`.
DataType ResultType(ExprOp op, DataType l, DataType r) {
  if (IsArith(op)) {
    if (l == DataType::kNull || r == DataType::kNull) return DataType::kNull;
    if (op != ExprOp::kDiv && l == DataType::kInt64 && r == DataType::kInt64) {
      return DataType::kInt64;
    }
    return DataType::kDouble;
  }
  switch (op) {
    case ExprOp::kNeg:
    case ExprOp::kAbs:
      return l == DataType::kNull || l == DataType::kInt64 ? l
                                                           : DataType::kDouble;
    case ExprOp::kLog:
    case ExprOp::kSqrt:
    case ExprOp::kExp:
      return l == DataType::kNull ? l : DataType::kDouble;
    default:
      return DataType::kInt64;  // comparisons, logic, null tests: 0/1
  }
}

/// Whether `e` has more than `levels` levels; the walk stops there.
bool DeeperThan(const Expr& e, size_t levels) {
  if (levels == 0) return true;
  return (e.lhs() != nullptr && DeeperThan(*e.lhs(), levels - 1)) ||
         (e.rhs() != nullptr && DeeperThan(*e.rhs(), levels - 1));
}

size_t CountNodes(const Expr& e) {
  size_t n = 1;
  if (e.lhs() != nullptr) n += CountNodes(*e.lhs());
  if (e.rhs() != nullptr) n += CountNodes(*e.rhs());
  return n;
}

/// The error Value::ToDouble gives for a string cell.
Status NotNumeric(std::string_view s) {
  return Value::Str(std::string(s)).ToDouble().status();
}

/// A numeric vector's cells promoted to double, as Value::ToDouble and
/// Value::Compare promote them.
struct IntAsReal {
  const int64_t* p;
  double operator()(size_t r) const { return static_cast<double>(p[r]); }
};
struct Real {
  const double* p;
  double operator()(size_t r) const { return p[r]; }
};

template <typename F>
void WithReal(const ColumnVector& v, F&& f) {
  if (v.type == DataType::kInt64) {
    f(IntAsReal{v.ints});
  } else {
    f(Real{v.reals});
  }
}

/// First selected row where both sides are present: where arithmetic on
/// a string operand fails. Other rows are null.
size_t StringOperand(const ColumnVector& a, const ColumnVector& b,
                     const uint16_t* sel, size_t m, OutCells out,
                     Status* error) {
  for (size_t k = 0; k < m; ++k) {
    const uint16_t r = sel[k];
    if (a.valid[r] && b.valid[r]) {
      *error = NotNumeric(a.type == DataType::kString ? a.strs[r] : b.strs[r]);
      return r;
    }
    out.valid[r] = 0;
  }
  return kNoError;
}

/// int64 +, -, * with overflow checks; `f(x, y, &z)` reports overflow.
template <typename F>
size_t IntLoop(ExprOp op, const ColumnVector& a, const ColumnVector& b,
               const uint16_t* sel, size_t m, OutCells out, Status* error,
               F f) {
  bool overflow = false;
  for (size_t k = 0; k < m; ++k) {
    const uint16_t r = sel[k];
    const uint8_t v = a.valid[r] & b.valid[r];
    out.valid[r] = v;
    const bool wrapped = f(a.ints[r], b.ints[r], &out.ints[r]);
    overflow |= wrapped && v != 0;
  }
  if (!overflow) return kNoError;
  for (size_t k = 0; k < m; ++k) {
    const uint16_t r = sel[k];
    int64_t z = 0;
    if (out.valid[r] && f(a.ints[r], b.ints[r], &z)) {
      *error = Int64OverflowError(op);
      return r;
    }
  }
  return kNoError;
}

template <typename X, typename Y>
void RealArith(ExprOp op, X x, Y y, const ColumnVector& a,
               const ColumnVector& b, const uint16_t* sel, size_t m,
               OutCells out) {
  auto each = [&](auto f) {
    for (size_t k = 0; k < m; ++k) {
      const uint16_t r = sel[k];
      out.valid[r] = a.valid[r] & b.valid[r];
      out.reals[r] = f(x(r), y(r));
    }
  };
  switch (op) {
    case ExprOp::kAdd: each([](double p, double q) { return p + q; }); break;
    case ExprOp::kSub: each([](double p, double q) { return p - q; }); break;
    case ExprOp::kMul: each([](double p, double q) { return p * q; }); break;
    default:  // kDiv: a zero divisor gives null
      for (size_t k = 0; k < m; ++k) {
        const uint16_t r = sel[k];
        const double q = y(r);
        out.valid[r] = a.valid[r] & b.valid[r] & uint8_t(q != 0.0);
        out.reals[r] = q != 0.0 ? x(r) / q : 0.0;
      }
      break;
  }
}

size_t Arith(ExprOp op, const ColumnVector& a, const ColumnVector& b,
             const uint16_t* sel, size_t m, OutCells out, Status* error) {
  if (a.type == DataType::kNull || b.type == DataType::kNull) {
    return kNoError;  // every result null; the buffer is all-missing
  }
  if (a.type == DataType::kString || b.type == DataType::kString) {
    return StringOperand(a, b, sel, m, out, error);
  }
  if (a.type == DataType::kInt64 && b.type == DataType::kInt64) {
    switch (op) {
      case ExprOp::kAdd:
        return IntLoop(op, a, b, sel, m, out, error,
                       [](int64_t x, int64_t y, int64_t* z) {
                         return __builtin_add_overflow(x, y, z);
                       });
      case ExprOp::kSub:
        return IntLoop(op, a, b, sel, m, out, error,
                       [](int64_t x, int64_t y, int64_t* z) {
                         return __builtin_sub_overflow(x, y, z);
                       });
      case ExprOp::kMul:
        return IntLoop(op, a, b, sel, m, out, error,
                       [](int64_t x, int64_t y, int64_t* z) {
                         return __builtin_mul_overflow(x, y, z);
                       });
      default:
        break;  // kDiv is real
    }
  }
  WithReal(a, [&](auto x) {
    WithReal(b, [&](auto y) { RealArith(op, x, y, a, b, sel, m, out); });
  });
  return kNoError;
}

/// out[r] = op applied to the three-way comparison cmp(r).
template <typename C>
void CompareLoop(ExprOp op, const uint16_t* sel, size_t m, C cmp,
                 int64_t* out) {
  auto each = [&](auto holds) {
    for (size_t k = 0; k < m; ++k) {
      const uint16_t r = sel[k];
      out[r] = holds(cmp(r)) ? 1 : 0;
    }
  };
  switch (op) {
    case ExprOp::kEq: each([](int c) { return c == 0; }); break;
    case ExprOp::kNe: each([](int c) { return c != 0; }); break;
    case ExprOp::kLt: each([](int c) { return c < 0; }); break;
    case ExprOp::kLe: each([](int c) { return c <= 0; }); break;
    case ExprOp::kGt: each([](int c) { return c > 0; }); break;
    default: each([](int c) { return c >= 0; }); break;  // kGe
  }
}

/// Value::Compare on every selected row: numbers by value (int-int
/// exactly, otherwise as doubles with NaN equal to all), strings
/// lexicographically, numbers before strings.
void Compare(ExprOp op, const ColumnVector& a, const ColumnVector& b,
             const uint16_t* sel, size_t m, OutCells out) {
  if (a.type == DataType::kNull || b.type == DataType::kNull) {
    for (size_t k = 0; k < m; ++k) out.valid[sel[k]] = 0;
    return;
  }
  for (size_t k = 0; k < m; ++k) {
    const uint16_t r = sel[k];
    out.valid[r] = a.valid[r] & b.valid[r];
  }
  const bool sa = a.type == DataType::kString;
  const bool sb = b.type == DataType::kString;
  if (sa && sb) {
    CompareLoop(op, sel, m, [&](size_t r) {
      const int c = a.strs[r].compare(b.strs[r]);
      return (c > 0) - (c < 0);
    }, out.ints);
  } else if (sa || sb) {
    const int c = sa ? 1 : -1;
    CompareLoop(op, sel, m, [c](size_t) { return c; }, out.ints);
  } else if (a.type == DataType::kInt64 && b.type == DataType::kInt64) {
    CompareLoop(op, sel, m, [&](size_t r) {
      return (a.ints[r] > b.ints[r]) - (a.ints[r] < b.ints[r]);
    }, out.ints);
  } else {
    WithReal(a, [&](auto x) {
      WithReal(b, [&](auto y) {
        CompareLoop(op, sel, m, [&](size_t r) {
          const double p = x(r), q = y(r);
          return (p > q) - (p < q);
        }, out.ints);
      });
    });
  }
}

/// IsTrue per selected row, as -1 (null), 0 or 1.
void Truth(const ColumnVector& v, const uint16_t* sel, size_t m,
           int8_t* out) {
  switch (v.type) {
    case DataType::kInt64:
      for (size_t k = 0; k < m; ++k) {
        const uint16_t r = sel[k];
        out[r] = v.valid[r] ? int8_t(v.ints[r] != 0) : int8_t(-1);
      }
      return;
    case DataType::kDouble:
      for (size_t k = 0; k < m; ++k) {
        const uint16_t r = sel[k];
        out[r] = v.valid[r] ? int8_t(v.reals[r] != 0.0) : int8_t(-1);
      }
      return;
    case DataType::kString:  // present strings are not true
      for (size_t k = 0; k < m; ++k) {
        const uint16_t r = sel[k];
        out[r] = v.valid[r] ? int8_t(0) : int8_t(-1);
      }
      return;
    case DataType::kNull:
      for (size_t k = 0; k < m; ++k) out[sel[k]] = -1;
      return;
  }
}

/// NEG, ABS, LOG, SQRT, EXP.
size_t Unary(ExprOp op, const ColumnVector& a, const uint16_t* sel,
             size_t m, OutCells out, Status* error) {
  if (a.type == DataType::kNull) return kNoError;
  if (a.type == DataType::kString) {
    for (size_t k = 0; k < m; ++k) {
      const uint16_t r = sel[k];
      if (a.valid[r]) {
        *error = NotNumeric(a.strs[r]);
        return r;
      }
      out.valid[r] = 0;
    }
    return kNoError;
  }
  if (a.type == DataType::kInt64 &&
      (op == ExprOp::kNeg || op == ExprOp::kAbs)) {
    constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
    bool overflow = false;
    for (size_t k = 0; k < m; ++k) {
      const uint16_t r = sel[k];
      const int64_t x = a.ints[r] == kMin ? 0 : a.ints[r];
      out.valid[r] = a.valid[r];
      out.ints[r] = op == ExprOp::kNeg || x < 0 ? -x : x;
      overflow |= (a.ints[r] == kMin) & (a.valid[r] != 0);
    }
    if (!overflow) return kNoError;
    for (size_t k = 0; k < m; ++k) {
      const uint16_t r = sel[k];
      if (a.valid[r] && a.ints[r] == kMin) {
        *error = Int64OverflowError(op);
        return r;
      }
    }
    return kNoError;
  }
  WithReal(a, [&](auto x) {
    auto each = [&](auto f, auto present) {
      for (size_t k = 0; k < m; ++k) {
        const uint16_t r = sel[k];
        const double d = x(r);
        out.valid[r] = a.valid[r] & uint8_t(present(d));
        out.reals[r] = f(d);
      }
    };
    auto always = [](double) { return true; };
    switch (op) {
      case ExprOp::kNeg: each([](double d) { return -d; }, always); break;
      case ExprOp::kAbs:
        each([](double d) { return std::abs(d); }, always);
        break;
      case ExprOp::kLog:
        each([](double d) { return !(d <= 0) ? std::log(d) : 0.0; },
             [](double d) { return !(d <= 0); });
        break;
      case ExprOp::kSqrt:
        each([](double d) { return d < 0 ? 0.0 : std::sqrt(d); },
             [](double d) { return !(d < 0); });
        break;
      default:  // kExp
        each([](double d) { return std::exp(d); }, always);
        break;
    }
  });
  return kNoError;
}

}  // namespace

Value CellValue(const ColumnVector& v, size_t i) {
  if (v.type == DataType::kNull || !v.valid[i]) return Value::Null();
  switch (v.type) {
    case DataType::kInt64: return Value::Int(v.ints[i]);
    case DataType::kDouble: return Value::Real(v.reals[i]);
    case DataType::kString: return Value::Str(std::string(v.strs[i]));
    case DataType::kNull: break;
  }
  return Value::Null();
}

Status ColumnBuffer::Fill(DataType type, const Value* cells, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const Value& c = cells[i];
    valid[i] = c.is_null() ? 0 : 1;
    if (c.is_null()) continue;
    if (type == DataType::kInt64 && c.type() == DataType::kInt64) {
      ints[i] = c.AsInt();
    } else if (type == DataType::kDouble && c.is_numeric()) {
      reals[i] = c.type() == DataType::kInt64 ? double(c.AsInt()) : c.AsReal();
    } else if (type == DataType::kString && c.type() == DataType::kString) {
      strs[i] = c.AsStr();
    } else {
      return InvalidArgumentError(std::string("cell of type ") +
                                  std::string(DataTypeName(c.type())) +
                                  " in a " +
                                  std::string(DataTypeName(type)) + " column");
    }
  }
  return Status::OK();
}

ColumnVector ColumnBuffer::View(DataType type) const {
  return ColumnVector{type, valid.data(), ints.data(), reals.data(),
                      strs.data()};
}

size_t RowsBefore(const uint16_t* sel, size_t n, size_t row) {
  if (row == kNoError) return n;
  return size_t(std::lower_bound(sel, sel + n, row) - sel);
}

BoundExpr::BoundExpr() = default;
BoundExpr::BoundExpr(BoundExpr&&) noexcept = default;
BoundExpr& BoundExpr::operator=(BoundExpr&&) noexcept = default;
BoundExpr::~BoundExpr() = default;

Result<BoundExpr> BoundExpr::Bind(const Expr& expr, const Schema& schema) {
  if (DeeperThan(expr, Expr::kMaxDepth)) {
    return InvalidArgumentError("expression deeper than " +
                                std::to_string(Expr::kMaxDepth) + " levels");
  }
  BoundExpr bound;
  // Literal string cells view their node's Value: no node may move.
  bound.nodes_.reserve(CountNodes(expr));
  Status status;
  bound.AddNode(expr, schema, &status);
  STATDB_RETURN_IF_ERROR(status);
  std::vector<size_t>& cols = bound.columns_;
  std::sort(cols.begin(), cols.end());
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  return bound;
}

size_t BoundExpr::AddNode(const Expr& e, const Schema& schema,
                          Status* status) {
  const size_t i = nodes_.size();
  nodes_.emplace_back();
  nodes_[i].op = e.op();
  if (e.op() == ExprOp::kColumn) {
    Result<size_t> idx = schema.IndexOf(e.column_name());
    if (!idx.ok()) {
      *status = idx.status();
      return i;
    }
    nodes_[i].column = *idx;
    nodes_[i].type = schema.attr(*idx).type;
    columns_.push_back(*idx);
    return i;
  }
  if (e.op() != ExprOp::kLiteral) {
    const bool binary = IsBinary(e.op());
    if (e.lhs() == nullptr || (e.rhs() != nullptr) != binary) {
      *status = InvalidArgumentError(
          "malformed expression node: op " + std::to_string(int(e.op())) +
          " with the wrong number of operands");
      return i;
    }
    const size_t lhs = AddNode(*e.lhs(), schema, status);
    const size_t rhs =
        binary ? AddNode(*e.rhs(), schema, status) : Node::kNone;
    nodes_[i].lhs = lhs;
    nodes_[i].rhs = rhs;
    nodes_[i].type = ResultType(e.op(), nodes_[lhs].type,
                                binary ? nodes_[rhs].type : DataType::kNull);
  }

  Node& node = nodes_[i];
  node.valid.assign(kBatchRows, 0);
  if (node.type == DataType::kInt64) node.ints.assign(kBatchRows, 0);
  if (node.type == DataType::kDouble) node.reals.assign(kBatchRows, 0.0);
  if (node.op == ExprOp::kLiteral) {
    node.literal = e.literal();
    node.type = node.literal.type();
    node.valid.assign(kBatchRows, node.literal.is_null() ? 0 : 1);
    switch (node.type) {
      case DataType::kInt64:
        node.ints.assign(kBatchRows, node.literal.AsInt());
        break;
      case DataType::kDouble:
        node.reals.assign(kBatchRows, node.literal.AsReal());
        break;
      case DataType::kString:
        node.strs.assign(kBatchRows, std::string_view(node.literal.AsStr()));
        break;
      case DataType::kNull:
        break;
    }
  }
  if (node.op == ExprOp::kAnd || node.op == ExprOp::kOr ||
      node.op == ExprOp::kNot) {
    node.left_truth.assign(kBatchRows, 0);
    if (node.op != ExprOp::kNot) {
      node.right_truth.assign(kBatchRows, 0);
      node.undecided.assign(kBatchRows, 0);
    }
  }
  node.out = ColumnVector{node.type, node.valid.data(), node.ints.data(),
                          node.reals.data(), node.strs.data()};
  return i;
}

const ColumnVector& BoundExpr::result() const { return nodes_[0].out; }

size_t BoundExpr::Eval(const RowBatch& batch, const uint16_t* sel, size_t n,
                       Status* error) {
  return EvalNode(0, batch, sel, n, error);
}

size_t BoundExpr::Filter(const RowBatch& batch, const uint16_t* sel,
                         size_t n, uint16_t* out, size_t* out_n,
                         Status* error) {
  const size_t err = Eval(batch, sel, n, error);
  const size_t m = RowsBefore(sel, n, err);
  const ColumnVector& v = result();
  size_t kept = 0;
  if (v.type == DataType::kInt64) {
    for (size_t k = 0; k < m; ++k) {
      const uint16_t r = sel[k];
      out[kept] = r;
      kept += v.valid[r] & uint8_t(v.ints[r] != 0);
    }
  } else if (v.type == DataType::kDouble) {
    for (size_t k = 0; k < m; ++k) {
      const uint16_t r = sel[k];
      out[kept] = r;
      kept += v.valid[r] & uint8_t(v.reals[r] != 0.0);
    }
  }
  *out_n = kept;
  return err;
}

// Every node evaluates its children first, then its own kernel, each on
// the selected rows before the earliest error found so far: the error
// Expr::Eval meets first in row order is the one with the smallest row,
// and within a row, the left side's before the right side's before the
// node's own.
size_t BoundExpr::EvalNode(size_t i, const RowBatch& batch,
                           const uint16_t* sel, size_t n, Status* error) {
  Node& node = nodes_[i];
  const ExprOp op = node.op;
  if (op == ExprOp::kColumn) {
    node.out = batch.columns[node.column];
    return kNoError;
  }
  if (op == ExprOp::kLiteral) return kNoError;

  size_t err = EvalNode(node.lhs, batch, sel, n, error);
  size_t m = RowsBefore(sel, n, err);
  const ColumnVector& a = nodes_[node.lhs].out;
  OutCells out{node.valid.data(), node.ints.data(), node.reals.data()};

  if (op == ExprOp::kAnd || op == ExprOp::kOr) {
    // The value that decides the node from one side alone.
    const int8_t decides = op == ExprOp::kAnd ? 0 : 1;
    int8_t* ta = node.left_truth.data();
    Truth(a, sel, m, ta);
    size_t u = 0;
    for (size_t k = 0; k < m; ++k) {
      const uint16_t r = sel[k];
      node.undecided[u] = r;
      const bool decided = ta[r] == decides;
      out.valid[r] = 1;
      out.ints[r] = decides;
      u += decided ? 0 : 1;
    }
    const uint16_t* rest = node.undecided.data();
    const size_t e2 = EvalNode(node.rhs, batch, rest, u, error);
    if (e2 != kNoError) {
      err = e2;
      u = RowsBefore(rest, u, e2);
    }
    int8_t* tb = node.right_truth.data();
    Truth(nodes_[node.rhs].out, rest, u, tb);
    for (size_t k = 0; k < u; ++k) {
      const uint16_t r = rest[k];
      const bool decided = tb[r] == decides;
      const bool unknown = ta[r] < 0 || tb[r] < 0;
      out.valid[r] = decided || !unknown ? 1 : 0;
      out.ints[r] = decided ? decides : 1 - decides;
    }
    return err;
  }

  size_t own = kNoError;
  if (node.rhs != Node::kNone) {
    const size_t e2 = EvalNode(node.rhs, batch, sel, m, error);
    if (e2 != kNoError) {
      err = e2;
      m = RowsBefore(sel, m, e2);
    }
    const ColumnVector& b = nodes_[node.rhs].out;
    if (IsArith(op)) {
      own = Arith(op, a, b, sel, m, out, error);
    } else {
      Compare(op, a, b, sel, m, out);
    }
  } else {
    switch (op) {
      case ExprOp::kNot: {
        int8_t* t = node.left_truth.data();
        Truth(a, sel, m, t);
        for (size_t k = 0; k < m; ++k) {
          const uint16_t r = sel[k];
          out.valid[r] = t[r] >= 0 ? 1 : 0;
          out.ints[r] = t[r] == 0 ? 1 : 0;
        }
        break;
      }
      case ExprOp::kIsNull:
      case ExprOp::kIsNotNull: {
        const uint8_t present = op == ExprOp::kIsNotNull ? 1 : 0;
        for (size_t k = 0; k < m; ++k) {
          const uint16_t r = sel[k];
          out.valid[r] = 1;
          out.ints[r] = (a.valid[r] != 0) == (present != 0) ? 1 : 0;
        }
        break;
      }
      default:
        own = Unary(op, a, sel, m, out, error);
        break;
    }
  }
  return own != kNoError ? own : err;
}

}  // namespace statdb
