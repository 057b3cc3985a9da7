#include "relational/expr.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/bytes.h"

namespace statdb {

ExprPtr Expr::MakeColumn(std::string name) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->op_ = ExprOp::kColumn;
  e->column_ = std::move(name);
  return e;
}

ExprPtr Expr::MakeLiteral(Value v) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->op_ = ExprOp::kLiteral;
  e->literal_ = std::move(v);
  return e;
}

ExprPtr Expr::MakeBinary(ExprOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->op_ = op;
  e->lhs_ = std::move(lhs);
  e->rhs_ = std::move(rhs);
  return e;
}

ExprPtr Expr::MakeUnary(ExprOp op, ExprPtr operand) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->op_ = op;
  e->lhs_ = std::move(operand);
  return e;
}

namespace {

Result<Value> EvalArith(ExprOp op, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  // Integer arithmetic stays integral except division.
  if (a.type() == DataType::kInt64 && b.type() == DataType::kInt64 &&
      op != ExprOp::kDiv) {
    int64_t x = a.AsInt(), y = b.AsInt(), z = 0;
    bool overflow = false;
    switch (op) {
      case ExprOp::kAdd: overflow = __builtin_add_overflow(x, y, &z); break;
      case ExprOp::kSub: overflow = __builtin_sub_overflow(x, y, &z); break;
      default: overflow = __builtin_mul_overflow(x, y, &z); break;
    }
    if (overflow) return Int64OverflowError(op);
    return Value::Int(z);
  }
  STATDB_ASSIGN_OR_RETURN(double x, a.ToDouble());
  STATDB_ASSIGN_OR_RETURN(double y, b.ToDouble());
  switch (op) {
    case ExprOp::kAdd: return Value::Real(x + y);
    case ExprOp::kSub: return Value::Real(x - y);
    case ExprOp::kMul: return Value::Real(x * y);
    case ExprOp::kDiv:
      if (y == 0.0) return Value::Null();
      return Value::Real(x / y);
    default:
      return InternalError("bad arithmetic op");
  }
}

Value EvalCompare(ExprOp op, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  auto c = a.Compare(b);
  bool r = false;
  switch (op) {
    case ExprOp::kEq: r = c == std::strong_ordering::equal; break;
    case ExprOp::kNe: r = c != std::strong_ordering::equal; break;
    case ExprOp::kLt: r = c == std::strong_ordering::less; break;
    case ExprOp::kLe: r = c != std::strong_ordering::greater; break;
    case ExprOp::kGt: r = c == std::strong_ordering::greater; break;
    case ExprOp::kGe: r = c != std::strong_ordering::less; break;
    default: break;
  }
  return Value::Int(r ? 1 : 0);
}

constexpr int64_t kInt64Min = std::numeric_limits<int64_t>::min();

}  // namespace

Status Int64OverflowError(ExprOp op) {
  const char* what = op == ExprOp::kAdd   ? "+"
                     : op == ExprOp::kSub ? "-"
                     : op == ExprOp::kMul ? "*"
                     : op == ExprOp::kNeg ? "negation"
                                          : "abs";
  return OutOfRangeError(std::string("int64 overflow in ") + what);
}

bool IsTrue(const Value& v) {
  if (v.is_null()) return false;
  if (v.type() == DataType::kInt64) return v.AsInt() != 0;
  if (v.type() == DataType::kDouble) return v.AsReal() != 0.0;
  return false;
}

Result<Value> Expr::Eval(const Row& row, const Schema& schema) const {
  switch (op_) {
    case ExprOp::kColumn: {
      STATDB_ASSIGN_OR_RETURN(size_t idx, schema.IndexOf(column_));
      if (idx >= row.size()) {
        return OutOfRangeError("row narrower than schema");
      }
      return row[idx];
    }
    case ExprOp::kLiteral:
      return literal_;
    case ExprOp::kAdd:
    case ExprOp::kSub:
    case ExprOp::kMul:
    case ExprOp::kDiv: {
      STATDB_ASSIGN_OR_RETURN(Value a, lhs_->Eval(row, schema));
      STATDB_ASSIGN_OR_RETURN(Value b, rhs_->Eval(row, schema));
      return EvalArith(op_, a, b);
    }
    case ExprOp::kEq:
    case ExprOp::kNe:
    case ExprOp::kLt:
    case ExprOp::kLe:
    case ExprOp::kGt:
    case ExprOp::kGe: {
      STATDB_ASSIGN_OR_RETURN(Value a, lhs_->Eval(row, schema));
      STATDB_ASSIGN_OR_RETURN(Value b, rhs_->Eval(row, schema));
      return EvalCompare(op_, a, b);
    }
    case ExprOp::kAnd: {
      STATDB_ASSIGN_OR_RETURN(Value a, lhs_->Eval(row, schema));
      if (!a.is_null() && !IsTrue(a)) return Value::Int(0);
      STATDB_ASSIGN_OR_RETURN(Value b, rhs_->Eval(row, schema));
      if (!b.is_null() && !IsTrue(b)) return Value::Int(0);
      if (a.is_null() || b.is_null()) return Value::Null();
      return Value::Int(1);
    }
    case ExprOp::kOr: {
      STATDB_ASSIGN_OR_RETURN(Value a, lhs_->Eval(row, schema));
      if (IsTrue(a)) return Value::Int(1);
      STATDB_ASSIGN_OR_RETURN(Value b, rhs_->Eval(row, schema));
      if (IsTrue(b)) return Value::Int(1);
      if (a.is_null() || b.is_null()) return Value::Null();
      return Value::Int(0);
    }
    case ExprOp::kNot: {
      STATDB_ASSIGN_OR_RETURN(Value a, lhs_->Eval(row, schema));
      if (a.is_null()) return Value::Null();
      return Value::Int(IsTrue(a) ? 0 : 1);
    }
    case ExprOp::kNeg: {
      STATDB_ASSIGN_OR_RETURN(Value a, lhs_->Eval(row, schema));
      if (a.is_null()) return Value::Null();
      if (a.type() == DataType::kInt64) {
        if (a.AsInt() == kInt64Min) return Int64OverflowError(op_);
        return Value::Int(-a.AsInt());
      }
      STATDB_ASSIGN_OR_RETURN(double x, a.ToDouble());
      return Value::Real(-x);
    }
    case ExprOp::kLog: {
      STATDB_ASSIGN_OR_RETURN(Value a, lhs_->Eval(row, schema));
      if (a.is_null()) return Value::Null();
      STATDB_ASSIGN_OR_RETURN(double x, a.ToDouble());
      if (x <= 0) return Value::Null();
      return Value::Real(std::log(x));
    }
    case ExprOp::kAbs: {
      STATDB_ASSIGN_OR_RETURN(Value a, lhs_->Eval(row, schema));
      if (a.is_null()) return Value::Null();
      if (a.type() == DataType::kInt64) {
        if (a.AsInt() == kInt64Min) return Int64OverflowError(op_);
        return Value::Int(std::abs(a.AsInt()));
      }
      STATDB_ASSIGN_OR_RETURN(double x, a.ToDouble());
      return Value::Real(std::abs(x));
    }
    case ExprOp::kSqrt: {
      STATDB_ASSIGN_OR_RETURN(Value a, lhs_->Eval(row, schema));
      if (a.is_null()) return Value::Null();
      STATDB_ASSIGN_OR_RETURN(double x, a.ToDouble());
      if (x < 0) return Value::Null();
      return Value::Real(std::sqrt(x));
    }
    case ExprOp::kExp: {
      STATDB_ASSIGN_OR_RETURN(Value a, lhs_->Eval(row, schema));
      if (a.is_null()) return Value::Null();
      STATDB_ASSIGN_OR_RETURN(double x, a.ToDouble());
      return Value::Real(std::exp(x));
    }
    case ExprOp::kIsNull: {
      STATDB_ASSIGN_OR_RETURN(Value a, lhs_->Eval(row, schema));
      return Value::Int(a.is_null() ? 1 : 0);
    }
    case ExprOp::kIsNotNull: {
      STATDB_ASSIGN_OR_RETURN(Value a, lhs_->Eval(row, schema));
      return Value::Int(a.is_null() ? 0 : 1);
    }
  }
  return InternalError("bad expression op");
}

void CollectColumns(const Expr& e, std::vector<std::string>* out) {
  if (e.op() == ExprOp::kColumn) {
    if (std::find(out->begin(), out->end(), e.column_name()) == out->end()) {
      out->push_back(e.column_name());
    }
  }
  if (e.lhs() != nullptr) CollectColumns(*e.lhs(), out);
  if (e.rhs() != nullptr) CollectColumns(*e.rhs(), out);
}

std::vector<std::string> Expr::ReferencedColumns() const {
  std::vector<std::string> out;
  CollectColumns(*this, &out);
  return out;
}

std::string Expr::ToString() const {
  auto bin = [this](const char* sym) {
    return "(" + lhs_->ToString() + " " + sym + " " + rhs_->ToString() + ")";
  };
  switch (op_) {
    case ExprOp::kColumn: return column_;
    case ExprOp::kLiteral: return literal_.ToString();
    case ExprOp::kAdd: return bin("+");
    case ExprOp::kSub: return bin("-");
    case ExprOp::kMul: return bin("*");
    case ExprOp::kDiv: return bin("/");
    case ExprOp::kEq: return bin("=");
    case ExprOp::kNe: return bin("<>");
    case ExprOp::kLt: return bin("<");
    case ExprOp::kLe: return bin("<=");
    case ExprOp::kGt: return bin(">");
    case ExprOp::kGe: return bin(">=");
    case ExprOp::kAnd: return bin("AND");
    case ExprOp::kOr: return bin("OR");
    case ExprOp::kNot: return "NOT " + lhs_->ToString();
    case ExprOp::kNeg: return "-" + lhs_->ToString();
    case ExprOp::kLog: return "log(" + lhs_->ToString() + ")";
    case ExprOp::kAbs: return "abs(" + lhs_->ToString() + ")";
    case ExprOp::kSqrt: return "sqrt(" + lhs_->ToString() + ")";
    case ExprOp::kExp: return "exp(" + lhs_->ToString() + ")";
    case ExprOp::kIsNull: return lhs_->ToString() + " IS NULL";
    case ExprOp::kIsNotNull: return lhs_->ToString() + " IS NOT NULL";
  }
  return "?";
}

void Expr::Serialize(ByteWriter* w) const {
  w->PutU8(static_cast<uint8_t>(op_));
  switch (op_) {
    case ExprOp::kColumn:
      w->PutString(column_);
      return;
    case ExprOp::kLiteral:
      EncodeValue(literal_, w);
      return;
    default:
      break;
  }
  // Unary and binary nodes: lhs always present, rhs flagged.
  lhs_->Serialize(w);
  w->PutU8(rhs_ != nullptr ? 1 : 0);
  if (rhs_ != nullptr) rhs_->Serialize(w);
}

namespace {

// Decodes the node at `depth` (the root is 1) and its operands.
Result<ExprPtr> DeserializeNode(ByteReader* r, size_t depth) {
  if (depth > Expr::kMaxDepth) {
    return DataLossError("expression deeper than " +
                         std::to_string(Expr::kMaxDepth) + " levels");
  }
  STATDB_ASSIGN_OR_RETURN(uint8_t op_raw, r->GetU8());
  if (op_raw > static_cast<uint8_t>(ExprOp::kIsNotNull)) {
    return DataLossError("bad expression op tag");
  }
  ExprOp op = static_cast<ExprOp>(op_raw);
  if (op == ExprOp::kColumn) {
    STATDB_ASSIGN_OR_RETURN(std::string name, r->GetString());
    return Expr::MakeColumn(std::move(name));
  }
  if (op == ExprOp::kLiteral) {
    STATDB_ASSIGN_OR_RETURN(Value v, DecodeValue(r));
    return Expr::MakeLiteral(std::move(v));
  }
  STATDB_ASSIGN_OR_RETURN(ExprPtr lhs, DeserializeNode(r, depth + 1));
  STATDB_ASSIGN_OR_RETURN(uint8_t has_rhs, r->GetU8());
  // Evaluation dereferences both children of a binary node and only the
  // left one of a unary node: a mismatched arity is corruption.
  const bool binary = op <= ExprOp::kOr;
  if ((has_rhs != 0) != binary) {
    return DataLossError("expression node has the wrong arity");
  }
  if (has_rhs == 0) {
    return Expr::MakeUnary(op, std::move(lhs));
  }
  STATDB_ASSIGN_OR_RETURN(ExprPtr rhs, DeserializeNode(r, depth + 1));
  return Expr::MakeBinary(op, std::move(lhs), std::move(rhs));
}

}  // namespace

Result<ExprPtr> Expr::Deserialize(ByteReader* r) {
  return AsDataLoss(DeserializeNode(r, 1));
}

ExprPtr Col(std::string name) { return Expr::MakeColumn(std::move(name)); }
ExprPtr Lit(Value v) { return Expr::MakeLiteral(std::move(v)); }

ExprPtr Add(ExprPtr a, ExprPtr b) {
  return Expr::MakeBinary(ExprOp::kAdd, std::move(a), std::move(b));
}
ExprPtr Sub(ExprPtr a, ExprPtr b) {
  return Expr::MakeBinary(ExprOp::kSub, std::move(a), std::move(b));
}
ExprPtr Mul(ExprPtr a, ExprPtr b) {
  return Expr::MakeBinary(ExprOp::kMul, std::move(a), std::move(b));
}
ExprPtr Div(ExprPtr a, ExprPtr b) {
  return Expr::MakeBinary(ExprOp::kDiv, std::move(a), std::move(b));
}
ExprPtr Eq(ExprPtr a, ExprPtr b) {
  return Expr::MakeBinary(ExprOp::kEq, std::move(a), std::move(b));
}
ExprPtr Ne(ExprPtr a, ExprPtr b) {
  return Expr::MakeBinary(ExprOp::kNe, std::move(a), std::move(b));
}
ExprPtr Lt(ExprPtr a, ExprPtr b) {
  return Expr::MakeBinary(ExprOp::kLt, std::move(a), std::move(b));
}
ExprPtr Le(ExprPtr a, ExprPtr b) {
  return Expr::MakeBinary(ExprOp::kLe, std::move(a), std::move(b));
}
ExprPtr Gt(ExprPtr a, ExprPtr b) {
  return Expr::MakeBinary(ExprOp::kGt, std::move(a), std::move(b));
}
ExprPtr Ge(ExprPtr a, ExprPtr b) {
  return Expr::MakeBinary(ExprOp::kGe, std::move(a), std::move(b));
}
ExprPtr And(ExprPtr a, ExprPtr b) {
  return Expr::MakeBinary(ExprOp::kAnd, std::move(a), std::move(b));
}
ExprPtr Or(ExprPtr a, ExprPtr b) {
  return Expr::MakeBinary(ExprOp::kOr, std::move(a), std::move(b));
}
ExprPtr Not(ExprPtr a) { return Expr::MakeUnary(ExprOp::kNot, std::move(a)); }
ExprPtr Neg(ExprPtr a) { return Expr::MakeUnary(ExprOp::kNeg, std::move(a)); }
ExprPtr Log(ExprPtr a) { return Expr::MakeUnary(ExprOp::kLog, std::move(a)); }
ExprPtr Abs(ExprPtr a) { return Expr::MakeUnary(ExprOp::kAbs, std::move(a)); }
ExprPtr Sqrt(ExprPtr a) {
  return Expr::MakeUnary(ExprOp::kSqrt, std::move(a));
}
ExprPtr Exp(ExprPtr a) { return Expr::MakeUnary(ExprOp::kExp, std::move(a)); }
ExprPtr IsNull(ExprPtr a) {
  return Expr::MakeUnary(ExprOp::kIsNull, std::move(a));
}
ExprPtr IsNotNull(ExprPtr a) {
  return Expr::MakeUnary(ExprOp::kIsNotNull, std::move(a));
}

}  // namespace statdb
