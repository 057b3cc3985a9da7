#ifndef STATDB_RELATIONAL_EXPR_H_
#define STATDB_RELATIONAL_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "relational/schema.h"
#include "relational/table.h"
#include "relational/value.h"

namespace statdb {

/// Expression node kinds. Booleans are Int64 0/1; any null operand
/// propagates null through arithmetic and comparisons (SQL-style
/// three-valued logic for AND/OR/NOT).
enum class ExprOp : uint8_t {
  kColumn,
  kLiteral,
  // binary arithmetic
  kAdd,
  kSub,
  kMul,
  kDiv,
  // binary comparison
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  // logical
  kAnd,
  kOr,
  kNot,
  // unary math
  kNeg,
  kLog,
  kAbs,
  kSqrt,
  kExp,
  // null tests (never return null)
  kIsNull,
  kIsNotNull,
};

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// Immutable expression tree. Analysts specify predicate updates ("mark
/// INCOME missing where INCOME > 10^6") and derived columns
/// ("log(INCOME)", "A+B+C") with these (§4.1). The engine binds them once
/// and evaluates a page of rows at a time (relational/bound_expr.h).
class Expr {
 public:
  /// Evaluates against one `row` interpreted by `schema`: the one-row
  /// API, and the reference the batch evaluator is tested against.
  Result<Value> Eval(const Row& row, const Schema& schema) const;

  ExprOp op() const { return op_; }
  const std::string& column_name() const { return column_; }
  const Value& literal() const { return literal_; }
  const ExprPtr& lhs() const { return lhs_; }
  const ExprPtr& rhs() const { return rhs_; }

  /// Names of all columns the expression reads (deduplicated) — the
  /// Management Database uses this to decide which cached summaries an
  /// update invalidates.
  std::vector<std::string> ReferencedColumns() const;

  std::string ToString() const;

  /// Deepest tree the engine binds, stores or decodes. Every walk of a
  /// tree recurses once per level; BoundExpr::Bind refuses a deeper tree
  /// before anything is staged or stored, and Deserialize refuses one as
  /// DATA_LOSS, so no walk outgrows the stack.
  static constexpr size_t kMaxDepth = 1000;

  /// Binary (de)serialization — used by the Management Database to
  /// persist view definitions, predicate updates and derived-column
  /// rules (§3.2: it is "a repository for ... view definitions").
  void Serialize(ByteWriter* w) const;
  static Result<ExprPtr> Deserialize(ByteReader* r);

  // Node factories (free-function helpers below are the public sugar).
  static ExprPtr MakeColumn(std::string name);
  static ExprPtr MakeLiteral(Value v);
  static ExprPtr MakeBinary(ExprOp op, ExprPtr lhs, ExprPtr rhs);
  static ExprPtr MakeUnary(ExprOp op, ExprPtr operand);

 private:
  Expr() = default;

  ExprOp op_ = ExprOp::kLiteral;
  std::string column_;
  Value literal_;
  ExprPtr lhs_;
  ExprPtr rhs_;
};

// Terse builders: Col("INCOME") > Lit(1e6) style composition.
ExprPtr Col(std::string name);
ExprPtr Lit(Value v);
inline ExprPtr Lit(int64_t v) { return Lit(Value::Int(v)); }
inline ExprPtr Lit(double v) { return Lit(Value::Real(v)); }
inline ExprPtr Lit(const char* v) { return Lit(Value::Str(v)); }

ExprPtr Add(ExprPtr a, ExprPtr b);
ExprPtr Sub(ExprPtr a, ExprPtr b);
ExprPtr Mul(ExprPtr a, ExprPtr b);
ExprPtr Div(ExprPtr a, ExprPtr b);
ExprPtr Eq(ExprPtr a, ExprPtr b);
ExprPtr Ne(ExprPtr a, ExprPtr b);
ExprPtr Lt(ExprPtr a, ExprPtr b);
ExprPtr Le(ExprPtr a, ExprPtr b);
ExprPtr Gt(ExprPtr a, ExprPtr b);
ExprPtr Ge(ExprPtr a, ExprPtr b);
ExprPtr And(ExprPtr a, ExprPtr b);
ExprPtr Or(ExprPtr a, ExprPtr b);
ExprPtr Not(ExprPtr a);
ExprPtr Neg(ExprPtr a);
ExprPtr Log(ExprPtr a);
ExprPtr Abs(ExprPtr a);
ExprPtr Sqrt(ExprPtr a);
ExprPtr Exp(ExprPtr a);
ExprPtr IsNull(ExprPtr a);
ExprPtr IsNotNull(ExprPtr a);

/// True iff `v` is a non-null truthy value (non-zero number).
bool IsTrue(const Value& v);

/// The OUT_OF_RANGE error that int64 +, -, *, negation and abs return on
/// overflow, from Expr::Eval and BoundExpr alike.
Status Int64OverflowError(ExprOp op);

}  // namespace statdb

#endif  // STATDB_RELATIONAL_EXPR_H_
