#ifndef BULLFROG_QUERY_EXPR_H_
#define BULLFROG_QUERY_EXPR_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "catalog/schema.h"
#include "common/result.h"
#include "common/status.h"
#include "storage/tuple.h"
#include "storage/value.h"

namespace bullfrog {

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// Expression node kinds. Expressions are immutable shared trees; the
/// builder helpers below (Col, Lit, Eq, ...) are the intended way to
/// construct them.
enum class ExprKind : uint8_t {
  kColumn,   ///< A column reference by name (index resolved at Bind time).
  kConst,    ///< A literal Value.
  kCompare,  ///< Binary comparison of two sub-expressions.
  kAnd,
  kOr,
  kNot,
  kArith,    ///< +, -, *, /.
  kIn,       ///< Column/expression IN (v1, v2, ...).
  kIsNull,
};

enum class CompareOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };
enum class ArithOp : uint8_t { kAdd, kSub, kMul, kDiv };

/// An immutable expression tree over the columns of one table.
///
/// Evaluation is two-phase: Bind resolves column names to positional
/// indices against a schema (returning a new bound tree); Eval computes a
/// Value for a tuple. Unbound evaluation resolves names per call (slower,
/// used only in tests).
///
/// NULL semantics: comparisons with NULL yield NULL (three-valued);
/// a predicate is satisfied only if it evaluates to a non-NULL true.
class Expr : public std::enable_shared_from_this<Expr> {
 public:
  ExprKind kind() const { return kind_; }

  // --- accessors by kind (assert-checked) -----------------------------
  const std::string& column_name() const { return column_name_; }
  /// column_index_ of a column reference not yet bound to a schema.
  static constexpr size_t kInvalidIndex = ~size_t{0};
  const Value& constant() const { return constant_; }
  CompareOp compare_op() const { return compare_op_; }
  ArithOp arith_op() const { return arith_op_; }
  const std::vector<ExprPtr>& children() const { return children_; }
  const std::vector<Value>& in_list() const { return in_list_; }

  /// Resolves column names against `schema`, returning a bound copy.
  Result<ExprPtr> Bind(const TableSchema& schema) const;

  /// Evaluates against a row. Requires a bound tree (column indices set).
  /// Returns NULL for three-valued-unknown comparisons.
  Value Eval(const Tuple& row) const;

  /// Evaluates as a predicate: true iff Eval yields a truthy non-NULL.
  bool Matches(const Tuple& row) const;

  /// Collects the distinct column names referenced by this tree.
  void CollectColumns(std::vector<std::string>* out) const;

  std::string ToString() const;

  // --- factory helpers -------------------------------------------------
  static ExprPtr MakeColumn(std::string name);
  static ExprPtr MakeConst(Value v);
  static ExprPtr MakeCompare(CompareOp op, ExprPtr lhs, ExprPtr rhs);
  static ExprPtr MakeAnd(std::vector<ExprPtr> children);
  static ExprPtr MakeOr(std::vector<ExprPtr> children);
  static ExprPtr MakeNot(ExprPtr child);
  static ExprPtr MakeArith(ArithOp op, ExprPtr lhs, ExprPtr rhs);
  static ExprPtr MakeIn(ExprPtr needle, std::vector<Value> values);
  static ExprPtr MakeIsNull(ExprPtr child);

 protected:
  Expr() = default;

 private:
  ExprKind kind_ = ExprKind::kConst;
  std::string column_name_;
  size_t column_index_ = kInvalidIndex;
  Value constant_;
  CompareOp compare_op_ = CompareOp::kEq;
  ArithOp arith_op_ = ArithOp::kAdd;
  std::vector<ExprPtr> children_;
  std::vector<Value> in_list_;
};

// Terse builders used throughout examples, tests and TPC-C code.
inline ExprPtr Col(std::string name) { return Expr::MakeColumn(std::move(name)); }
inline ExprPtr Lit(Value v) { return Expr::MakeConst(std::move(v)); }
inline ExprPtr LitInt(int64_t v) { return Expr::MakeConst(Value::Int(v)); }
inline ExprPtr LitStr(std::string v) {
  return Expr::MakeConst(Value::Str(std::move(v)));
}
inline ExprPtr Eq(ExprPtr a, ExprPtr b) {
  return Expr::MakeCompare(CompareOp::kEq, std::move(a), std::move(b));
}
inline ExprPtr Ne(ExprPtr a, ExprPtr b) {
  return Expr::MakeCompare(CompareOp::kNe, std::move(a), std::move(b));
}
inline ExprPtr Lt(ExprPtr a, ExprPtr b) {
  return Expr::MakeCompare(CompareOp::kLt, std::move(a), std::move(b));
}
inline ExprPtr Le(ExprPtr a, ExprPtr b) {
  return Expr::MakeCompare(CompareOp::kLe, std::move(a), std::move(b));
}
inline ExprPtr Gt(ExprPtr a, ExprPtr b) {
  return Expr::MakeCompare(CompareOp::kGt, std::move(a), std::move(b));
}
inline ExprPtr Ge(ExprPtr a, ExprPtr b) {
  return Expr::MakeCompare(CompareOp::kGe, std::move(a), std::move(b));
}
inline ExprPtr And(ExprPtr a, ExprPtr b) {
  return Expr::MakeAnd({std::move(a), std::move(b)});
}
inline ExprPtr Or(ExprPtr a, ExprPtr b) {
  return Expr::MakeOr({std::move(a), std::move(b)});
}
inline ExprPtr Not(ExprPtr a) { return Expr::MakeNot(std::move(a)); }
inline ExprPtr Add(ExprPtr a, ExprPtr b) {
  return Expr::MakeArith(ArithOp::kAdd, std::move(a), std::move(b));
}
inline ExprPtr Sub(ExprPtr a, ExprPtr b) {
  return Expr::MakeArith(ArithOp::kSub, std::move(a), std::move(b));
}
inline ExprPtr Mul(ExprPtr a, ExprPtr b) {
  return Expr::MakeArith(ArithOp::kMul, std::move(a), std::move(b));
}
inline ExprPtr Div(ExprPtr a, ExprPtr b) {
  return Expr::MakeArith(ArithOp::kDiv, std::move(a), std::move(b));
}

/// Splits a (possibly nested) AND tree into its conjuncts; any non-AND
/// node is its own conjunct. Used by the scan planner and the predicate
/// rewriter.
void SplitConjuncts(const ExprPtr& e, std::vector<ExprPtr>* out);

/// Re-joins conjuncts with AND (nullptr for an empty list == "true").
ExprPtr JoinConjuncts(std::vector<ExprPtr> conjuncts);

/// If `e` has the shape `column = constant` (either side), fills the
/// outputs and returns true.
bool MatchEqualityConjunct(const ExprPtr& e, std::string* column,
                           Value* constant);

/// By-reference form of MatchEqualityConjunct: for `column = constant`
/// returns the column node and points *constant at the literal (both owned
/// by `e`); otherwise returns nullptr. Copies nothing.
const Expr* MatchEquality(const Expr& e, const Value** constant);

}  // namespace bullfrog

#endif  // BULLFROG_QUERY_EXPR_H_
