#include "query/expr.h"

#include <algorithm>
#include <cassert>

namespace bullfrog {

namespace {

// std::make_shared needs a public constructor; use a private-access trick.
struct ExprAccess;

std::string_view CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "<>";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

std::string_view ArithOpName(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd:
      return "+";
    case ArithOp::kSub:
      return "-";
    case ArithOp::kMul:
      return "*";
    case ArithOp::kDiv:
      return "/";
  }
  return "?";
}

}  // namespace

// Private-constructor factory: allocate with new, wrap in shared_ptr.
namespace expr_internal {
struct Builder : Expr {};
}  // namespace expr_internal

static std::shared_ptr<expr_internal::Builder> NewExpr() {
  return std::make_shared<expr_internal::Builder>();
}

ExprPtr Expr::MakeColumn(std::string name) {
  auto e = NewExpr();
  e->kind_ = ExprKind::kColumn;
  e->column_name_ = std::move(name);
  return e;
}

ExprPtr Expr::MakeConst(Value v) {
  auto e = NewExpr();
  e->kind_ = ExprKind::kConst;
  e->constant_ = std::move(v);
  return e;
}

ExprPtr Expr::MakeCompare(CompareOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = NewExpr();
  e->kind_ = ExprKind::kCompare;
  e->compare_op_ = op;
  e->children_ = {std::move(lhs), std::move(rhs)};
  return e;
}

ExprPtr Expr::MakeAnd(std::vector<ExprPtr> children) {
  auto e = NewExpr();
  e->kind_ = ExprKind::kAnd;
  e->children_ = std::move(children);
  return e;
}

ExprPtr Expr::MakeOr(std::vector<ExprPtr> children) {
  auto e = NewExpr();
  e->kind_ = ExprKind::kOr;
  e->children_ = std::move(children);
  return e;
}

ExprPtr Expr::MakeNot(ExprPtr child) {
  auto e = NewExpr();
  e->kind_ = ExprKind::kNot;
  e->children_ = {std::move(child)};
  return e;
}

ExprPtr Expr::MakeArith(ArithOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = NewExpr();
  e->kind_ = ExprKind::kArith;
  e->arith_op_ = op;
  e->children_ = {std::move(lhs), std::move(rhs)};
  return e;
}

ExprPtr Expr::MakeIn(ExprPtr needle, std::vector<Value> values) {
  auto e = NewExpr();
  e->kind_ = ExprKind::kIn;
  e->children_ = {std::move(needle)};
  e->in_list_ = std::move(values);
  return e;
}

ExprPtr Expr::MakeIsNull(ExprPtr child) {
  auto e = NewExpr();
  e->kind_ = ExprKind::kIsNull;
  e->children_ = {std::move(child)};
  return e;
}

Result<ExprPtr> Expr::Bind(const TableSchema& schema) const {
  auto e = NewExpr();
  e->kind_ = kind_;
  e->column_name_ = column_name_;
  e->column_index_ = column_index_;
  e->constant_ = constant_;
  e->compare_op_ = compare_op_;
  e->arith_op_ = arith_op_;
  e->in_list_ = in_list_;
  if (kind_ == ExprKind::kColumn) {
    BF_ASSIGN_OR_RETURN(e->column_index_, schema.RequireColumn(column_name_));
  }
  e->children_.reserve(children_.size());
  for (const ExprPtr& c : children_) {
    BF_ASSIGN_OR_RETURN(ExprPtr bound, c->Bind(schema));
    e->children_.push_back(std::move(bound));
  }
  return ExprPtr(e);
}

Value Expr::Eval(const Tuple& row) const {
  switch (kind_) {
    case ExprKind::kColumn:
      assert(column_index_ != kInvalidIndex && "expression not bound");
      return row[column_index_];
    case ExprKind::kConst:
      return constant_;
    case ExprKind::kCompare: {
      const Value a = children_[0]->Eval(row);
      const Value b = children_[1]->Eval(row);
      if (a.is_null() || b.is_null()) return Value::Null();
      const int c = a.Compare(b);
      bool r = false;
      switch (compare_op_) {
        case CompareOp::kEq:
          r = c == 0;
          break;
        case CompareOp::kNe:
          r = c != 0;
          break;
        case CompareOp::kLt:
          r = c < 0;
          break;
        case CompareOp::kLe:
          r = c <= 0;
          break;
        case CompareOp::kGt:
          r = c > 0;
          break;
        case CompareOp::kGe:
          r = c >= 0;
          break;
      }
      return Value::Int(r ? 1 : 0);
    }
    case ExprKind::kAnd: {
      bool saw_null = false;
      for (const ExprPtr& c : children_) {
        const Value v = c->Eval(row);
        if (v.is_null()) {
          saw_null = true;
        } else if (v.AsInt() == 0) {
          return Value::Int(0);
        }
      }
      return saw_null ? Value::Null() : Value::Int(1);
    }
    case ExprKind::kOr: {
      bool saw_null = false;
      for (const ExprPtr& c : children_) {
        const Value v = c->Eval(row);
        if (v.is_null()) {
          saw_null = true;
        } else if (v.AsInt() != 0) {
          return Value::Int(1);
        }
      }
      return saw_null ? Value::Null() : Value::Int(0);
    }
    case ExprKind::kNot: {
      const Value v = children_[0]->Eval(row);
      if (v.is_null()) return Value::Null();
      return Value::Int(v.AsInt() == 0 ? 1 : 0);
    }
    case ExprKind::kArith: {
      const Value a = children_[0]->Eval(row);
      const Value b = children_[1]->Eval(row);
      if (a.is_null() || b.is_null()) return Value::Null();
      const bool both_int =
          a.type() == ValueType::kInt64 && b.type() == ValueType::kInt64;
      if (both_int && arith_op_ != ArithOp::kDiv) {
        switch (arith_op_) {
          case ArithOp::kAdd:
            return Value::Int(a.AsInt() + b.AsInt());
          case ArithOp::kSub:
            return Value::Int(a.AsInt() - b.AsInt());
          case ArithOp::kMul:
            return Value::Int(a.AsInt() * b.AsInt());
          default:
            break;
        }
      }
      const double x = a.AsDouble();
      const double y = b.AsDouble();
      switch (arith_op_) {
        case ArithOp::kAdd:
          return Value::Double(x + y);
        case ArithOp::kSub:
          return Value::Double(x - y);
        case ArithOp::kMul:
          return Value::Double(x * y);
        case ArithOp::kDiv:
          if (y == 0.0) return Value::Null();
          return Value::Double(x / y);
      }
      return Value::Null();
    }
    case ExprKind::kIn: {
      const Value v = children_[0]->Eval(row);
      if (v.is_null()) return Value::Null();
      for (const Value& candidate : in_list_) {
        if (!candidate.is_null() && v.Compare(candidate) == 0) {
          return Value::Int(1);
        }
      }
      return Value::Int(0);
    }
    case ExprKind::kIsNull: {
      const Value v = children_[0]->Eval(row);
      return Value::Int(v.is_null() ? 1 : 0);
    }
  }
  return Value::Null();
}

bool Expr::Matches(const Tuple& row) const {
  const Value v = Eval(row);
  return !v.is_null() && v.AsInt() != 0;
}

void Expr::CollectColumns(std::vector<std::string>* out) const {
  if (kind_ == ExprKind::kColumn) {
    if (std::find(out->begin(), out->end(), column_name_) == out->end()) {
      out->push_back(column_name_);
    }
    return;
  }
  for (const ExprPtr& c : children_) c->CollectColumns(out);
}

std::string Expr::ToString() const {
  switch (kind_) {
    case ExprKind::kColumn:
      return column_name_;
    case ExprKind::kConst:
      return constant_.ToString();
    case ExprKind::kCompare:
      return "(" + children_[0]->ToString() + " " +
             std::string(CompareOpName(compare_op_)) + " " +
             children_[1]->ToString() + ")";
    case ExprKind::kAnd: {
      std::string out = "(";
      for (size_t i = 0; i < children_.size(); ++i) {
        if (i > 0) out += " AND ";
        out += children_[i]->ToString();
      }
      return out + ")";
    }
    case ExprKind::kOr: {
      std::string out = "(";
      for (size_t i = 0; i < children_.size(); ++i) {
        if (i > 0) out += " OR ";
        out += children_[i]->ToString();
      }
      return out + ")";
    }
    case ExprKind::kNot:
      return "NOT " + children_[0]->ToString();
    case ExprKind::kArith:
      return "(" + children_[0]->ToString() + " " +
             std::string(ArithOpName(arith_op_)) + " " +
             children_[1]->ToString() + ")";
    case ExprKind::kIn: {
      std::string out = children_[0]->ToString() + " IN (";
      for (size_t i = 0; i < in_list_.size(); ++i) {
        if (i > 0) out += ", ";
        out += in_list_[i].ToString();
      }
      return out + ")";
    }
    case ExprKind::kIsNull:
      return children_[0]->ToString() + " IS NULL";
  }
  return "?";
}

void SplitConjuncts(const ExprPtr& e, std::vector<ExprPtr>* out) {
  if (e == nullptr) return;
  if (e->kind() == ExprKind::kAnd) {
    for (const ExprPtr& c : e->children()) SplitConjuncts(c, out);
    return;
  }
  out->push_back(e);
}

ExprPtr JoinConjuncts(std::vector<ExprPtr> conjuncts) {
  if (conjuncts.empty()) return nullptr;
  if (conjuncts.size() == 1) return conjuncts[0];
  return Expr::MakeAnd(std::move(conjuncts));
}

bool MatchEqualityConjunct(const ExprPtr& e, std::string* column,
                           Value* constant) {
  const Value* value = nullptr;
  const Expr* col = e == nullptr ? nullptr : MatchEquality(*e, &value);
  if (col == nullptr) return false;
  *column = col->column_name();
  *constant = *value;
  return true;
}

const Expr* MatchEquality(const Expr& e, const Value** constant) {
  if (e.kind() != ExprKind::kCompare || e.compare_op() != CompareOp::kEq) {
    return nullptr;
  }
  const Expr& a = *e.children()[0];
  const Expr& b = *e.children()[1];
  if (a.kind() == ExprKind::kColumn && b.kind() == ExprKind::kConst) {
    *constant = &b.constant();
    return &a;
  }
  if (b.kind() == ExprKind::kColumn && a.kind() == ExprKind::kConst) {
    *constant = &a.constant();
    return &b;
  }
  return nullptr;
}

}  // namespace bullfrog
