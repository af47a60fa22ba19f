#include "sql/migration_compiler.h"

#include <algorithm>
#include <unordered_map>

namespace bullfrog::sql {

namespace {

/// Splits an optionally qualified name into (qualifier, column).
std::pair<std::string, std::string> SplitQualified(const std::string& name) {
  const size_t dot = name.find('.');
  if (dot == std::string::npos) return {"", name};
  return {name.substr(0, dot), name.substr(dot + 1)};
}

/// Name-resolution scope: the input tables plus an alias map
/// (alias-or-table-name -> table name).
struct NameScope {
  std::vector<std::string> tables;
  std::unordered_map<std::string, std::string> qualifiers;

  static NameScope From(const SelectStatement& select) {
    NameScope scope;
    scope.tables = select.from_tables;
    for (size_t i = 0; i < select.from_tables.size(); ++i) {
      scope.qualifiers[select.from_tables[i]] = select.from_tables[i];
      if (i < select.from_aliases.size() &&
          !select.from_aliases[i].empty()) {
        scope.qualifiers[select.from_aliases[i]] = select.from_tables[i];
      }
    }
    return scope;
  }
};

/// Resolves a column reference against the scope; returns the owning
/// table name and the bare column name.
Result<std::pair<std::string, std::string>> ResolveColumn(
    const std::string& ref, const NameScope& scope, Catalog* catalog) {
  const std::vector<std::string>& tables = scope.tables;
  auto [qualifier, col] = SplitQualified(ref);
  if (!qualifier.empty()) {
    auto mapped = scope.qualifiers.find(qualifier);
    if (mapped == scope.qualifiers.end()) {
      return Status::InvalidArgument("unknown table qualifier '" + qualifier +
                                     "'");
    }
    const std::string& table = mapped->second;
    BF_ASSIGN_OR_RETURN(Table * t, catalog->RequireReadable(table));
    if (!t->schema().ColumnIndex(col)) {
      return Status::InvalidArgument("no column '" + col + "' in '" +
                                     table + "'");
    }
    return std::make_pair(table, col);
  }
  std::string owner;
  for (const std::string& table : tables) {
    BF_ASSIGN_OR_RETURN(Table * t, catalog->RequireReadable(table));
    if (t->schema().ColumnIndex(col)) {
      if (!owner.empty()) {
        return Status::InvalidArgument("ambiguous column '" + col +
                                       "' — qualify it");
      }
      owner = table;
    }
  }
  if (owner.empty()) {
    return Status::InvalidArgument("unknown column '" + col + "'");
  }
  return std::make_pair(owner, col);
}

/// Rewrites every column reference in `e` to its bare name, verifying it
/// resolves into `table` (single-input statements).
Result<ExprPtr> RewriteSingleTable(const ExprPtr& e, const NameScope& scope,
                                   Catalog* catalog) {
  if (e == nullptr) return ExprPtr(nullptr);
  if (e->kind() == ExprKind::kColumn) {
    BF_ASSIGN_OR_RETURN(auto resolved,
                        ResolveColumn(e->column_name(), scope, catalog));
    return Col(resolved.second);
  }
  std::vector<ExprPtr> kids;
  for (const ExprPtr& c : e->children()) {
    BF_ASSIGN_OR_RETURN(ExprPtr r, RewriteSingleTable(c, scope, catalog));
    kids.push_back(std::move(r));
  }
  switch (e->kind()) {
    case ExprKind::kConst:
      return e;
    case ExprKind::kCompare:
      return Expr::MakeCompare(e->compare_op(), kids[0], kids[1]);
    case ExprKind::kAnd:
      return Expr::MakeAnd(std::move(kids));
    case ExprKind::kOr:
      return Expr::MakeOr(std::move(kids));
    case ExprKind::kNot:
      return Expr::MakeNot(kids[0]);
    case ExprKind::kArith:
      return Expr::MakeArith(e->arith_op(), kids[0], kids[1]);
    case ExprKind::kIn:
      return Expr::MakeIn(kids[0], e->in_list());
    case ExprKind::kIsNull:
      return Expr::MakeIsNull(kids[0]);
    case ExprKind::kColumn:
      break;
  }
  return Status::Internal("unreachable");
}

/// Rewrites every column reference to the fully qualified "table.col"
/// form (two-input statements; binding target is the combined schema).
Result<ExprPtr> RewriteQualified(const ExprPtr& e, const NameScope& scope,
                                 Catalog* catalog) {
  if (e == nullptr) return ExprPtr(nullptr);
  if (e->kind() == ExprKind::kColumn) {
    BF_ASSIGN_OR_RETURN(auto resolved,
                        ResolveColumn(e->column_name(), scope, catalog));
    return Col(resolved.first + "." + resolved.second);
  }
  std::vector<ExprPtr> kids;
  for (const ExprPtr& c : e->children()) {
    BF_ASSIGN_OR_RETURN(ExprPtr r, RewriteQualified(c, scope, catalog));
    kids.push_back(std::move(r));
  }
  switch (e->kind()) {
    case ExprKind::kConst:
      return e;
    case ExprKind::kCompare:
      return Expr::MakeCompare(e->compare_op(), kids[0], kids[1]);
    case ExprKind::kAnd:
      return Expr::MakeAnd(std::move(kids));
    case ExprKind::kOr:
      return Expr::MakeOr(std::move(kids));
    case ExprKind::kNot:
      return Expr::MakeNot(kids[0]);
    case ExprKind::kArith:
      return Expr::MakeArith(e->arith_op(), kids[0], kids[1]);
    case ExprKind::kIn:
      return Expr::MakeIn(kids[0], e->in_list());
    case ExprKind::kIsNull:
      return Expr::MakeIsNull(kids[0]);
    case ExprKind::kColumn:
      break;
  }
  return Status::Internal("unreachable");
}

}  // namespace

Result<ValueType> InferType(const ExprPtr& expr, const TableSchema& schema) {
  switch (expr->kind()) {
    case ExprKind::kConst:
      return expr->constant().type();  // kNull for NULL literals.
    case ExprKind::kColumn: {
      BF_ASSIGN_OR_RETURN(size_t idx,
                          schema.RequireColumn(expr->column_name()));
      return schema.column(idx).type;
    }
    case ExprKind::kArith: {
      if (expr->arith_op() == ArithOp::kDiv) return ValueType::kDouble;
      BF_ASSIGN_OR_RETURN(ValueType a, InferType(expr->children()[0], schema));
      BF_ASSIGN_OR_RETURN(ValueType b, InferType(expr->children()[1], schema));
      if (a == ValueType::kDouble || b == ValueType::kDouble) {
        return ValueType::kDouble;
      }
      return ValueType::kInt64;
    }
    case ExprKind::kCompare:
    case ExprKind::kAnd:
    case ExprKind::kOr:
    case ExprKind::kNot:
    case ExprKind::kIn:
    case ExprKind::kIsNull:
      return ValueType::kInt64;
  }
  return Status::Internal("unreachable");
}

namespace {

/// Compiles one CREATE TABLE ... AS SELECT into a MigrationStatement plus
/// the output table schema.
Status CompileCreateTableAs(const CreateTableAsStatement& cta,
                            Catalog* catalog, MigrationPlan* plan) {
  const SelectStatement& select = cta.select;
  if (select.from_tables.empty() || select.from_tables.size() > 2) {
    return Status::Unsupported(
        "migration SELECT supports one or two input tables");
  }
  for (const std::string& t : select.from_tables) {
    // Readable, not active: a checkpoint restore recompiles the script
    // against a catalog where the inputs are already retired (the switch
    // is baked into the checkpoint). A fresh submit still fails cleanly —
    // the catalog switch retires only active tables — so this does not
    // loosen the originating path.
    BF_RETURN_NOT_OK(catalog->RequireReadable(t).status());
  }
  const NameScope scope = NameScope::From(select);
  const bool is_join = select.from_tables.size() == 2;
  const bool is_group = !select.group_by.empty();
  if (is_join && is_group) {
    return Status::Unsupported(
        "GROUP BY over a join is not supported in migration DDL");
  }

  // Expand SELECT * (single-table only).
  std::vector<SelectItem> items = select.items;
  if (select.star) {
    if (is_join) {
      return Status::Unsupported("SELECT * requires an explicit list for "
                                 "join migrations");
    }
    BF_ASSIGN_OR_RETURN(Table * input,
                        catalog->RequireReadable(select.from_tables[0]));
    for (const Column& c : input->schema().columns()) {
      SelectItem item;
      item.name = c.name;
      item.expr = Col(c.name);
      item.is_bare_column = true;
      items.push_back(item);
    }
  }
  if (items.empty()) {
    return Status::InvalidArgument("empty select list");
  }

  MigrationStatement stmt;
  stmt.name = "populate_" + cta.table;
  stmt.input_tables = select.from_tables;
  stmt.output_tables = {cta.table};

  SchemaBuilder builder(cta.table);

  if (!is_join && !is_group) {
    // ---- 1:1 projection ------------------------------------------------
    stmt.category = MigrationCategory::kOneToOne;
    const std::string& input_name = select.from_tables[0];
    BF_ASSIGN_OR_RETURN(Table * input, catalog->RequireReadable(input_name));
    const TableSchema input_schema = input->schema();

    std::vector<ExprPtr> bound(items.size());
    for (size_t i = 0; i < items.size(); ++i) {
      if (items[i].agg != AggFunc::kNone) {
        return Status::InvalidArgument(
            "aggregates require GROUP BY in migration DDL");
      }
      BF_ASSIGN_OR_RETURN(
          ExprPtr bare, RewriteSingleTable(items[i].expr, scope, catalog));
      BF_ASSIGN_OR_RETURN(ValueType type, InferType(bare, input_schema));
      if (type == ValueType::kNull) {
        if (!items[i].cast_type.has_value()) {
          return Status::InvalidArgument(
              "NULL literal column '" + items[i].name +
              "' needs CAST(NULL AS <type>)");
        }
        type = *items[i].cast_type;
      }
      if (items[i].cast_type.has_value()) type = *items[i].cast_type;
      const bool in_pk =
          std::find(cta.primary_key.begin(), cta.primary_key.end(),
                    items[i].name) != cta.primary_key.end();
      builder.AddColumn(items[i].name, type, /*nullable=*/!in_pk);
      if (items[i].is_bare_column) {
        stmt.provenance.AddPassThrough(items[i].name, input_name,
                                       bare->column_name());
      } else {
        stmt.provenance.AddDerived(items[i].name);
      }
      BF_ASSIGN_OR_RETURN(bound[i], bare->Bind(input_schema));
    }
    ExprPtr filter;
    if (select.where != nullptr) {
      BF_ASSIGN_OR_RETURN(
          ExprPtr bare, RewriteSingleTable(select.where, scope, catalog));
      BF_ASSIGN_OR_RETURN(filter, bare->Bind(input_schema));
    }
    stmt.row_transform =
        [bound, filter](const Tuple& in) -> Result<std::vector<TargetRow>> {
      if (filter != nullptr && !filter->Matches(in)) {
        return std::vector<TargetRow>{};
      }
      Tuple out;
      out.reserve(bound.size());
      for (const ExprPtr& e : bound) out.push_back(e->Eval(in));
      return std::vector<TargetRow>{TargetRow{0, std::move(out)}};
    };
  } else if (is_group) {
    // ---- n:1 aggregate ---------------------------------------------------
    stmt.category = MigrationCategory::kManyToOne;
    const std::string& input_name = select.from_tables[0];
    BF_ASSIGN_OR_RETURN(Table * input, catalog->RequireReadable(input_name));
    const TableSchema input_schema = input->schema();

    // Resolve GROUP BY columns to bare input column names.
    for (const std::string& g : select.group_by) {
      BF_ASSIGN_OR_RETURN(auto resolved,
                          ResolveColumn(g, scope, catalog));
      stmt.group_key_columns.push_back(resolved.second);
    }

    struct ItemPlan {
      bool is_key = false;
      size_t key_index = 0;  // Into the group key tuple.
      AggFunc agg = AggFunc::kNone;
      ExprPtr bound;  // Aggregated expression; null for COUNT(*).
    };
    std::vector<ItemPlan> plans(items.size());
    for (size_t i = 0; i < items.size(); ++i) {
      SelectItem& item = items[i];
      if (item.agg == AggFunc::kNone) {
        if (!item.is_bare_column) {
          return Status::InvalidArgument(
              "non-aggregate migration select items must be GROUP BY "
              "columns");
        }
        BF_ASSIGN_OR_RETURN(
            auto resolved,
            ResolveColumn(item.expr->column_name(), scope, catalog));
        auto it = std::find(stmt.group_key_columns.begin(),
                            stmt.group_key_columns.end(), resolved.second);
        if (it == stmt.group_key_columns.end()) {
          return Status::InvalidArgument("column '" + resolved.second +
                                         "' is not in GROUP BY");
        }
        plans[i].is_key = true;
        plans[i].key_index = static_cast<size_t>(
            std::distance(stmt.group_key_columns.begin(), it));
        BF_ASSIGN_OR_RETURN(size_t idx,
                            input_schema.RequireColumn(resolved.second));
        const bool in_pk =
            std::find(cta.primary_key.begin(), cta.primary_key.end(),
                      item.name) != cta.primary_key.end();
        builder.AddColumn(item.name, input_schema.column(idx).type,
                          !in_pk);
        stmt.provenance.AddPassThrough(item.name, input_name,
                                       resolved.second);
      } else {
        plans[i].agg = item.agg;
        ValueType type = ValueType::kDouble;
        if (item.agg == AggFunc::kCount) {
          type = ValueType::kInt64;
        } else if (item.expr != nullptr) {
          BF_ASSIGN_OR_RETURN(
              ExprPtr bare,
              RewriteSingleTable(item.expr, scope, catalog));
          BF_ASSIGN_OR_RETURN(plans[i].bound, bare->Bind(input_schema));
          if (item.agg == AggFunc::kMin || item.agg == AggFunc::kMax) {
            BF_ASSIGN_OR_RETURN(type, InferType(bare, input_schema));
          }
        }
        if (item.expr != nullptr && plans[i].bound == nullptr) {
          BF_ASSIGN_OR_RETURN(
              ExprPtr bare,
              RewriteSingleTable(item.expr, scope, catalog));
          BF_ASSIGN_OR_RETURN(plans[i].bound, bare->Bind(input_schema));
        }
        builder.AddColumn(item.name, type, /*nullable=*/true);
        stmt.provenance.AddDerived(item.name);
      }
    }
    stmt.group_transform =
        [plans](const Tuple& key,
                const std::vector<Tuple>& rows)
        -> Result<std::vector<TargetRow>> {
      if (rows.empty()) return std::vector<TargetRow>{};
      Tuple out;
      out.reserve(plans.size());
      for (const ItemPlan& plan : plans) {
        if (plan.is_key) {
          out.push_back(key[plan.key_index]);
          continue;
        }
        double sum = 0;
        int64_t count = 0;
        Value min_v, max_v;
        for (const Tuple& row : rows) {
          if (plan.bound == nullptr) {  // COUNT(*).
            ++count;
            continue;
          }
          const Value v = plan.bound->Eval(row);
          if (v.is_null()) continue;
          ++count;
          sum += v.AsDouble();
          if (min_v.is_null() || v.Compare(min_v) < 0) min_v = v;
          if (max_v.is_null() || v.Compare(max_v) > 0) max_v = v;
        }
        switch (plan.agg) {
          case AggFunc::kSum:
            out.push_back(Value::Double(sum));
            break;
          case AggFunc::kCount:
            out.push_back(Value::Int(count));
            break;
          case AggFunc::kAvg:
            out.push_back(count == 0 ? Value::Null()
                                     : Value::Double(sum / count));
            break;
          case AggFunc::kMin:
            out.push_back(min_v);
            break;
          case AggFunc::kMax:
            out.push_back(max_v);
            break;
          case AggFunc::kNone:
            break;
        }
      }
      return std::vector<TargetRow>{TargetRow{0, std::move(out)}};
    };
  } else {
    // ---- n:n join -------------------------------------------------------
    stmt.category = MigrationCategory::kManyToMany;
    stmt.join_policy = JoinPolicy::kHashJoinKey;
    const std::string& left_name = select.from_tables[0];
    const std::string& right_name = select.from_tables[1];
    BF_ASSIGN_OR_RETURN(Table * left, catalog->RequireReadable(left_name));
    BF_ASSIGN_OR_RETURN(Table * right, catalog->RequireReadable(right_name));

    // Combined schema with fully qualified column names; a joined row is
    // the concatenation of the left and right tuples.
    SchemaBuilder combined_builder("__combined");
    for (const Column& c : left->schema().columns()) {
      combined_builder.AddColumn(left_name + "." + c.name, c.type, true);
    }
    for (const Column& c : right->schema().columns()) {
      combined_builder.AddColumn(right_name + "." + c.name, c.type, true);
    }
    const TableSchema combined = combined_builder.Build();

    // Extract the join condition from WHERE.
    if (select.where == nullptr) {
      return Status::InvalidArgument(
          "a two-table migration SELECT needs a join condition in WHERE");
    }
    std::vector<ExprPtr> conjuncts;
    SplitConjuncts(select.where, &conjuncts);
    std::vector<ExprPtr> residual;
    for (const ExprPtr& c : conjuncts) {
      bool is_join_cond = false;
      if (c->kind() == ExprKind::kCompare &&
          c->compare_op() == CompareOp::kEq &&
          c->children()[0]->kind() == ExprKind::kColumn &&
          c->children()[1]->kind() == ExprKind::kColumn &&
          stmt.left_join_column.empty()) {
        BF_ASSIGN_OR_RETURN(
            auto a, ResolveColumn(c->children()[0]->column_name(), scope,
                                  catalog));
        BF_ASSIGN_OR_RETURN(
            auto b, ResolveColumn(c->children()[1]->column_name(), scope,
                                  catalog));
        if (a.first != b.first) {
          const auto& l = a.first == left_name ? a : b;
          const auto& r = a.first == left_name ? b : a;
          stmt.left_join_column = l.second;
          stmt.right_join_column = r.second;
          is_join_cond = true;
        }
      }
      if (!is_join_cond) residual.push_back(c);
    }
    if (stmt.left_join_column.empty()) {
      return Status::InvalidArgument(
          "no equality join condition found in WHERE");
    }
    ExprPtr filter;
    if (!residual.empty()) {
      BF_ASSIGN_OR_RETURN(
          ExprPtr qualified,
          RewriteQualified(JoinConjuncts(std::move(residual)), scope,
                           catalog));
      BF_ASSIGN_OR_RETURN(filter, qualified->Bind(combined));
    }

    std::vector<ExprPtr> bound(items.size());
    for (size_t i = 0; i < items.size(); ++i) {
      SelectItem& item = items[i];
      if (item.agg != AggFunc::kNone) {
        return Status::Unsupported("aggregates over a join migration");
      }
      BF_ASSIGN_OR_RETURN(
          ExprPtr qualified,
          RewriteQualified(item.expr, scope, catalog));
      BF_ASSIGN_OR_RETURN(ValueType type, InferType(qualified, combined));
      if (type == ValueType::kNull) {
        if (!item.cast_type.has_value()) {
          return Status::InvalidArgument(
              "NULL literal column '" + item.name +
              "' needs CAST(NULL AS <type>)");
        }
        type = *item.cast_type;
      }
      if (item.cast_type.has_value()) type = *item.cast_type;
      const bool in_pk =
          std::find(cta.primary_key.begin(), cta.primary_key.end(),
                    item.name) != cta.primary_key.end();
      builder.AddColumn(item.name, type, !in_pk);
      if (item.is_bare_column) {
        BF_ASSIGN_OR_RETURN(
            auto resolved, ResolveColumn(item.expr->column_name(), scope,
                                         catalog));
        stmt.provenance.AddPassThrough(item.name, resolved.first,
                                       resolved.second);
        // A join key exists on both sides: replicate the provenance so
        // filters on it narrow both inputs (the paper's FID example).
        if (resolved.first == left_name &&
            resolved.second == stmt.left_join_column) {
          stmt.provenance.AddPassThrough(item.name, right_name,
                                         stmt.right_join_column);
        } else if (resolved.first == right_name &&
                   resolved.second == stmt.right_join_column) {
          stmt.provenance.AddPassThrough(item.name, left_name,
                                         stmt.left_join_column);
        }
      } else {
        stmt.provenance.AddDerived(item.name);
      }
      BF_ASSIGN_OR_RETURN(bound[i], qualified->Bind(combined));
    }

    stmt.join_transform =
        [bound, filter](const Tuple& l,
                        const Tuple& r) -> Result<std::vector<TargetRow>> {
      Tuple joined;
      joined.reserve(l.size() + r.size());
      for (const Value& v : l.values()) joined.push_back(v);
      for (const Value& v : r.values()) joined.push_back(v);
      if (filter != nullptr && !filter->Matches(joined)) {
        return std::vector<TargetRow>{};
      }
      Tuple out;
      out.reserve(bound.size());
      for (const ExprPtr& e : bound) out.push_back(e->Eval(joined));
      return std::vector<TargetRow>{TargetRow{0, std::move(out)}};
    };
  }

  if (!cta.primary_key.empty()) {
    builder.SetPrimaryKey(cta.primary_key);
  }
  plan->new_tables.push_back(builder.Build());
  plan->statements.push_back(std::move(stmt));
  return Status::OK();
}

}  // namespace

Result<MigrationPlan> CompileMigration(const std::vector<Statement>& script,
                                       Catalog* catalog) {
  MigrationPlan plan;
  for (const Statement& stmt : script) {
    switch (stmt.kind) {
      case Statement::Kind::kCreateTableAs:
        BF_RETURN_NOT_OK(
            CompileCreateTableAs(*stmt.create_table_as, catalog, &plan));
        break;
      case Statement::Kind::kDropTable:
        plan.retire_tables.push_back(stmt.drop_table->table);
        break;
      default:
        return Status::InvalidArgument(
            "migration scripts may only contain CREATE TABLE ... AS "
            "SELECT and DROP TABLE statements");
    }
  }
  if (plan.statements.empty()) {
    return Status::InvalidArgument("no CREATE TABLE ... AS in migration");
  }
  plan.name = "sql:" + plan.new_tables.front().name();
  return plan;
}

Result<MigrationFootprint> MigrationScriptFootprint(
    const std::vector<Statement>& script) {
  MigrationFootprint out;
  auto add = [&](const std::string& t) {
    if (std::find(out.tables.begin(), out.tables.end(), t) ==
        out.tables.end()) {
      out.tables.push_back(t);
    }
  };
  for (const Statement& stmt : script) {
    switch (stmt.kind) {
      case Statement::Kind::kCreateTableAs:
        if (out.name.empty()) out.name = "sql:" + stmt.create_table_as->table;
        add(stmt.create_table_as->table);
        for (const std::string& t : stmt.create_table_as->select.from_tables) {
          add(t);
        }
        break;
      case Statement::Kind::kDropTable:
        add(stmt.drop_table->table);
        break;
      default:
        return Status::InvalidArgument(
            "migration scripts may only contain CREATE TABLE ... AS "
            "SELECT and DROP TABLE statements");
    }
  }
  if (out.name.empty()) {
    return Status::InvalidArgument("no CREATE TABLE ... AS in migration");
  }
  return out;
}

}  // namespace bullfrog::sql
