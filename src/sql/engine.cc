#include "sql/engine.h"

#include <algorithm>

#include "obs/request_trace.h"
#include "sql/migration_compiler.h"
#include "sql/parser.h"

namespace bullfrog::sql {

namespace {

/// Rewrites qualified column references ("t.col") for a single-table
/// statement into bare names, validating the qualifier.
Result<ExprPtr> Unqualify(const ExprPtr& e, const std::string& table,
                          const std::string& alias = "") {
  if (e == nullptr) return ExprPtr(nullptr);
  if (e->kind() == ExprKind::kColumn) {
    const std::string& name = e->column_name();
    const size_t dot = name.find('.');
    if (dot == std::string::npos) return e;
    const std::string qualifier = name.substr(0, dot);
    if (qualifier != table && (alias.empty() || qualifier != alias)) {
      return Status::InvalidArgument("unknown table qualifier '" + qualifier +
                                     "'");
    }
    return Col(name.substr(dot + 1));
  }
  // Rebuild with rewritten children.
  std::vector<ExprPtr> kids;
  kids.reserve(e->children().size());
  for (const ExprPtr& c : e->children()) {
    BF_ASSIGN_OR_RETURN(ExprPtr r, Unqualify(c, table, alias));
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
      break;  // Handled above.
  }
  return Status::Internal("unreachable");
}

/// Coerces a literal/expression result to the declared column type where
/// a loss-free conversion exists (integer literals into TIMESTAMP or
/// DOUBLE columns).
/// Rejects string cells beyond the engine's size cap — a network client
/// must get a clean InvalidArgument, not an unbounded allocation.
Status CheckValueSize(const Value& v) {
  if (v.type() == ValueType::kString &&
      v.AsString().size() > SqlEngine::kMaxStringValueBytes) {
    return Status::InvalidArgument(
        "string value of " + std::to_string(v.AsString().size()) +
        " bytes exceeds the " +
        std::to_string(SqlEngine::kMaxStringValueBytes) + "-byte limit");
  }
  return Status::OK();
}

Value CoerceToColumn(const Column& column, Value v) {
  if (v.is_null()) return v;
  if (column.type == ValueType::kTimestamp &&
      v.type() == ValueType::kInt64) {
    return Value::Timestamp(v.AsInt());
  }
  if (column.type == ValueType::kDouble && v.type() == ValueType::kInt64) {
    return Value::Double(static_cast<double>(v.AsInt()));
  }
  return v;
}

}  // namespace

std::string SqlEngine::QueryResult::ToString() const {
  std::string out;
  for (size_t i = 0; i < columns.size(); ++i) {
    if (i > 0) out += " | ";
    out += columns[i];
  }
  out += "\n";
  for (const Tuple& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += " | ";
      out += row[i].ToString();
    }
    out += "\n";
  }
  return out;
}

void SqlEngine::ResetSession() {
  if (open_autocommit_.has_value()) {
    (void)db_->Abort(&*open_autocommit_);
    open_autocommit_.reset();
  }
  if (open_txn_.has_value()) {
    (void)db_->Abort(&*open_txn_);
    open_txn_.reset();
  }
}

Result<Database::Session*> SqlEngine::SessionFor(const std::string& table,
                                                 bool* autocommit) {
  if (open_txn_.has_value()) {
    *autocommit = false;
    return &*open_txn_;
  }
  *autocommit = true;
  open_autocommit_ = db_->BeginSession({table});
  return &*open_autocommit_;
}

Status SqlEngine::FinishAutocommit(Database::Session* session,
                                   Status execution) {
  Status out = execution;
  if (execution.ok()) {
    out = db_->Commit(session);
  } else {
    (void)db_->Abort(session);
  }
  open_autocommit_.reset();
  return out;
}

Result<SqlEngine::QueryResult> SqlEngine::Execute(const std::string& sql) {
  // Root creation for embedded use (shell, benches, tests): when no
  // outer root — server frame or sharded session — bound a trace yet,
  // consult the database's sampler. Wire-served statements are rooted by
  // the server instead, so this stays a thread-local load + branch.
  if (obs::CurrentTrace() == nullptr && db_->trace_sampler().Sample()) {
    auto trace = std::make_shared<obs::TraceContext>(
        obs::TraceSampler::NextTraceId(), sql);
    Result<QueryResult> result = [&] {
      obs::TraceBinding bind(trace.get());
      return ExecuteWithSpans(sql);
    }();
    trace->Finish();
    db_->profiles().Record(std::move(trace));
    return result;
  }
  return ExecuteWithSpans(sql);
}

Result<SqlEngine::QueryResult> SqlEngine::ExecuteWithSpans(
    const std::string& sql) {
  obs::ScopedSpan parse_span("parse", obs::Stage::kParse);
  Result<Statement> parsed = ParseSql(sql);
  if (!parsed.ok()) return parsed.status();
  // Execute starts the instant parse ends, so the parse span's own
  // bookkeeping and the hand-off below are attributed; the statement is
  // destroyed inside the span too.
  obs::ScopedSpan span("execute", obs::Stage::kExecute, parse_span.Close());
  const Statement stmt = std::move(parsed).value();
  current_sql_ = sql;
  return ExecuteStatement(stmt);
}

Result<SqlEngine::QueryResult> SqlEngine::ExecuteParsed(
    const Statement& stmt, const std::string& sql) {
  current_sql_ = sql;
  obs::ScopedSpan span("execute", obs::Stage::kExecute);
  return ExecuteStatement(stmt);
}

Result<SqlEngine::QueryResult> SqlEngine::ExecuteStatement(
    const Statement& stmt) {
  if (read_only_ && stmt.kind != Statement::Kind::kSelect) {
    return Status::Unsupported(
        "read-only replica: only SELECT is accepted; direct writes to a "
        "replica are rejected (write to the primary instead)");
  }
  QueryResult result;
  switch (stmt.kind) {
    case Statement::Kind::kSelect:
      return ExecuteSelect(*stmt.select);
    case Statement::Kind::kInsert:
      return ExecuteInsert(*stmt.insert);
    case Statement::Kind::kUpdate:
      return ExecuteUpdate(*stmt.update);
    case Statement::Kind::kDelete:
      return ExecuteDelete(*stmt.del);
    case Statement::Kind::kCreateTable:
      BF_RETURN_NOT_OK(db_->CreateTable(stmt.create_table->schema));
      return result;
    case Statement::Kind::kCreateIndex:
      BF_RETURN_NOT_OK(db_->CreateIndex(
          stmt.create_index->table, stmt.create_index->name,
          stmt.create_index->columns, stmt.create_index->unique));
      return result;
    case Statement::Kind::kCreateTableAs:
    case Statement::Kind::kDropTable:
      return Status::InvalidArgument(
          "migration DDL must be submitted via SubmitMigrationScript");
    case Statement::Kind::kBegin:
      if (open_txn_.has_value()) {
        return Status::InvalidArgument("transaction already open");
      }
      // The explicit transaction holds no table gates up front; gates are
      // per-request and the autocommit path covers them. Explicit
      // transactions declare no tables (acceptable: gates exist for the
      // benchmark paths, which use the native API).
      open_txn_.emplace(db_->BeginSession({}));
      return result;
    case Statement::Kind::kCommit: {
      if (!open_txn_.has_value()) {
        return Status::InvalidArgument("no open transaction");
      }
      Status s = db_->Commit(&*open_txn_);
      open_txn_.reset();
      BF_RETURN_NOT_OK(s);
      return result;
    }
    case Statement::Kind::kRollback: {
      if (!open_txn_.has_value()) {
        return Status::InvalidArgument("no open transaction");
      }
      Status s = db_->Abort(&*open_txn_);
      open_txn_.reset();
      BF_RETURN_NOT_OK(s);
      return result;
    }
  }
  return Status::Internal("unhandled statement kind");
}

Result<SqlEngine::QueryResult> SqlEngine::ExecuteSelect(
    const SelectStatement& select) {
  if (!select.group_by.empty()) {
    return Status::Unsupported(
        "GROUP BY is supported in migration DDL, not in queries");
  }
  const std::string& table = select.from_tables[0];
  // Replica read-through: while a replicated lazy migration over `table`
  // is in flight, the local data is incomplete — forward the query to the
  // primary first (driving its lazy migration) and wait for the resulting
  // log records to land here before answering from local state.
  if (read_through_ != nullptr &&
      db_->controller().ShouldForwardReads(table)) {
    obs::ScopedSpan span("read_through");
    span.SetDetail("table=" + table);
    BF_RETURN_NOT_OK(read_through_(current_sql_, table));
  }
  BF_ASSIGN_OR_RETURN(Table * t, db_->catalog().RequireActive(table));
  const TableSchema& schema = t->schema();

  bool autocommit = false;
  BF_ASSIGN_OR_RETURN(Database::Session * session,
                      SessionFor(table, &autocommit));
  auto run = [&]() -> Result<QueryResult> {
    QueryResult result;
    const std::string alias =
        select.from_aliases.empty() ? "" : select.from_aliases[0];
    BF_ASSIGN_OR_RETURN(ExprPtr where, Unqualify(select.where, table, alias));
    BF_ASSIGN_OR_RETURN(auto rows, db_->Select(session, table, where));

    const bool has_agg =
        std::any_of(select.items.begin(), select.items.end(),
                    [](const SelectItem& i) { return i.agg != AggFunc::kNone; });
    if (select.star) {
      for (const Column& c : schema.columns()) result.columns.push_back(c.name);
      for (auto& [rid, row] : rows) result.rows.push_back(row);
      return result;
    }
    // Bind item expressions once.
    std::vector<ExprPtr> bound(select.items.size());
    for (size_t i = 0; i < select.items.size(); ++i) {
      result.columns.push_back(select.items[i].name);
      if (select.items[i].expr != nullptr) {
        BF_ASSIGN_OR_RETURN(ExprPtr unq,
                            Unqualify(select.items[i].expr, table, alias));
        BF_ASSIGN_OR_RETURN(bound[i], unq->Bind(schema));
      }
    }
    if (!has_agg) {
      for (auto& [rid, row] : rows) {
        Tuple out;
        out.reserve(bound.size());
        for (const ExprPtr& e : bound) out.push_back(e->Eval(row));
        result.rows.push_back(std::move(out));
      }
      return result;
    }
    // Whole-set aggregates (no GROUP BY): one output row.
    Tuple out;
    for (size_t i = 0; i < select.items.size(); ++i) {
      const SelectItem& item = select.items[i];
      if (item.agg == AggFunc::kNone) {
        return Status::InvalidArgument(
            "mixing aggregates and plain columns requires GROUP BY");
      }
      if (item.agg == AggFunc::kCount && bound[i] == nullptr) {
        out.push_back(Value::Int(static_cast<int64_t>(rows.size())));
        continue;
      }
      double sum = 0;
      int64_t count = 0;
      Value min_v, max_v;
      for (auto& [rid, row] : rows) {
        const Value v = bound[i]->Eval(row);
        if (v.is_null()) continue;
        ++count;
        sum += v.AsDouble();
        if (min_v.is_null() || v.Compare(min_v) < 0) min_v = v;
        if (max_v.is_null() || v.Compare(max_v) > 0) max_v = v;
      }
      switch (item.agg) {
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
    result.rows.push_back(std::move(out));
    return result;
  };
  auto result = run();
  if (autocommit) {
    Status s = FinishAutocommit(session, result.status());
    if (!s.ok()) return s;
  }
  return result;
}

Result<SqlEngine::QueryResult> SqlEngine::ExecuteInsert(
    const InsertStatement& insert) {
  BF_ASSIGN_OR_RETURN(Table * t, db_->catalog().RequireActive(insert.table));
  const TableSchema& schema = t->schema();

  // Resolve the column list to positions.
  std::vector<size_t> positions;
  if (insert.columns.empty()) {
    for (size_t i = 0; i < schema.num_columns(); ++i) positions.push_back(i);
  } else {
    for (const std::string& c : insert.columns) {
      BF_ASSIGN_OR_RETURN(size_t idx, schema.RequireColumn(c));
      positions.push_back(idx);
    }
  }

  bool autocommit = false;
  BF_ASSIGN_OR_RETURN(Database::Session * session,
                      SessionFor(insert.table, &autocommit));
  auto run = [&]() -> Result<QueryResult> {
    QueryResult result;
    const Tuple empty;
    for (const std::vector<ExprPtr>& row_exprs : insert.rows) {
      if (row_exprs.size() != positions.size()) {
        return Status::InvalidArgument("VALUES arity mismatch");
      }
      Tuple row;
      row.reserve(schema.num_columns());
      for (size_t i = 0; i < schema.num_columns(); ++i) {
        row.push_back(Value::Null());
      }
      for (size_t i = 0; i < positions.size(); ++i) {
        // VALUES entries must be constant expressions.
        std::vector<std::string> refs;
        row_exprs[i]->CollectColumns(&refs);
        if (!refs.empty()) {
          return Status::InvalidArgument(
              "VALUES entries must be constants");
        }
        row[positions[i]] = CoerceToColumn(schema.column(positions[i]),
                                           row_exprs[i]->Eval(empty));
        BF_RETURN_NOT_OK(CheckValueSize(row[positions[i]]));
      }
      BF_RETURN_NOT_OK(db_->Insert(session, insert.table, row));
      ++result.affected;
    }
    return result;
  };
  auto result = run();
  if (autocommit) {
    Status s = FinishAutocommit(session, result.status());
    if (!s.ok()) return s;
  }
  return result;
}

Result<SqlEngine::QueryResult> SqlEngine::ExecuteUpdate(
    const UpdateStatement& update) {
  BF_ASSIGN_OR_RETURN(Table * t, db_->catalog().RequireActive(update.table));
  const TableSchema& schema = t->schema();

  std::vector<std::pair<size_t, ExprPtr>> bound;
  for (const auto& [col, expr] : update.assignments) {
    BF_ASSIGN_OR_RETURN(size_t idx, schema.RequireColumn(col));
    BF_ASSIGN_OR_RETURN(ExprPtr unq, Unqualify(expr, update.table));
    // Constant assignments are checked up front; column-derived values
    // cannot grow (no string-producing operators).
    std::vector<std::string> refs;
    unq->CollectColumns(&refs);
    if (refs.empty()) {
      BF_RETURN_NOT_OK(CheckValueSize(unq->Eval(Tuple{})));
    }
    BF_ASSIGN_OR_RETURN(ExprPtr b, unq->Bind(schema));
    bound.emplace_back(idx, std::move(b));
  }

  bool autocommit = false;
  BF_ASSIGN_OR_RETURN(Database::Session * session,
                      SessionFor(update.table, &autocommit));
  auto run = [&]() -> Result<QueryResult> {
    QueryResult result;
    BF_ASSIGN_OR_RETURN(ExprPtr where, Unqualify(update.where, update.table));
    BF_ASSIGN_OR_RETURN(
        uint64_t n,
        db_->Update(session, update.table, where, [&](const Tuple& row) {
          Tuple next = row;
          for (const auto& [idx, expr] : bound) {
            next[idx] = CoerceToColumn(schema.column(idx), expr->Eval(row));
          }
          return next;
        }));
    result.affected = n;
    return result;
  };
  auto result = run();
  if (autocommit) {
    Status s = FinishAutocommit(session, result.status());
    if (!s.ok()) return s;
  }
  return result;
}

Result<SqlEngine::QueryResult> SqlEngine::ExecuteDelete(
    const DeleteStatement& del) {
  bool autocommit = false;
  BF_ASSIGN_OR_RETURN(Database::Session * session,
                      SessionFor(del.table, &autocommit));
  auto run = [&]() -> Result<QueryResult> {
    QueryResult result;
    BF_ASSIGN_OR_RETURN(ExprPtr where, Unqualify(del.where, del.table));
    BF_ASSIGN_OR_RETURN(uint64_t n, db_->Delete(session, del.table, where));
    result.affected = n;
    return result;
  };
  auto result = run();
  if (autocommit) {
    Status s = FinishAutocommit(session, result.status());
    if (!s.ok()) return s;
  }
  return result;
}

Status SqlEngine::SubmitMigrationScript(
    const std::string& sql,
    const MigrationController::SubmitOptions& options) {
  return sql::SubmitMigrationScript(db_, sql, options);
}

Status SubmitMigrationScript(
    Database* db, const std::string& sql,
    const MigrationController::SubmitOptions& options,
    std::function<Status(const MigrationPlan&)> check) {
  BF_ASSIGN_OR_RETURN(std::vector<Statement> script, ParseSqlScript(sql));
  BF_ASSIGN_OR_RETURN(MigrationFootprint footprint,
                      MigrationScriptFootprint(script));
  return db->controller().SubmitScript(
      std::move(footprint.name), sql, std::move(footprint.tables),
      [db, sql, check = std::move(check)]() -> Result<MigrationPlan> {
        BF_ASSIGN_OR_RETURN(std::vector<Statement> stmts,
                            ParseSqlScript(sql));
        BF_ASSIGN_OR_RETURN(MigrationPlan plan,
                            CompileMigration(stmts, &db->catalog()));
        if (check) BF_RETURN_NOT_OK(check(plan));
        plan.source_script = sql;
        return plan;
      },
      options);
}

}  // namespace bullfrog::sql
