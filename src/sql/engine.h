#ifndef BULLFROG_SQL_ENGINE_H_
#define BULLFROG_SQL_ENGINE_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "bullfrog/database.h"
#include "common/result.h"
#include "sql/ast.h"

namespace bullfrog::sql {

/// Submits migration script `sql` to `db`'s migration train. The script
/// is parsed now, so syntax errors surface to the caller, and compiled
/// against the catalog only when the entry starts: a script queued behind
/// an overlapping migration reads tables its predecessor has not created
/// yet. `check`, when set, vets the compiled plan before the switch. The
/// plan keeps the script as its serializable form (the "migrate" record).
Status SubmitMigrationScript(
    Database* db, const std::string& sql,
    const MigrationController::SubmitOptions& options,
    std::function<Status(const MigrationPlan&)> check = nullptr);

/// Executes SQL text against a bullfrog::Database.
///
/// Supported surface: single-table SELECT (optionally with simple
/// aggregates over the whole match set), INSERT/UPDATE/DELETE, CREATE
/// TABLE / CREATE INDEX, BEGIN/COMMIT/ROLLBACK, and — via
/// SubmitMigrationScript — the paper's §2.1 migration DDL (CREATE TABLE
/// ... AS SELECT with projections, expressions, GROUP BY aggregation, or
/// a two-table inner join, plus DROP TABLE for the retired inputs).
///
/// Not thread-safe: one engine per client session.
class SqlEngine {
 public:
  /// Largest string value accepted in INSERT/UPDATE literals. Bounds
  /// per-row memory for network clients; the server additionally caps
  /// whole requests (ServerConfig::max_request_bytes).
  static constexpr size_t kMaxStringValueBytes = 1u << 20;

  explicit SqlEngine(Database* db) : db_(db) {}
  /// Aborts any transaction left open (e.g. a client that disconnected
  /// mid-transaction), releasing its locks.
  ~SqlEngine() { ResetSession(); }

  SqlEngine(const SqlEngine&) = delete;
  SqlEngine& operator=(const SqlEngine&) = delete;

  struct QueryResult {
    std::vector<std::string> columns;
    std::vector<Tuple> rows;
    uint64_t affected = 0;
    /// Rendered "col1 | col2 | ..." + one line per row (debug/demo aid).
    std::string ToString() const;
  };

  /// Parses and executes one statement. Runs in the open explicit
  /// transaction if BEGIN was executed, else autocommits.
  Result<QueryResult> Execute(const std::string& sql);

  /// Executes an already-parsed statement. `sql` is the statement's text
  /// (or a rendering of it), kept for the read-through hook. The shard
  /// router uses this to run per-shard rewrites of a client statement
  /// (e.g. an AVG split into SUM + COUNT) without re-parsing.
  Result<QueryResult> ExecuteParsed(const Statement& stmt,
                                    const std::string& sql);

  /// Parses a `;`-separated migration script made of CREATE TABLE ... AS
  /// SELECT and DROP TABLE statements, compiles it into a MigrationPlan
  /// and submits it (see sql::SubmitMigrationScript).
  Status SubmitMigrationScript(
      const std::string& sql,
      const MigrationController::SubmitOptions& options);

  /// Aborts and discards any open explicit transaction. Used by the
  /// server when a connection ends (clean or not) so session locks never
  /// outlive the connection.
  void ResetSession();

  Database* db() { return db_; }

  /// Read-only mode (replica sessions): only SELECT executes; every other
  /// statement — DML, DDL, and explicit transactions — is rejected with
  /// Unsupported("read-only replica: ...").
  void set_read_only(bool read_only) { read_only_ = read_only; }
  bool read_only() const { return read_only_; }

  /// Hook invoked before a SELECT on `table` when the controller reports
  /// the table is mid replicated migration (ShouldForwardReads). A replica
  /// uses it to read through to the primary — triggering the primary's
  /// lazy migration of the matching units — and wait for the resulting
  /// log records to apply locally. A non-OK return fails the SELECT.
  using ReadThroughHook =
      std::function<Status(const std::string& sql, const std::string& table)>;
  void set_read_through(ReadThroughHook hook) {
    read_through_ = std::move(hook);
  }

 private:
  /// Parse + execute with tracing spans (requires a bound trace to
  /// record anything; no-ops otherwise).
  Result<QueryResult> ExecuteWithSpans(const std::string& sql);
  Result<QueryResult> ExecuteStatement(const Statement& stmt);
  Result<QueryResult> ExecuteSelect(const SelectStatement& select);
  Result<QueryResult> ExecuteInsert(const InsertStatement& insert);
  Result<QueryResult> ExecuteUpdate(const UpdateStatement& update);
  Result<QueryResult> ExecuteDelete(const DeleteStatement& del);

  /// Session helpers: either the open explicit transaction or a fresh
  /// autocommit session.
  Result<Database::Session*> SessionFor(const std::string& table,
                                        bool* autocommit);
  Status FinishAutocommit(Database::Session* session, Status execution);

  Database* db_;
  std::optional<Database::Session> open_txn_;
  /// Holds the session of the in-flight autocommit statement.
  std::optional<Database::Session> open_autocommit_;
  bool read_only_ = false;
  ReadThroughHook read_through_;
  /// The statement text currently executing (passed to read_through_).
  std::string current_sql_;
};

}  // namespace bullfrog::sql

#endif  // BULLFROG_SQL_ENGINE_H_
