#ifndef BULLFROG_MIGRATION_STATEMENT_MIGRATOR_H_
#define BULLFROG_MIGRATION_STATEMENT_MIGRATOR_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "common/status.h"
#include "migration/config.h"
#include "migration/spec.h"
#include "migration/tracker.h"
#include "obs/trace.h"
#include "query/expr.h"
#include "txn/txn_manager.h"

namespace bullfrog {

/// Executes lazy migration for one MigrationStatement: the per-worker loop
/// of Algorithm 1, driven either by a client request's predicate (§2.1) or
/// by the background migrator (§2.2). Built by MakeStatementMigrator; the
/// implementations (one per statement category and unit kind) live in
/// statement_migrator.cc.
///
/// Thread-safe: many workers call MigrateForPredicate concurrently; the
/// trackers arbitrate ownership of units.
class StatementMigrator {
 public:
  virtual ~StatementMigrator() = default;

  StatementMigrator(const StatementMigrator&) = delete;
  StatementMigrator& operator=(const StatementMigrator&) = delete;

  const MigrationStatement& statement() const { return stmt_; }
  const MigrationStats& stats() const { return stats_; }

  /// Migrates every unit potentially relevant to a client request whose
  /// predicate over the new schema is `new_schema_pred` (nullptr = all
  /// units — e.g. an unfilterable request). Blocks until all relevant
  /// units are migrated (including waiting out other workers' in-progress
  /// units per Algorithm 1 line 10).
  Status MigrateForPredicate(const ExprPtr& new_schema_pred);

  /// Background sweep step: migrates up to `max_units` not-yet-migrated
  /// units. Sets *done when a full pass found nothing left. Never waits on
  /// other workers' in-progress units.
  virtual Result<uint64_t> MigrateBackgroundChunk(uint64_t max_units,
                                                  bool* done) = 0;

  /// True once all data of this statement is physically migrated.
  virtual bool IsComplete() const = 0;

  /// The tracker, for replayed-mark wiring.
  virtual MigrationTracker* tracker() = 0;

  /// Fraction of units migrated (approximate; for progress reporting).
  virtual double Progress() const = 0;

  /// Attaches the migration lifecycle tracer (may be null). `name`
  /// identifies this migration in trace events (output table name). The
  /// only event recorded here is the first lazy client pull — a
  /// once-per-migrator atomic flag, nothing on the per-unit fast path.
  void BindTracing(obs::MigrationTracer* tracer, std::string name) {
    tracer_ = tracer;
    trace_name_ = std::move(name);
  }

 protected:
  StatementMigrator(Catalog* catalog, TransactionManager* txns,
                    MigrationStatement stmt, LazyConfig config)
      : catalog_(catalog),
        txns_(txns),
        stmt_(std::move(stmt)),
        config_(config) {}

  /// Category-specific: derive the candidate units for per-input-table
  /// old-schema predicates and run the Algorithm 1 loop on them.
  virtual Status MigrateCandidates(const RewrittenPredicates& preds) = 0;

  Catalog* catalog_;
  TransactionManager* txns_;
  MigrationStatement stmt_;
  LazyConfig config_;
  MigrationStats stats_;
  obs::MigrationTracer* tracer_ = nullptr;
  std::string trace_name_;
  std::atomic<bool> first_pull_traced_{false};
};

/// Factory: builds the right migrator for a statement. Each input table's
/// row boundary (the frozen migration domain) is its current
/// NumAllocatedRows, so call it at the logical switch: a WAL replay
/// re-submits at the same log position and freezes the same domain.
Result<std::unique_ptr<StatementMigrator>> MakeStatementMigrator(
    Catalog* catalog, TransactionManager* txns, MigrationStatement stmt,
    const LazyConfig& config);

/// Calls fn(rid, row) for each row of input `input` that belongs to the
/// hashmap unit `key` (a GROUP BY key, or a join-key class).
using UnitRows = std::function<void(
    size_t input, const Tuple& key,
    const std::function<void(RowId, const Tuple&)>& fn)>;

/// The one body of a hashmap unit, shared by the lazy migrators and the
/// multi-step baseline: for an aggregate, group_transform over the group's
/// rows (no target rows for a group with none); for a join, join_transform
/// over every left x right pair of the class. Adds the rows it derives from
/// (the group's, or the class's left rows) to `*rows_read`.
Result<std::vector<TargetRow>> UnitTargets(const MigrationStatement& stmt,
                                           const UnitRows& rows,
                                           const Tuple& key,
                                           uint64_t* rows_read);

}  // namespace bullfrog

#endif  // BULLFROG_MIGRATION_STATEMENT_MIGRATOR_H_
