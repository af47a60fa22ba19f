#ifndef BULLFROG_MIGRATION_STATEMENT_MIGRATOR_H_
#define BULLFROG_MIGRATION_STATEMENT_MIGRATOR_H_

#include <atomic>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "common/status.h"
#include "migration/bitmap_tracker.h"
#include "migration/config.h"
#include "migration/hash_tracker.h"
#include "common/clock.h"
#include "migration/spec.h"
#include "obs/request_trace.h"
#include "obs/trace.h"
#include "query/expr.h"
#include "txn/txn_manager.h"

namespace bullfrog {

/// Executes lazy migration for one MigrationStatement: the per-worker loop
/// of Algorithm 1, driven either by a client request's predicate (§2.1) or
/// by the background migrator (§2.2).
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

  /// The tracker, for replayed-mark wiring; may be null (Fig 9
  /// no-tracking ablation).
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

  /// Resolves an output table pointer by statement output index.
  Result<Table*> OutputTable(size_t output_index) const;
  /// Resolves an input table (readable even when retired).
  Result<Table*> InputTable(size_t input_index) const;

  /// Runs the configured constraint hook (FK checks, §4.5) for a row
  /// about to be inserted into output table `output_index`.
  Status CheckConstraints(size_t output_index, const Tuple& row) const {
    if (!config_.constraint_hook) return Status::OK();
    return config_.constraint_hook(stmt_.output_tables[output_index], row);
  }

  /// Insert policy for migration inserts under the configured duplicate
  /// detection.
  OnConflict InsertPolicy() const {
    return config_.duplicate_detection == DuplicateDetection::kOnConflictClause
               ? OnConflict::kDoNothing
               : OnConflict::kError;
  }

  /// Bumps units_migrated plus the matching attribution bucket (see
  /// MigrationStats): `forced` = §3.7 ForceMigrated path, otherwise
  /// `wait_for_skipped` distinguishes the lazy client path (true) from
  /// the background sweep (false).
  void CountUnits(size_t n, bool wait_for_skipped, bool forced) {
    stats_.units_migrated.fetch_add(n, std::memory_order_relaxed);
    std::atomic<uint64_t>& bucket =
        forced ? stats_.units_forced
               : (wait_for_skipped ? stats_.units_lazy
                                   : stats_.units_background);
    bucket.fetch_add(n, std::memory_order_relaxed);
    // Request tracing: the pulling thread's trace (if any) counts the
    // units; the layer that owns the request clock adds the time
    // (Database::TracedPrepare). Background threads carry no trace, so
    // only client-path pulls are attributed.
    obs::TraceAddStage(obs::Stage::kMigratePull, 0, n);
  }

  /// Sleeps one skip-recheck tick while units this request needs are
  /// claimed by another migrator (usually the background sweep),
  /// attributing the time to the requester's trace as migrate_wait.
  void SkipRecheckSleep() {
    int64_t t0 = Clock::NowNanos();
    Clock::SleepMicros(config_.skip_recheck_us);
    obs::TraceAddStage(obs::Stage::kMigrateWait, Clock::NowNanos() - t0, 1);
  }

  Catalog* catalog_;
  TransactionManager* txns_;
  MigrationStatement stmt_;
  LazyConfig config_;
  MigrationStats stats_;
  obs::MigrationTracer* tracer_ = nullptr;
  std::string trace_name_;
  std::atomic<bool> first_pull_traced_{false};
};

/// Bitmap-driven migrator for 1:1 / 1:n projection statements (§3.3).
class ProjectionMigrator final : public StatementMigrator {
 public:
  /// `input_boundary` freezes the input domain: rows with rid >=
  /// boundary (inserted after the logical switch, only possible when the
  /// input table stays active) are not part of the migration.
  ProjectionMigrator(Catalog* catalog, TransactionManager* txns,
                     MigrationStatement stmt, LazyConfig config,
                     uint64_t input_boundary);

  Result<uint64_t> MigrateBackgroundChunk(uint64_t max_units,
                                          bool* done) override;
  bool IsComplete() const override;
  MigrationTracker* tracker() override { return tracker_.get(); }
  double Progress() const override;

  BitmapTracker* bitmap() { return tracker_.get(); }

 protected:
  Status MigrateCandidates(const RewrittenPredicates& preds) override;

 private:
  friend class MigrationControllerTestPeer;

  /// Runs Algorithm 1 on an explicit granule set. `wait_for_skipped`
  /// false = background mode (never block on other workers).
  Status MigrateGranules(std::vector<uint64_t> granules,
                         bool wait_for_skipped);

  /// Migrates the granules in `wip` inside transaction `txn`.
  Status MigrateWipGranules(Transaction* txn,
                            const std::vector<uint64_t>& wip);

  std::unique_ptr<BitmapTracker> tracker_;
  std::atomic<uint64_t> sweep_pos_{0};
};

/// Hashmap-driven migrator for n:1 GROUP BY statements (§3.4).
class AggregateMigrator final : public StatementMigrator {
 public:
  AggregateMigrator(Catalog* catalog, TransactionManager* txns,
                    MigrationStatement stmt, LazyConfig config,
                    uint64_t input_boundary);

  Result<uint64_t> MigrateBackgroundChunk(uint64_t max_units,
                                          bool* done) override;
  bool IsComplete() const override;
  MigrationTracker* tracker() override { return tracker_.get(); }
  double Progress() const override;

  HashTracker* hashmap() { return tracker_.get(); }

  /// Migrates one explicit group key (used by client DML paths that know
  /// the exact group, e.g. maintenance of the aggregate on writes).
  Status MigrateGroup(const Tuple& key) {
    return MigrateGroups({key}, /*wait_for_skipped=*/true);
  }

 protected:
  Status MigrateCandidates(const RewrittenPredicates& preds) override;

 private:
  Status MigrateGroups(std::vector<Tuple> keys, bool wait_for_skipped);
  Status MigrateWipGroups(Transaction* txn, const std::vector<Tuple>& wip);
  /// All input rows (rid < boundary) in the group.
  Result<std::vector<Tuple>> CollectGroup(const Tuple& key) const;
  Tuple GroupKeyOf(const Tuple& row) const;

  std::unique_ptr<HashTracker> tracker_;
  std::vector<size_t> key_indices_;
  uint64_t input_boundary_;
  std::atomic<uint64_t> sweep_pos_{0};
  std::atomic<bool> sweep_done_{false};
  std::atomic<bool> found_in_pass_{false};
};

/// Join migrator (§3.6): policy kHashJoinKey uses a hashmap over join-key
/// equivalence classes (n:n); kTrackForeignSideOnly a bitmap over the
/// FKIT; kMigrateAllSiblings a bitmap over the PKIT.
class JoinMigrator final : public StatementMigrator {
 public:
  JoinMigrator(Catalog* catalog, TransactionManager* txns,
               MigrationStatement stmt, LazyConfig config,
               uint64_t left_boundary, uint64_t right_boundary);

  Result<uint64_t> MigrateBackgroundChunk(uint64_t max_units,
                                          bool* done) override;
  bool IsComplete() const override;
  MigrationTracker* tracker() override;
  double Progress() const override;

  /// Migrates one explicit join-key class (kHashJoinKey policy).
  Status MigrateJoinKey(const Value& key);

 protected:
  Status MigrateCandidates(const RewrittenPredicates& preds) override;

 private:
  // --- kHashJoinKey ----------------------------------------------------
  Status MigrateKeys(std::vector<Tuple> keys, bool wait_for_skipped);
  Status MigrateWipKeys(Transaction* txn, const std::vector<Tuple>& wip);

  // --- bitmap policies --------------------------------------------------
  Status MigrateGranules(std::vector<uint64_t> granules,
                         bool wait_for_skipped);
  Status MigrateWipGranules(Transaction* txn,
                            const std::vector<uint64_t>& wip);

  /// Rows of `table` whose join column equals `key` and rid < boundary.
  Result<std::vector<Tuple>> MatchingRows(Table* table, size_t col_index,
                                          const Value& key,
                                          uint64_t boundary) const;

  /// The bitmap-tracked side for the current policy (left for
  /// kTrackForeignSideOnly, right for kMigrateAllSiblings).
  Result<Table*> TrackedTable() const;

  std::unique_ptr<HashTracker> hash_tracker_;
  std::unique_ptr<BitmapTracker> bitmap_tracker_;
  size_t left_key_index_ = 0;
  size_t right_key_index_ = 0;
  uint64_t left_boundary_;
  uint64_t right_boundary_;
  std::atomic<uint64_t> sweep_pos_{0};
  std::atomic<bool> sweep_done_{false};
  std::atomic<bool> found_in_pass_{false};
};

/// Factory: builds the right migrator for a statement. Each input table's
/// row boundary (the frozen migration domain) is its current
/// NumAllocatedRows, so call it at the logical switch: a WAL replay
/// re-submits at the same log position and freezes the same domain.
Result<std::unique_ptr<StatementMigrator>> MakeStatementMigrator(
    Catalog* catalog, TransactionManager* txns, MigrationStatement stmt,
    const LazyConfig& config);

}  // namespace bullfrog

#endif  // BULLFROG_MIGRATION_STATEMENT_MIGRATOR_H_
