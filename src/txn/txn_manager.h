#ifndef BULLFROG_TXN_TXN_MANAGER_H_
#define BULLFROG_TXN_TXN_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "mvcc/snapshot.h"
#include "storage/table.h"
#include "txn/lock_manager.h"
#include "txn/transaction.h"
#include "txn/wal.h"

namespace bullfrog {

/// Drives transactions over heap tables: strict 2PL (wait-die) row locks,
/// version-chain undo on abort, and redo logging on commit. Writers
/// install new row versions (never update in place) and stamp them with a
/// commit timestamp from the per-database SnapshotManager at commit.
///
/// Isolation contract: writes are serializable per-row (exclusive row
/// locks, wait-die). Reads are MVCC snapshot reads: Begin pins the
/// transaction's begin timestamp for its whole life, and a non-FOR-UPDATE
/// Read resolves the row against it without any row lock — readers never
/// block writers and never wait-die. The pin also keeps version GC from
/// reclaiming anything a statement of this transaction can still read
/// (see Database::Select).
/// Migration transactions use the same machinery as client transactions
/// (§3.2: "the migration work ... is performed in a series of
/// transactions").
class TransactionManager {
 public:
  TransactionManager() = default;

  TransactionManager(const TransactionManager&) = delete;
  TransactionManager& operator=(const TransactionManager&) = delete;

  /// Starts a transaction and pins its begin timestamp (released at
  /// commit/abort). Ids are monotonically increasing; wait-die uses them
  /// as timestamps (smaller = older).
  std::unique_ptr<Transaction> Begin();

  /// --- Transactional DML --------------------------------------------

  /// Inserts under an exclusive lock on the new row. With
  /// OnConflict::kDoNothing, a duplicate reports `inserted == false`
  /// without error (§3.7 path) once the conflicting row is committed: an
  /// in-flight writer of that row is waited out (wait-die applies).
  Result<InsertOutcome> Insert(Transaction* txn, Table* table,
                               const Tuple& row,
                               OnConflict policy = OnConflict::kError);

  /// Reads a row at the transaction's begin timestamp (own pending
  /// writes included) without locking it, or, for_update, the latest
  /// version under an exclusive lock.
  Status Read(Transaction* txn, Table* table, RowId rid, Tuple* out,
              bool for_update = false);

  /// Updates under an exclusive lock; records the before-image for undo.
  Status Update(Transaction* txn, Table* table, RowId rid, Tuple new_row);

  /// Deletes under an exclusive lock.
  Status Delete(Transaction* txn, Table* table, RowId rid);

  /// Appends a migration-mark redo record (tracker id + unit key) to the
  /// transaction; becomes durable iff the transaction commits. Used for
  /// the §3.5 crash-recovery extension.
  void LogMigrationMark(Transaction* txn, const std::string& tracker_id,
                        const Tuple& unit_key);

  /// --- Lifecycle -------------------------------------------------------

  /// Commits: appends redo atomically (durable-first when the redo log
  /// has a sink — the call blocks on the group-commit ack), runs commit
  /// hooks, releases locks. If the durable append fails the transaction
  /// is rolled back exactly as Abort would (undo applied, abort hooks
  /// run, locks released) and the sink's error is returned: a commit
  /// that never hit disk is never acked. `ticket`, when non-null,
  /// receives the commit's LSN/ack order on success.
  Status Commit(Transaction* txn, CommitTicket* ticket = nullptr);

  /// Aborts: applies undo in reverse, runs abort hooks, releases locks.
  Status Abort(Transaction* txn);

  /// Exports commit/abort/begin counts (render-time callbacks over the
  /// existing atomics — no new hot-path work) and binds the lock
  /// manager's wait histogram + wait-die kill counter.
  void BindMetrics(obs::MetricsRegistry* registry);

  LockManager& lock_manager() { return locks_; }
  RedoLog& redo_log() { return redo_; }
  mvcc::SnapshotManager& snapshots() { return snapshots_; }

  uint64_t num_started() const {
    return next_txn_id_.load(std::memory_order_relaxed);
  }
  uint64_t num_committed() const {
    return committed_.load(std::memory_order_relaxed);
  }
  uint64_t num_aborted() const {
    return aborted_.load(std::memory_order_relaxed);
  }

 private:
  Status LockRow(Transaction* txn, Table* table, RowId rid);
  /// Shared rollback machinery: undo in reverse, abort hooks, lock
  /// release. Used by Abort and by Commit when the durable append fails.
  void RollbackActive(Transaction* txn);

  LockManager locks_;
  RedoLog redo_;
  mvcc::SnapshotManager snapshots_;
  std::atomic<uint64_t> next_txn_id_{1};
  std::atomic<uint64_t> committed_{0};
  std::atomic<uint64_t> aborted_{0};
};

}  // namespace bullfrog

#endif  // BULLFROG_TXN_TXN_MANAGER_H_
