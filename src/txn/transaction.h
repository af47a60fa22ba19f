#ifndef BULLFROG_TXN_TRANSACTION_H_
#define BULLFROG_TXN_TRANSACTION_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "storage/table.h"
#include "storage/tuple.h"
#include "txn/lock_manager.h"
#include "txn/wal.h"

namespace bullfrog {

enum class TxnState : uint8_t { kActive, kCommitted, kAborted };

/// A transaction handle. Created by TransactionManager::Begin and driven
/// exclusively through TransactionManager methods; holds the undo log,
/// acquired lock keys, buffered redo records, and commit/abort hooks.
///
/// Hooks are how BullFrog plugs into the transaction lifecycle without
/// modifying the engine (mirroring how the prototype avoided touching
/// PostgreSQL core, §4):
///  - commit hooks implement Algorithm 1 line 9 (flip WIP units to
///    "migrated" after the migration transaction ends), and
///  - abort hooks implement §3.5 (reset WIP units to [0 0] / `aborted` so
///    waiting workers can take over).
class Transaction {
 public:
  explicit Transaction(uint64_t id) : id_(id) {}

  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  uint64_t id() const { return id_; }
  TxnState state() const { return state_; }

  /// Snapshot timestamp for MVCC reads: the visible clock at Begin,
  /// pinned against GC while the transaction is active.
  uint64_t begin_ts() const { return begin_ts_; }
  /// True from Begin until commit/abort releases the begin pin.
  bool pinned() const { return pinned_; }

  /// Registers fn to run after a successful commit (in registration order).
  void OnCommit(std::function<void()> fn) {
    commit_hooks_.push_back(std::move(fn));
  }
  /// Registers fn to run after rollback completes (in registration order).
  void OnAbort(std::function<void()> fn) {
    abort_hooks_.push_back(std::move(fn));
  }

 private:
  friend class TransactionManager;

  /// One installed row version. Undo unlinks it (Table::UndoInstall);
  /// commit stamps it with the allocated commit timestamp. The version's
  /// own shape (tombstone / shadowed predecessor) tells the table how to
  /// reverse index effects, so no before-image is kept here.
  struct UndoRecord {
    Table* table;
    RowId rid;
    mvcc::RowVersion* version;
  };

  uint64_t id_;
  TxnState state_ = TxnState::kActive;
  uint64_t begin_ts_ = 0;
  bool pinned_ = false;  ///< begin_ts_ is pinned in the SnapshotManager.
  std::vector<UndoRecord> undo_;
  std::vector<LockKey> locks_;
  std::vector<LogRecord> redo_;
  std::vector<std::function<void()>> commit_hooks_;
  std::vector<std::function<void()>> abort_hooks_;
};

}  // namespace bullfrog

#endif  // BULLFROG_TXN_TRANSACTION_H_
