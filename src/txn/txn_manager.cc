#include "txn/txn_manager.h"

#include <cassert>
#include <thread>

namespace bullfrog {

std::unique_ptr<Transaction> TransactionManager::Begin() {
  const uint64_t id = next_txn_id_.fetch_add(1, std::memory_order_relaxed);
  auto txn = std::make_unique<Transaction>(id);
  // Pin the begin timestamp so GC cannot reclaim any version this
  // transaction may still read; released at commit/abort.
  txn->begin_ts_ = snapshots_.Pin();
  txn->pinned_ = true;
  return txn;
}

void TransactionManager::BindMetrics(obs::MetricsRegistry* registry) {
  registry->SetCallback("bullfrog_txn_commits", "", [this] {
    return static_cast<double>(num_committed());
  });
  registry->SetCallback("bullfrog_txn_aborts", "", [this] {
    return static_cast<double>(num_aborted());
  });
  registry->SetCallback("bullfrog_txn_begins", "", [this] {
    return static_cast<double>(num_started());
  });
  locks_.BindMetrics(registry);
  redo_.BindMetrics(registry);
}

Status TransactionManager::LockRow(Transaction* txn, Table* table,
                                   RowId rid) {
  LockKey key{table, rid};
  BF_RETURN_NOT_OK(locks_.Acquire(txn->id(), key));
  txn->locks_.push_back(key);
  return Status::OK();
}

Result<InsertOutcome> TransactionManager::Insert(Transaction* txn,
                                                 Table* table,
                                                 const Tuple& row,
                                                 OnConflict policy) {
  assert(txn->state() == TxnState::kActive);
  mvcc::RowVersion* installed = nullptr;
  Result<InsertOutcome> outcome = table->Insert(row, policy, txn->id(),
                                                &installed);
  while (outcome.ok() && !outcome->inserted) {
    // kDoNothing duplicate. Like PostgreSQL's ON CONFLICT DO NOTHING, wait
    // out the transaction writing the conflicting row: snapshot reads
    // never see an uncommitted row, so a caller that relies on the row
    // being there (a lazy pull followed by its statement's read) must not
    // return while that row is still pending. The writer holds the row's
    // exclusive lock from just after its insert until it has committed
    // (and published) or rolled back.
    const RowId rid = outcome->rid;
    const LockKey key{table, rid};
    const bool held = locks_.Holds(txn->id(), key);
    BF_RETURN_NOT_OK(locks_.Acquire(txn->id(), key));
    if (!held) locks_.ReleaseAll(txn->id(), {key});
    if (table->ReadIfAt(rid, mvcc::ReadView{snapshots_.visible(), txn->id()},
                        {}, nullptr)) {
      return outcome;  // Committed (or our own) conflicting row.
    }
    if (!table->ReadIf(rid, {}, nullptr)) {
      // Rolled back (or deleted) meanwhile: the key is free again.
      outcome = table->Insert(row, policy, txn->id(), &installed);
    } else {
      // Still pending: its writer has not taken the row lock yet.
      std::this_thread::yield();
    }
  }
  if (!outcome.ok()) return outcome.status();

  // Record the pending version before locking so a failed lock rolls it
  // back; then lock the freshly created row so no concurrent txn can
  // touch it before we commit. The pending version is visible to latest
  // (non-snapshot) scans before commit; timestamped snapshots skip it.
  txn->undo_.push_back(
      Transaction::UndoRecord{table, outcome->rid, installed});
  BF_RETURN_NOT_OK(LockRow(txn, table, outcome->rid));

  LogRecord redo;
  redo.op = LogOp::kInsert;
  redo.table = table->name();
  redo.rid = outcome->rid;
  redo.after = row;
  txn->redo_.push_back(std::move(redo));
  return outcome;
}

Status TransactionManager::Read(Transaction* txn, Table* table, RowId rid,
                                Tuple* out, bool for_update) {
  assert(txn->state() == TxnState::kActive);
  if (!for_update) {
    // Lock-free snapshot read: resolve the version chain at the begin
    // timestamp (plus our own uncommitted writes).
    assert(txn->pinned_);
    return table->ReadAt(rid, mvcc::ReadView{txn->begin_ts_, txn->id()},
                         out);
  }
  BF_RETURN_NOT_OK(LockRow(txn, table, rid));
  return table->Read(rid, out);
}

Status TransactionManager::Update(Transaction* txn, Table* table, RowId rid,
                                  Tuple new_row) {
  assert(txn->state() == TxnState::kActive);
  BF_RETURN_NOT_OK(LockRow(txn, table, rid));
  mvcc::RowVersion* installed = nullptr;
  BF_RETURN_NOT_OK(table->Update(rid, std::move(new_row), nullptr, txn->id(),
                                 &installed));
  txn->undo_.push_back(Transaction::UndoRecord{table, rid, installed});
  LogRecord redo;
  redo.op = LogOp::kUpdate;
  redo.table = table->name();
  redo.rid = rid;
  // Our own pending version: immutable and pinned by the exclusive lock.
  redo.after = installed->data;
  txn->redo_.push_back(std::move(redo));
  return Status::OK();
}

Status TransactionManager::Delete(Transaction* txn, Table* table, RowId rid) {
  assert(txn->state() == TxnState::kActive);
  BF_RETURN_NOT_OK(LockRow(txn, table, rid));
  mvcc::RowVersion* installed = nullptr;
  BF_RETURN_NOT_OK(table->Delete(rid, nullptr, txn->id(), &installed));
  txn->undo_.push_back(Transaction::UndoRecord{table, rid, installed});
  LogRecord redo;
  redo.op = LogOp::kDelete;
  redo.table = table->name();
  redo.rid = rid;
  txn->redo_.push_back(std::move(redo));
  return Status::OK();
}

void TransactionManager::LogMigrationMark(Transaction* txn,
                                          const std::string& tracker_id,
                                          const Tuple& unit_key) {
  LogRecord redo;
  redo.op = LogOp::kMigrationMark;
  redo.table = tracker_id;
  redo.after = unit_key;
  txn->redo_.push_back(std::move(redo));
}

Status TransactionManager::Commit(Transaction* txn, CommitTicket* ticket) {
  if (txn->state() != TxnState::kActive) {
    return Status::InvalidArgument("commit of non-active transaction");
  }
  // Allocate the commit timestamp *before* the durable append: the
  // checkpoint barrier depends on "records at a WAL offset below O imply
  // a timestamp at or below the allocation clock read after O"
  // (SnapshotManager::WaitForAllocatedCommits). Every allocated ts must
  // be published, so the failure path below publishes too.
  const uint64_t commit_ts = snapshots_.AllocateCommitTs();
  // Durable-first: the append blocks until the records (plus commit
  // record) are on disk — through the group-commit writer when one is
  // running. A failed write/sync means the commit never happened: fill
  // the timestamp hole (no version was stamped, so the ts commits
  // nothing), roll the transaction back, and surface the sink's error.
  Status durable = redo_.AppendCommitted(txn->id(), std::move(txn->redo_),
                                         ticket);
  txn->redo_.clear();
  if (!durable.ok()) {
    snapshots_.PublishCommitTs(commit_ts);
    RollbackActive(txn);
    return durable;
  }
  // Stamp every installed version with the allocated commit timestamp,
  // then publish it in allocation order — still under our row locks, so
  // a snapshot acquired at ts >= ours sees all our writes and one below
  // sees none.
  for (const auto& u : txn->undo_) {
    u.version->commit_ts.store(commit_ts, std::memory_order_release);
  }
  snapshots_.PublishCommitTs(commit_ts);
  if (txn->pinned_) {
    snapshots_.Unpin(txn->begin_ts_);
    txn->pinned_ = false;
  }
  txn->undo_.clear();
  txn->state_ = TxnState::kCommitted;
  locks_.ReleaseAll(txn->id(), txn->locks_);
  txn->locks_.clear();
  committed_.fetch_add(1, std::memory_order_relaxed);
  for (auto& hook : txn->commit_hooks_) hook();
  txn->commit_hooks_.clear();
  txn->abort_hooks_.clear();
  return Status::OK();
}

Status TransactionManager::Abort(Transaction* txn) {
  if (txn->state() != TxnState::kActive) {
    return Status::InvalidArgument("abort of non-active transaction");
  }
  RollbackActive(txn);
  return Status::OK();
}

void TransactionManager::RollbackActive(Transaction* txn) {
  // Undo in reverse order: unlink each pending version from its chain.
  // Exclusive locks on the touched rows are still held, so the unlinks
  // cannot race with other transactions.
  for (auto it = txn->undo_.rbegin(); it != txn->undo_.rend(); ++it) {
    (void)it->table->UndoInstall(it->rid, it->version);
  }
  txn->undo_.clear();
  txn->redo_.clear();
  txn->state_ = TxnState::kAborted;
  if (txn->pinned_) {
    snapshots_.Unpin(txn->begin_ts_);
    txn->pinned_ = false;
  }
  // §3.5: abort hooks (tracker resets) run after rollback completes but
  // before locks are released, so a waiting worker that observes the reset
  // will also be able to read consistent pre-rollback data.
  for (auto& hook : txn->abort_hooks_) hook();
  txn->abort_hooks_.clear();
  txn->commit_hooks_.clear();
  locks_.ReleaseAll(txn->id(), txn->locks_);
  txn->locks_.clear();
  aborted_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace bullfrog
