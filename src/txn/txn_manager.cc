#include "txn/txn_manager.h"

#include <cassert>
#include <thread>

namespace bullfrog {

std::unique_ptr<Transaction> TransactionManager::Begin() {
  const uint64_t id = next_txn_id_.fetch_add(1, std::memory_order_relaxed);
  auto txn = std::make_unique<Transaction>(id);
  // Pin the begin timestamp so GC cannot reclaim any version this
  // transaction may still read; released at commit/abort.
  txn->pin_ = snapshots_.Pin();
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
  txn->undo_.push_back(InstalledVersion{table, outcome->rid, installed});
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
    assert(txn->pinned());
    return table->ReadAt(rid, mvcc::ReadView{txn->begin_ts(), txn->id()},
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
  txn->undo_.push_back(InstalledVersion{table, rid, installed});
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
  txn->undo_.push_back(InstalledVersion{table, rid, installed});
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
  if (txn->undo_.empty() && txn->redo_.empty()) {
    // Read-only (possibly FOR UPDATE locks only): nothing to stamp, log
    // or publish, so no commit timestamp either.
    if (ticket != nullptr) *ticket = CommitTicket{};
  } else {
    // Durable-first: the append blocks until the records (plus commit
    // record) are on disk — through the group-commit writer when one is
    // running. Its ordering section then gives the commit its timestamp,
    // stamps every installed version and publishes the timestamp, all
    // while we still hold our row locks: a snapshot at ts >= ours sees
    // all our writes and one below sees none. A failed write/sync means
    // the commit never happened and took no timestamp: roll back and
    // surface the sink's error.
    Status durable = redo_.AppendCommitted(txn->id(), std::move(txn->redo_),
                                           txn->undo_, ticket);
    txn->redo_.clear();
    if (!durable.ok()) {
      RollbackActive(txn);
      return durable;
    }
  }
  UnpinBegin(txn);
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

void TransactionManager::UnpinBegin(Transaction* txn) {
  if (txn->pin_.slot == nullptr) return;
  snapshots_.Unpin(txn->pin_);
  txn->pin_.slot = nullptr;
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
  UnpinBegin(txn);
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
