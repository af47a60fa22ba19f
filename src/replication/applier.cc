#include "replication/applier.h"

#include <utility>

#include "catalog/schema_codec.h"
#include "migration/replication_log.h"
#include "sql/engine.h"

namespace bullfrog::replication {

Status LogApplier::Apply(std::vector<LogRecord> records) {
  for (const LogRecord& r : records) {
    if (r.op == LogOp::kCommit) {
      BF_RETURN_NOT_OK(Flush(r.txn_id));
    } else {
      pending_[r.txn_id].push_back(r);
    }
  }
  if (append_to_local_log_) {
    db_->txns().redo_log().AppendRaw(std::move(records));
  }
  return Status::OK();
}

Status LogApplier::Flush(uint64_t txn_id) {
  auto it = pending_.find(txn_id);
  if (it == pending_.end()) return Status::OK();
  std::vector<LogRecord> batch = std::move(it->second);
  pending_.erase(it);
  for (const LogRecord& r : batch) {
    switch (r.op) {
      case LogOp::kInsert:
      case LogOp::kUpdate:
      case LogOp::kDelete:
        BF_RETURN_NOT_OK(ApplyDml(r));
        break;
      case LogOp::kMigrationMark:
        BF_RETURN_NOT_OK(
            db_->controller().ApplyReplicatedMark(r.table, r.after));
        break;
      case LogOp::kDdl:
        BF_RETURN_NOT_OK(ApplyDdl(r));
        break;
      case LogOp::kCommit:
        break;
    }
  }
  // Replayed rows are non-transactional installs, and what they shadow is
  // retired against the commit clock (Table::Retire). Move the clock once
  // per applied transaction, as its commit did on the primary, so the
  // watermark — and reclamation — keeps up on a replica too.
  db_->txns().redo_log().AdvanceClock();
  return Status::OK();
}

Status LogApplier::ApplyDml(const LogRecord& r) {
  Table* t = db_->catalog().FindTable(r.table);
  if (t == nullptr) {
    // The table was dropped by a later migrate_complete the primary had
    // already processed when it shipped this batch — only possible when a
    // restart replays a log suffix that straddles the drop. The rows are
    // gone either way; skipping preserves convergence.
    return Status::OK();
  }
  switch (r.op) {
    case LogOp::kInsert: {
      Status s = t->RestoreAt(r.rid, r.after);
      // A snapshot checkpoint's WAL suffix may repeat a bulk-loaded row:
      // those are live before their records are appended, so the row can
      // already be in the snapshot. Re-apply the post-image in place.
      if (s.IsAlreadyExists()) return t->ForceApply(r.rid, r.after);
      return s;
    }
    case LogOp::kUpdate: {
      Tuple before;
      Status s = t->Update(r.rid, r.after, &before);
      // A replayed update may land on a slot this node never saw live
      // (suffix replay after the insert was checkpointed away as a
      // tombstone); the post-image alone reconstructs the row.
      if (s.IsNotFound()) return t->RestoreAt(r.rid, r.after);
      return s;
    }
    case LogOp::kDelete: {
      Tuple before;
      Status s = t->Delete(r.rid, &before);
      if (s.IsNotFound()) return Status::OK();  // Already a tombstone.
      return s;
    }
    default:
      return Status::Internal("non-DML record in ApplyDml");
  }
}

Status LogApplier::ApplyDdl(const LogRecord& r) {
  if (r.after.size() != 1 || r.after[0].type() != ValueType::kString) {
    return Status::InvalidArgument("malformed kDdl record: missing blob");
  }
  const std::string& blob = r.after[0].AsString();
  const std::string& kind = r.table;

  if (kind == "create_table") {
    TableSchema schema;
    codec::ByteReader reader(blob);
    if (!DecodeTableSchema(&reader, &schema)) {
      return Status::InvalidArgument("malformed create_table blob");
    }
    Status s = db_->catalog().CreateTable(std::move(schema)).status();
    if (s.IsAlreadyExists()) return Status::OK();  // Suffix overlap.
    return s;
  }

  if (kind == "create_index") {
    std::string table, index_name;
    std::vector<std::string> cols;
    bool unique, ordered;
    codec::ByteReader reader(blob);
    if (!DecodeIndexDef(&reader, &table, &index_name, &cols, &unique,
                        &ordered)) {
      return Status::InvalidArgument("malformed create_index blob");
    }
    Table* t = db_->catalog().FindTable(table);
    if (t == nullptr) return Status::OK();  // Table since dropped.
    Status s = t->CreateIndex(index_name, cols, unique,
                              ordered ? IndexKind::kOrdered : IndexKind::kHash);
    if (s.IsAlreadyExists()) return Status::OK();
    return s;
  }

  if (kind == "migrate") {
    MigrationController::SubmitOptions opts;
    opts.replicated_replay = true;
    std::string script;
    if (!DecodeMigrateBlob(blob, &opts.strategy, &opts.lazy.granularity,
                           &script)) {
      return Status::InvalidArgument("malformed migrate blob");
    }
    // The record may be a queued train entry (logged at enqueue time, not
    // at its logical switch) whose input tables do not exist yet; the
    // script compiles when the entry starts. A replayed queued entry
    // stays parked until its "migrate_start" record arrives, mirroring
    // the primary's switch point exactly.
    Status s = sql::SubmitMigrationScript(db_, script, opts);
    // kQueued: normal train behavior for an enqueue-time record. kBusy is
    // suffix overlap after a mid-migration checkpoint restore: the
    // checkpoint already re-submitted the embedded migration, so a
    // replayed "migrate" record that lost its preceding completion
    // record reports Busy rather than diverging state. Converges once
    // the later records (marks / migrate_start / migrate_complete)
    // arrive.
    if (s.IsBusy() || s.IsQueued()) return Status::OK();
    return s;
  }

  if (kind == "migrate_start") {
    std::string plan_name;
    if (!DecodeMigrateStartBlob(blob, &plan_name)) {
      return Status::InvalidArgument("malformed migrate_start blob");
    }
    // Runs the parked entry's logical switch at exactly this log
    // position; a no-op when the entry already started (checkpoint
    // restore) or its record was swallowed as suffix overlap.
    return db_->controller().StartQueuedMigration(plan_name);
  }

  if (kind == "migrate_abort") {
    std::string plan_name, reason;
    if (!DecodeMigrateAbortBlob(blob, &plan_name, &reason)) {
      return Status::InvalidArgument("malformed migrate_abort blob");
    }
    // The primary dropped this entry; a parked one would otherwise wait
    // forever for a "migrate_start" that never comes.
    return db_->controller().AbortReplicatedMigration(plan_name, reason);
  }

  if (kind == "migrate_complete") {
    std::string plan_name;
    std::vector<std::string> retire_tables;
    if (!DecodeMigrateCompleteBlob(blob, &plan_name, &retire_tables)) {
      return Status::InvalidArgument("malformed migrate_complete blob");
    }
    BF_RETURN_NOT_OK(db_->controller().CompleteReplicatedMigration(plan_name));
    // Fallback for replay without the matching active state (suffix
    // overlap, or a plan that was never replicated): drop the listed
    // retired inputs directly. Already-dropped tables are fine.
    for (const std::string& t : retire_tables) {
      if (db_->catalog().GetState(t) == TableState::kRetired) {
        (void)db_->catalog().DropTable(t);
      }
    }
    return Status::OK();
  }

  return Status::Unsupported("unknown kDdl kind '" + kind + "'");
}

}  // namespace bullfrog::replication
