#ifndef BULLFROG_REPLICATION_APPLIER_H_
#define BULLFROG_REPLICATION_APPLIER_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "bullfrog/database.h"
#include "common/status.h"
#include "txn/wal.h"

namespace bullfrog::replication {

/// Replays committed log records against a local Database. Shared by the
/// replica apply loop (records arriving over the wire) and
/// checkpoint-relative restart (records read back from WAL segments).
///
/// Replay is physical for DML — kInsert/kUpdate/kDelete land at the rid
/// the primary assigned, via Table::RestoreAt — and logical for DDL and
/// migration events: "migrate" records re-submit the shipped script with
/// replicated_replay set, so the replica builds the same trackers and
/// table states without moving any data itself, and kMigrationMark
/// records advance those trackers through
/// MigrationController::ApplyReplicatedMark.
///
/// Records are buffered per transaction and applied at the kCommit
/// boundary: a shipped log only contains committed batches today, but the
/// applier must not rely on that. This is also the §3.5 recovery scan —
/// the only code that applies a kMigrationMark to a tracker.
class LogApplier {
 public:
  /// `append_to_local_log`: when true every consumed batch is also
  /// AppendRaw'd into db->txns().redo_log(), so the replica's own log is
  /// a byte-equal suffix of the primary's (offsets line up, and the
  /// replica can itself be checkpointed or recovered). Restart replay
  /// from local WAL segments passes false — the records already flow into
  /// the log through the segment loader.
  explicit LogApplier(Database* db, bool append_to_local_log)
      : db_(db), append_to_local_log_(append_to_local_log) {}

  /// Applies one batch of records in order. Returns the first hard error;
  /// benign races with migration completion (table already dropped,
  /// tracker already gone) are absorbed, matching the primary's own
  /// semantics where those events are idempotent.
  Status Apply(std::vector<LogRecord> records);

 private:
  Status Flush(uint64_t txn_id);
  Status ApplyDml(const LogRecord& r);
  Status ApplyDdl(const LogRecord& r);

  Database* db_;
  bool append_to_local_log_;
  /// Uncommitted records per transaction id, in arrival order.
  std::unordered_map<uint64_t, std::vector<LogRecord>> pending_;
};

}  // namespace bullfrog::replication

#endif  // BULLFROG_REPLICATION_APPLIER_H_
