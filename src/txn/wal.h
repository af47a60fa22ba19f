#ifndef BULLFROG_TXN_WAL_H_
#define BULLFROG_TXN_WAL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"
#include "mvcc/snapshot.h"
#include "obs/metrics.h"
#include "storage/tuple.h"

namespace bullfrog {

class Table;

/// Logical redo-log record kinds.
enum class LogOp : uint8_t {
  kInsert,
  kUpdate,
  kDelete,
  /// Marks a migration unit (bitmap granule or hashmap group) as migrated
  /// by a committed migration transaction. §3.5: "while the REDO log is
  /// scanned during recovery, for each tuple (or group) found in a
  /// committed migration transaction, the corresponding status is set to
  /// [0 1] / migrated". The original prototype left this unimplemented;
  /// this reproduction implements it in replication::LogApplier.
  kMigrationMark,
  kCommit,
  /// A replicated DDL event (CREATE TABLE / CREATE INDEX / migration
  /// submit / migration completion). `table` carries the DDL kind string
  /// ("create_table", "create_index", "migrate", "migrate_complete") and
  /// the single Str value in `after` carries a kind-specific blob (see
  /// catalog/schema_codec.h and migration/replication_log.h). The
  /// replication applier (src/replication/applier.cc) replays them against
  /// the catalog, on a replica and at restart alike.
  kDdl,
};

/// One redo record. `after` carries the post-image for inserts/updates;
/// migration marks carry the tracker id and the unit key.
struct LogRecord {
  uint64_t txn_id = 0;
  LogOp op = LogOp::kCommit;
  std::string table;    // DML target, or tracker id for kMigrationMark.
  RowId rid = kInvalidRowId;
  Tuple after;          // Post-image / migration unit key.
};

/// Builds a kDdl record. `kind` names the DDL event ("create_table",
/// "create_index", "migrate", "migrate_complete"); `blob` is an opaque
/// kind-specific payload, shipped as a single Str value. DDL records are
/// appended via AppendCommitted(0, ...): txn id 0 never collides with real
/// transactions (TxnManager ids start at 1) and the implicit kCommit
/// terminator makes each DDL batch self-contained for replay.
inline LogRecord MakeDdlRecord(std::string kind, std::string blob) {
  LogRecord r;
  r.op = LogOp::kDdl;
  r.table = std::move(kind);
  r.after.push_back(Value::Str(std::move(blob)));
  return r;
}

/// One row version a committing transaction installed. Undo unlinks it
/// (Table::UndoInstall); the redo log's ordering section stamps it with
/// the commit's timestamp. The version's own shape (tombstone / shadowed
/// predecessor) tells the table how to reverse index effects, so no
/// before-image is kept.
struct InstalledVersion {
  Table* table;
  RowId rid;
  mvcc::RowVersion* version;
};

/// Receipt for one committed append, filled by AppendCommitted on
/// success. `lsn` is the log size (record count) just past this commit's
/// records; `commit_ts` is the commit timestamp it took in the same pass
/// of the ordering section. Across commits, commit_ts increases strictly
/// with lsn.
struct CommitTicket {
  uint64_t lsn = 0;
  uint64_t commit_ts = 0;
};

/// The redo log and the one commit sequencer: an in-memory, append-only
/// record vector plus an optional durability sink (e.g. a LogFileWriter),
/// with a group-commit writer in front of the sink.
///
/// Ordering section. Commit order is decided in one place: under `mu_`,
/// in one pass, each commit takes the next commit timestamp (the visible
/// clock plus one), has its records appended, has its installed versions
/// stamped, and then the clock moves to the pass's top timestamp (one
/// store). Timestamp order is therefore log order, and a log offset O
/// pairs with a timestamp T: PinOrderPoint reads both in one pass, so the
/// commits below O are exactly the commits at or below T. The log
/// applier's per-transaction clock step (AdvanceClock) goes through the
/// same section. A failed sink call reaches no ordering section: its
/// commits take no timestamp.
///
/// No sink (the in-memory engine): the committer runs the ordering
/// section itself, one mutex per commit.
///
/// Sink attached: committing transactions enqueue their records and
/// versions and block on a per-commit latch; a dedicated writer thread
/// drains the queue, hands the whole batch to the sink in one call (one
/// fwrite + one fdatasync in LogFileWriter), runs the ordering section
/// once for the batch, and releases the acks in LSN order. Committers
/// keep their row locks until their ack, so a commit is visible before
/// its locks are released. The sink's Status is propagated to every
/// waiter in the batch: a failed write/sync aborts those commits instead
/// of acking them, and the failed records are never published (not
/// visible to ReadFrom, never shipped to replicas).
///
/// Reader isolation: the sink is invoked WITHOUT holding the log mutex,
/// so ReadFrom / size readers (replication tails, checkpoints, ADMIN
/// offset) never wait on an fsync. Records become visible only
/// after they are durable — the in-memory log is always a prefix of the
/// durable log, never ahead of it.
///
/// The writer drains at most 128 commits per sink call and, once the
/// queue is non-empty, waits up to 500 µs for more to accumulate (see
/// kMaxBatch / kMaxWaitUs in wal.cc).
class RedoLog {
 public:
  /// `clock` is the commit clock the ordering section advances; it must
  /// outlive the log.
  explicit RedoLog(mvcc::SnapshotManager* clock) : clock_(clock) {}
  ~RedoLog();
  RedoLog(const RedoLog&) = delete;
  RedoLog& operator=(const RedoLog&) = delete;

  /// Atomically appends all records of a committing transaction plus its
  /// commit record, making them durable through the sink first, then
  /// sequences the commit: it takes a commit timestamp, and every version
  /// in `versions` is stamped with it before it becomes visible (see
  /// class comment). `versions` must stay alive until the call returns.
  /// Returns the sink's Status: on error the records were NOT appended
  /// anywhere, no timestamp was taken, and the caller must treat the
  /// commit as failed. A commit with neither records nor versions (a
  /// read-only transaction) is skipped entirely — no commit record, no
  /// fsync, no timestamp. `ticket`, when non-null, receives the commit's
  /// LSN and timestamp on success.
  Status AppendCommitted(uint64_t txn_id, std::vector<LogRecord> records,
                         std::span<const InstalledVersion> versions = {},
                         CommitTicket* ticket = nullptr);

  /// Takes and publishes the next commit timestamp for a transaction
  /// whose records are not appended through AppendCommitted: the log
  /// applier replays a commit's rows itself and steps the clock here, as
  /// the commit did on the primary.
  void AdvanceClock();

  /// A log offset and a snapshot pinned at the visible clock, read in one
  /// pass of the ordering section: every commit below `offset` has a
  /// timestamp at or below `pin.ts`, every one past it a later one. The
  /// caller unpins.
  struct OrderPoint {
    size_t offset;
    mvcc::SnapshotManager::PinHandle pin;
  };
  OrderPoint PinOrderPoint();

  /// Attaches a durability sink invoked with each committed batch.
  /// Pass nullptr to detach. Attach sinks before commit traffic flows;
  /// call BindMetrics (if at all) before the first attach.
  using Sink = std::function<Status(const std::vector<LogRecord>&)>;
  void SetSink(Sink sink) { SwapSink(std::move(sink)); }

  /// Atomically replaces the sink and returns the log size at the swap
  /// point. WAL segment rotation needs the two together: every record
  /// before the returned offset went to the old sink, every one after
  /// goes to the new sink, so the new segment's base offset is exact.
  /// (Commits queued but not yet durable at the swap point are published
  /// after it, through the new sink — the invariant holds.)
  size_t SwapSink(Sink sink);

  /// Bulk-loads records (e.g. read back from a log file after a restart).
  void AppendRaw(std::vector<LogRecord> records);

  /// Copies up to `limit` records starting at record offset `from` into
  /// *out (cleared first) and returns the current log size. Used by the
  /// replication stream to tail committed records: offsets are stable
  /// because the log is append-only, and only durable records are ever
  /// visible here.
  size_t ReadFrom(size_t from, size_t limit,
                  std::vector<LogRecord>* out) const;

  /// Blocks until the log size exceeds `from` or `timeout_ms` elapses;
  /// returns the current size. Replication tails wait here instead of
  /// sleep-polling, so a committed batch wakes them immediately.
  size_t WaitForSize(size_t from, int64_t timeout_ms) const;

  /// Exports group-commit health onto `registry`:
  ///   bullfrog_wal_group_commit_batch_size  commits per sink call
  ///   bullfrog_wal_sync_seconds             sink (write+fsync) latency
  ///   bullfrog_wal_acks_released_total      commit acks released
  /// Call before the first sink attach (handles are read by the writer
  /// thread without synchronization afterwards).
  void BindMetrics(obs::MetricsRegistry* registry);

  size_t size() const {
    std::lock_guard lock(mu_);
    return records_.size();
  }

 private:
  /// One commit awaiting durability + ack. `done` doubles as the
  /// publication flag: the writer fills result/ticket, then flips it with
  /// release semantics and notifies exactly this committer — a targeted
  /// futex wake instead of a shared-CV thundering herd. int, not bool:
  /// a 4-byte atomic takes libstdc++'s direct per-address futex path
  /// instead of the shared proxy waiter pool.
  struct Pending {
    std::vector<LogRecord> records;  // Stamped, commit record included.
    std::span<const InstalledVersion> versions;
    Status result;
    CommitTicket ticket;
    std::atomic<int> done{0};
  };

  /// The ordering section (mu_ held by the caller): fills each commit's
  /// ticket, appends `records` (the batch's records, in batch order;
  /// moved from), stamps every commit's versions and publishes the top
  /// timestamp.
  void SequenceLocked(std::span<Pending* const> batch,
                      std::vector<LogRecord>* records);
  /// Runs the sink (if any) for `records` under sink_mu_ (already locked
  /// by caller), observing sync latency. OK when no sink is attached.
  Status RunSinkLocked(const std::vector<LogRecord>& records);
  /// The group-commit writer thread: drain queue -> ProcessBatch.
  void WriterLoop();
  /// sink -> ordering section -> release acks in LSN order. Runs on the
  /// writer thread, or on a committer that lost the race with shutdown.
  void ProcessBatch(std::span<Pending* const> batch);
  /// Starts the writer thread if not yet running (called under sink_mu_).
  void StartWriterLocked();

  mvcc::SnapshotManager* const clock_;

  // Lock order (when nested): sink_mu_ -> mu_ and sink_mu_ -> queue_mu_;
  // mu_ and queue_mu_ never nest. `sink_` is written under both sink_mu_
  // and mu_, so either one reads it.
  mutable std::mutex mu_;  // The ordering section: records_ + the clock.
  mutable std::condition_variable grow_cv_;
  std::vector<LogRecord> records_;

  std::mutex sink_mu_;  // Serializes sink calls with their sequencing.
  Sink sink_;

  std::mutex queue_mu_;  // queue_ + writer lifecycle.
  std::condition_variable queue_cv_;
  std::deque<Pending*> queue_;
  bool stop_ = false;
  std::thread writer_;

  // Nullable metric handles; bound before the writer thread exists.
  obs::Histogram* batch_size_hist_ = nullptr;
  obs::Histogram* sync_latency_hist_ = nullptr;
  obs::Counter* acks_counter_ = nullptr;
};

}  // namespace bullfrog

#endif  // BULLFROG_TXN_WAL_H_
