#ifndef BULLFROG_REPLICATION_WAL_DIR_H_
#define BULLFROG_REPLICATION_WAL_DIR_H_

#include <cstdint>
#include <memory>
#include <string>

#include "bullfrog/database.h"
#include "common/status.h"
#include "txn/log_file.h"

namespace bullfrog::replication {

/// Checkpoint-aware durability directory. Before this layer the daemon's
/// recovery story was a single ever-growing log file replayed from record
/// zero; WalDir bounds restart time by pairing rotated WAL segments with
/// checkpoints and replaying only the suffix past the newest checkpoint.
///
/// Layout (all offsets are *global* record offsets, i.e. positions in the
/// log as if it had never been truncated):
///   wal-<base>.log   records starting at global offset <base>
///   ckpt-<offset>.bf checkpoint covering every record below <offset>
///
/// The in-memory RedoLog always starts at index 0; WalDir tracks `base_`,
/// the global offset of in-memory index 0 (the newest checkpoint's offset
/// after a recovery, 0 for a fresh directory). Segments normally rotate
/// at a checkpoint so none straddles it, but recovery still skips the
/// already-covered prefix of a straddling segment for robustness.
///
/// Usage (bullfrog_serverd --data-dir):
///   WalDir wal;
///   BF_RETURN_NOT_OK(wal.Open(dir));
///   BF_RETURN_NOT_OK(wal.Recover(&db));      // load ckpt + replay suffix
///   BF_RETURN_NOT_OK(wal.StartLogging(&db)); // attach the segment sink
///   ... serve; periodically or via ADMIN "checkpoint": ...
///   BF_RETURN_NOT_OK(wal.Checkpoint(&db));   // write ckpt, rotate, GC
class WalDir {
 public:
  WalDir() = default;
  ~WalDir();

  WalDir(const WalDir&) = delete;
  WalDir& operator=(const WalDir&) = delete;

  /// Binds to `dir`, creating it if missing.
  Status Open(const std::string& dir);

  /// Restores the newest checkpoint (if any) into `db` — which must be
  /// empty — then replays every segment record past it through a
  /// LogApplier, repopulating both the tables and the in-memory redo log
  /// (so in-memory offsets line up: global = base() + index).
  ///
  /// If the replayed suffix leaves a lazy migration incomplete, call
  /// db->controller().RecoverFromRedoLog() afterwards when this node is a
  /// primary: replay submits with replicated_replay set, and a primary
  /// must own its migration again (trackers, background threads).
  Status Recover(Database* db);

  /// Attaches a sink writing committed batches to a fresh segment.
  Status StartLogging(Database* db);

  /// Routes segment-writer syncs through a shared batcher (see
  /// common/sync_batcher.h); a ShardedDatabase points every shard's
  /// WalDir at one so concurrent shard commits share fsync rounds. Takes
  /// effect from the next rotation — call before StartLogging. The
  /// batcher must outlive this WalDir's writers.
  void set_sync_batcher(SyncBatcher* batcher) { batcher_ = batcher; }

  /// Captures a checkpoint (kBusy while a non-embeddable migration is in
  /// flight, see CaptureCheckpoint), writes it as ckpt-<offset>.bf,
  /// rotates to a new segment, and garbage-collects segments and
  /// checkpoints the new checkpoint supersedes.
  Status Checkpoint(Database* db);

  /// Global offset of in-memory redo-log index 0.
  uint64_t base() const { return base_; }

 private:
  Status RotateSegment(Database* db);

  std::string dir_;
  uint64_t base_ = 0;
  SyncBatcher* batcher_ = nullptr;
  std::shared_ptr<LogFileWriter> writer_;
};

}  // namespace bullfrog::replication

#endif  // BULLFROG_REPLICATION_WAL_DIR_H_
