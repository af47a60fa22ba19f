#ifndef BULLFROG_REPLICATION_CHECKPOINT_H_
#define BULLFROG_REPLICATION_CHECKPOINT_H_

#include <string>

#include "bullfrog/database.h"
#include "common/status.h"

namespace bullfrog::replication {

/// Checkpoints: a consistent physical snapshot of the whole database —
/// catalog (schemas, table states, index definitions) plus every live row
/// at its rid — together with the redo-log offset it covers. Two
/// consumers share the format:
///  - replica bootstrap (REPLICATE subop 1 ships the blob; the replica
///    loads it and tails the log from the embedded offset), and
///  - checkpoint-aware restart (WalDir persists the blob and replays only
///    the WAL suffix, bounding recovery time).
///
/// Blob format (little-endian, on top of storage/value_codec):
///   "BFCK" | u32 version=3 | u64 wal_offset | u64 snapshot_ts |
///   u32 ntables |
///   per table: lp name | u8 state (0=active 1=retired) | schema blob |
///              u32 nindexes x index-def blob | u64 allocated_rows |
///              u64 nlive x (u64 rid | u32 nvals | values) |
///   u8 n_migrations |
///   per entry (in train/submit order): u8 started |
///              lp migrate blob (migration/replication_log.h)
/// The train section lists every unfinished migration: started entries
/// load with resume_after_switch, queued entries re-queue and start only
/// when their replicated "migrate_start" record arrives. LoadCheckpoint
/// accepts version 3 only; any other version is Unsupported.
///
/// Capture is quiesce-free: it holds the controller's switch gate
/// *shared* — client traffic keeps flowing; only a concurrent logical
/// switch serializes against it — and scans every table through the MVCC
/// version chains at one snapshot timestamp T. The barrier pairing T with
/// the embedded wal_offset O:
///   1. O = offset_base + redo-log size,
///   2. SnapshotManager::WaitForAllocatedCommits() — commit timestamps
///      are allocated before the durable append, so every transaction
///      with records below O has published once this returns,
///   3. T = pinned visible clock (>= every such commit's ts).
/// Records at offsets >= O with ts <= T are replayed on top of the
/// snapshot; LogApplier applies them idempotently. A live *lazy* script-
/// based migration does not defer the checkpoint: its replication blob
/// is embedded, and LoadCheckpoint re-submits it with replicated_replay
/// and ON CONFLICT duplicate detection so granule marks lost below O are
/// simply re-migrated and deduplicated at insert time (this leans on the
/// §3.7 on-conflict mode, i.e. deterministic unique keys on the output
/// tables). The whole migration train is embedded — every started entry
/// plus the queued scripts in submit order. Non-lazy (eager, multistep)
/// and script-less migrations return Busy, as does a capture racing a
/// submit mid-construction; callers retry (see ReplicaOptions).
///
/// `offset_base` shifts the embedded wal_offset: the in-memory redo log
/// holds only the records since the last restart, so a WalDir whose
/// segment names live in the global offset space passes its base; the
/// wire path (REPLICATE subop 1) passes 0 because the tail stream serves
/// from the same in-memory log.
Status CaptureCheckpoint(Database* db, std::string* out,
                         uint64_t offset_base = 0);

/// Restores a checkpoint into an empty database (tables it names must not
/// exist). Writes nothing to the redo log — checkpointed rows precede the
/// covered offset by construction. When the blob embeds a live migration,
/// it is re-submitted against the restored (already-switched) catalog
/// with replicated_replay + resume_after_switch; a primary restart then
/// takes ownership via RecoverFromRedoLog, a replica keeps forwarding
/// reads until the replicated completion arrives. Returns the embedded
/// wal_offset.
Status LoadCheckpoint(Database* db, const std::string& blob,
                      uint64_t* wal_offset);

/// Renders a canonical logical dump used for divergence checks: tables
/// sorted by name (active + retired), each with state, schema, and live
/// rows in rid order. Allocated-row counts are deliberately excluded —
/// trailing tombstones (aborted txns, ON CONFLICT DO NOTHING) are never
/// logged, so primary and replica may legitimately differ there.
std::string DumpForDigest(Database* db);

}  // namespace bullfrog::replication

#endif  // BULLFROG_REPLICATION_CHECKPOINT_H_
