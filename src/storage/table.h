#ifndef BULLFROG_STORAGE_TABLE_H_
#define BULLFROG_STORAGE_TABLE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "catalog/schema.h"
#include "common/latch.h"
#include "common/result.h"
#include "common/status.h"
#include "mvcc/snapshot.h"
#include "mvcc/version.h"
#include "storage/index.h"
#include "storage/tuple.h"

namespace bullfrog {

/// Conflict policy for inserts hitting a unique index.
enum class OnConflict : uint8_t {
  kError,      ///< Plain INSERT: duplicate key is an AlreadyExists error.
  kDoNothing,  ///< INSERT ... ON CONFLICT DO NOTHING (§3.7).
};

/// Outcome of an insert.
struct InsertOutcome {
  RowId rid = kInvalidRowId;
  bool inserted = false;  ///< false only under OnConflict::kDoNothing.
};

/// An in-memory heap table: a segmented, append-only array of row slots,
/// each slot heading a newest-first chain of row versions (mvcc/).
///
/// Properties the migration layer relies on (mirroring the role PostgreSQL
/// TIDs play in the original prototype, §4):
///  - RowIds are dense (0..NumAllocatedRows) and stable — rows never move,
///    deletion installs a tombstone version. A RowId is therefore directly
///    usable as a position in a migration bitmap.
///  - Physical operations are individually atomic (per-slot latch).
///
/// Versioning. A write installs a new head version rather than updating in
/// place: pending (commit_ts unset) when issued by a transaction, stamped
/// at commit; immediately committed for non-transactional callers (bulk
/// load, replay). The default Read/Scan paths see the head version
/// regardless of commit state — the engine's historical read-committed-ish
/// contract — while the *At variants resolve a ReadView against the chain
/// for snapshot-isolation reads. Undoing a transactional write unlinks its
/// pending head version (UndoInstall).
///
/// Latching. Writers and latest-version reads take the row's slot latch.
/// Snapshot reads (the *At variants) take none: they walk the chain with
/// seq_cst loads under the caller's snapshot pin (see
/// mvcc::VisibleVersion for the contract that keeps the walk off freed
/// versions).
///
/// Index maintenance is performed inside the physical operations against
/// the latest version, so index state always matches the head of the heap;
/// snapshot readers that probe an index must re-apply their full predicate
/// (see query/scan.cc).
class Table {
 public:
  explicit Table(TableSchema schema);
  ~Table();

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const TableSchema& schema() const { return schema_; }
  const std::string& name() const { return schema_.name(); }

  /// --- Index DDL -----------------------------------------------------

  /// Creates an index over `columns`; backfills from existing rows.
  /// Fails with AlreadyExists for duplicate names, ConstraintViolation if a
  /// unique index backfill discovers duplicates.
  Status CreateIndex(const std::string& name,
                     const std::vector<std::string>& columns, bool unique,
                     IndexKind kind);

  /// Returns the index with this name, or nullptr.
  Index* FindIndex(const std::string& name) const;

  /// Returns an index whose key columns exactly match `columns`
  /// (positional order-sensitive), or nullptr.
  Index* FindIndexOn(const std::vector<std::string>& columns) const;

  /// Returns an index whose key is a prefix of usable equality columns —
  /// i.e. all of the index's key columns appear in `eq_columns`.
  Index* FindIndexCoveredBy(const std::vector<size_t>& eq_columns) const;

  const std::vector<std::unique_ptr<Index>>& indexes() const {
    return indexes_;
  }

  /// --- Physical DML (used by the txn layer and bulk loaders) ---------
  ///
  /// `writer_txn` == 0 installs an immediately committed version
  /// (kBootstrapTs); a nonzero id installs a pending version owned by
  /// that transaction, reported through *installed so the caller can
  /// stamp it at commit or unlink it on abort.

  /// Validates + inserts. On unique violation with kError, no change is
  /// made; with kDoNothing, outcome.inserted == false.
  Result<InsertOutcome> Insert(const Tuple& row,
                               OnConflict policy = OnConflict::kError,
                               uint64_t writer_txn = 0,
                               mvcc::RowVersion** installed = nullptr);

  /// Reads the latest version into *out. NotFound for tombstoned or
  /// never-allocated ids.
  Status Read(RowId rid, Tuple* out) const;

  /// Reads the newest version visible to `view`. Latch-free: the caller
  /// holds a snapshot pin at or below view.ts (as for every *At read).
  Status ReadAt(RowId rid, const mvcc::ReadView& view, Tuple* out) const;

  /// Installs `new_row` (moved into the version) as the row's new head,
  /// returning the latest before-image when `before` is non-null. The
  /// caller is expected to hold a logical row lock; the slot latch only
  /// protects against torn reads. Only indexes whose key cells changed
  /// are touched; unique-key updates re-reserve the new key. A
  /// transactional write onto another transaction's pending version is a
  /// TxnConflict (so is a Delete's).
  Status Update(RowId rid, Tuple new_row, Tuple* before,
                uint64_t writer_txn = 0,
                mvcc::RowVersion** installed = nullptr);

  /// Installs a tombstone version, returning the before-image.
  Status Delete(RowId rid, Tuple* before, uint64_t writer_txn = 0,
                mvcc::RowVersion** installed = nullptr);

  /// Re-inserts a previously deleted row into the same slot (undo of
  /// Delete / redo of a recovered insert into a known slot).
  Status Restore(RowId rid, const Tuple& row);

  /// Restore into a slot that may not have been allocated yet: allocates
  /// every segment through `rid` and advances the rid horizon past it
  /// first. Used by physical replay (replica apply, checkpoint-relative
  /// recovery), where the primary dictates rid placement and gaps —
  /// aborted transactions, ON CONFLICT tombstones — never reach the log.
  Status RestoreAt(RowId rid, const Tuple& row);

  /// Replay-only: replaces the row like Update but without requiring the
  /// slot to be live (restores it when needed). Used when a checkpoint
  /// snapshot and the WAL suffix overlap — re-applying an insert that the
  /// snapshot already contains must be idempotent.
  Status ForceApply(RowId rid, const Tuple& row);

  /// Unlinks a pending version installed by an aborting transaction,
  /// reverses its index effects and retires it. `v` must be the slot's
  /// head: strict 2PL keeps other writers off an uncommitted version, and
  /// Update/Delete refuse (TxnConflict) to stack on a fresh insert its
  /// writer has not locked yet.
  Status UndoInstall(RowId rid, mvcc::RowVersion* v);

  /// Raises the allocated-row horizon to at least `n`, materializing the
  /// covering segments (all-tombstone). Checkpoint restore uses this so a
  /// table's NumAllocatedRows matches the primary even when the tail rows
  /// are tombstones.
  void ReserveRows(uint64_t n);

  /// --- Scans ----------------------------------------------------------

  /// Invokes fn(rid, row) for every live row (latest version). The
  /// callback receives a consistent copy of each row; the scan as a whole
  /// is not a snapshot. If fn returns false the scan stops early.
  void Scan(const std::function<bool(RowId, const Tuple&)>& fn) const;

  /// Like Scan but restricted to allocated RowIds in [begin, end).
  void ScanRange(RowId begin, RowId end,
                 const std::function<bool(RowId, const Tuple&)>& fn) const;

  /// Reads each rid in `rids`, skipping tombstones.
  void ReadMany(const std::vector<RowId>& rids,
                const std::function<bool(RowId, const Tuple&)>& fn) const;

  /// A row filter run in place on an immutable linked version (under the
  /// row's slot latch for ReadIf, latch-free for ReadIfAt). It must be pure
  /// computation: it may take no latch and call into no table or index.
  using RowFilter = std::function<bool(const Tuple&)>;

  /// The filtered point read behind the statement path: if `rid` holds a
  /// live row that `keep` accepts (an empty filter accepts everything),
  /// copies it into *out (when non-null) and returns true. The filter sees
  /// the head version in place, so a rejected row is never copied, and an
  /// accepted one is copied exactly once.
  bool ReadIf(RowId rid, const RowFilter& keep, Tuple* out) const;

  /// ReadIf against the version visible to `view`.
  bool ReadIfAt(RowId rid, const mvcc::ReadView& view, const RowFilter& keep,
                Tuple* out) const;

  /// Snapshot variants: visit the version visible to `view` instead of
  /// the head. Each row is consistent at view.ts; the whole scan is a
  /// snapshot as long as view.ts stays pinned (SnapshotManager::Pin).
  /// `fn` sees the immutable version in place, valid while the pin is.
  void ScanAt(const mvcc::ReadView& view,
              const std::function<bool(RowId, const Tuple&)>& fn) const;
  void ScanRangeAt(const mvcc::ReadView& view, RowId begin, RowId end,
                   const std::function<bool(RowId, const Tuple&)>& fn) const;

  /// --- Version GC ------------------------------------------------------

  struct PruneStats {
    uint64_t freed = 0;      ///< Versions freed (retired ones included).
    uint64_t visited = 0;    ///< Slots latched and pruned.
    uint64_t max_chain = 0;  ///< Longest chain observed before pruning.
  };

  /// Frees versions shadowed below `watermark` (see mvcc/gc.h). Visits
  /// only the slots the write path left multi-version since the previous
  /// call (the dirty list), so the cost is O(rows written), not O(heap).
  /// Also frees the retired versions whose stamp is below `watermark`.
  /// max_chain is at least 1 while the table has live rows.
  PruneStats PruneVersions(uint64_t watermark);

  /// Wires the write path's inline chain pruning to the snapshot
  /// watermark and stamps retired versions with the visible clock. Called
  /// by the catalog at table creation; tables without a source skip
  /// inline pruning and free unlinked versions at once.
  void SetSnapshots(const mvcc::SnapshotManager* snapshots) {
    snapshots_ = snapshots;
  }

  /// Longest chain any prune of this table has walked (inline on the
  /// write path or in a sweep): a high-water mark, never lowered.
  uint64_t max_chain() const {
    return max_chain_.load(std::memory_order_relaxed);
  }

  /// --- Stats ----------------------------------------------------------

  /// Number of slots ever allocated (upper bound for RowIds); includes
  /// tombstones. This is the domain of a migration bitmap.
  uint64_t NumAllocatedRows() const {
    return next_rid_.load(std::memory_order_acquire);
  }

  /// Number of live (non-tombstoned, latest-version) rows.
  uint64_t NumLiveRows() const {
    return live_rows_.load(std::memory_order_relaxed);
  }

 private:
  struct RowSlot {
    mutable SpinLatch latch;
    // Set (under the latch) while the slot's rid is queued for the
    // sweeper (see gc_dirty_); sits in the latch's padding.
    bool gc_pending = false;
    // Stored under the latch; snapshot reads load it without.
    std::atomic<mvcc::RowVersion*> head{nullptr};

    /// The head, for a latch holder (the latch orders every store).
    mvcc::RowVersion* locked_head() const {
      return head.load(std::memory_order_relaxed);
    }
  };
  static_assert(sizeof(RowSlot) == 16, "RowSlot must stay two words");

  static constexpr size_t kSegmentBits = 12;  // 4096 rows per segment.
  static constexpr size_t kSegmentSize = 1ULL << kSegmentBits;
  // Fixed segment directory: 1<<16 segments x 4096 rows = 268M rows max.
  // A directory of atomic pointers lets readers resolve slots latch-free.
  static constexpr size_t kMaxSegments = 1ULL << 16;

  struct Segment {
    std::vector<RowSlot> slots{kSegmentSize};
  };

  RowSlot* SlotFor(RowId rid) const;

  /// The latch-free walk behind every snapshot read.
  const mvcc::RowVersion* VisibleAt(const RowSlot* slot,
                                    const mvcc::ReadView& view) const;

  /// Reserves a fresh RowId and returns its (latch-free) slot.
  std::pair<RowId, RowSlot*> AllocateSlot();

  /// What a latched write leaves for after the latch (AfterLatch()):
  /// queueing the slot for the sweeper, retiring what its prune unlinked.
  struct Deferred {
    bool queue = false;
    mvcc::RowVersion* retired = nullptr;
  };

  /// Links a fresh version at the head of the slot's chain (caller holds
  /// the latch) and prunes the chain against the watermark. If a shadowed
  /// version survives and the slot is not queued yet, sets its gc_pending
  /// flag and deferred->queue.
  mvcc::RowVersion* InstallLocked(RowSlot* slot, Tuple data, bool deleted,
                                  uint64_t writer_txn, Deferred* deferred);
  /// Runs a write's deferred work. Never called under a slot latch.
  void AfterLatch(RowId rid, const Deferred& deferred);
  /// Appends rid to the dirty list. Never called under a slot latch.
  void QueueForGc(RowId rid);

  struct Pruned {
    uint64_t freed = 0;  ///< Versions freed at once.
    uint64_t chain = 0;  ///< Versions walked plus versions freed at once.
    /// Versions unlinked but not freed (a detached chain): a cut-out
    /// boundary tombstone, or whatever a non-transactional boundary
    /// shadows. The caller retires it.
    mvcc::RowVersion* retired = nullptr;
  };
  /// Prunes one chain under its latch and raises max_chain_.
  Pruned PruneChainLocked(RowSlot* slot, uint64_t watermark);

  /// Frees `v` — with the detached chain below it, or `alone` — once no
  /// snapshot reader can be standing on it. The caller unlinked it with a
  /// seq_cst store; this stamps it with the visible clock and queues it
  /// for the PruneVersions call whose watermark is above the stamp. Frees
  /// at once without a snapshot source. Never called under a slot latch.
  void Retire(mvcc::RowVersion* v, bool alone);

  Status InsertIndexEntries(const Tuple& row, RowId rid, OnConflict policy,
                            bool* conflicted, RowId* existing_rid);
  void EraseIndexEntries(const Tuple& row, RowId rid);

  TableSchema schema_;
  std::vector<std::unique_ptr<Index>> indexes_;

  std::mutex grow_mu_;  // Serializes segment allocation only.
  std::vector<std::atomic<Segment*>> segments_;
  std::atomic<uint64_t> next_rid_{0};
  std::atomic<uint64_t> live_rows_{0};
  const mvcc::SnapshotManager* snapshots_ = nullptr;
  std::atomic<uint64_t> max_chain_{0};

  // Rids whose chain may hold a shadowed version. A slot's gc_pending
  // flag is set while its rid is on this list, in a running
  // PruneVersions batch, or about to be appended by the writer that set
  // the flag; every slot with head->older != nullptr has it set. gc_mu_
  // is never taken under a slot latch: appending (and growing the
  // vector) inside a hot row's critical section stalled every other
  // writer of that row.
  std::mutex gc_mu_;
  std::vector<RowId> gc_dirty_;

  // Unlinked versions a snapshot reader may still be standing on, each
  // with its stamp (see Retire). Like gc_mu_, never taken under a latch.
  struct RetiredEntry {
    uint64_t stamp;
    mvcc::RowVersion* v;
    bool alone;  ///< v's `older` is not part of the entry.
    uint64_t Free() const;  ///< Returns versions freed.
  };
  std::mutex retire_mu_;
  std::vector<RetiredEntry> retired_;
};

}  // namespace bullfrog

#endif  // BULLFROG_STORAGE_TABLE_H_
