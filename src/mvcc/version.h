#ifndef BULLFROG_MVCC_VERSION_H_
#define BULLFROG_MVCC_VERSION_H_

#include <atomic>
#include <cstdint>

#include "storage/tuple.h"

namespace bullfrog::mvcc {

/// Commit timestamp of a version whose writing transaction has not
/// committed yet. Sorts above every real timestamp, so a pending version
/// is invisible to every timestamped snapshot.
inline constexpr uint64_t kPendingTs = ~0ULL;

/// Commit timestamp stamped on non-transactional installs: bulk loads,
/// checkpoint restore, physical replay on a replica, recovery. These are
/// by contract not concurrent with snapshot readers that must not see
/// them, so they are visible to every snapshot.
inline constexpr uint64_t kBootstrapTs = 1;

/// One version of a row. Versions hang off a table slot newest-first
/// (`older` points toward the past). Everything except `commit_ts` and
/// `older` is written before the version is linked into the chain (under
/// the slot latch) and is immutable afterwards; `commit_ts` is stamped
/// later by the committing transaction, and `older` is cut by pruning.
/// Both are atomic because snapshot readers walk chains without the latch.
struct RowVersion {
  std::atomic<uint64_t> commit_ts{kPendingTs};
  uint64_t writer_txn = 0;  ///< 0 for non-transactional installs.
  bool deleted = false;     ///< Tombstone version (row deleted at commit_ts).
  Tuple data;               ///< Empty for tombstones.
  std::atomic<RowVersion*> older{nullptr};
};

/// What a reader is allowed to see. `ts == kPendingTs` is the "latest"
/// view: the head version regardless of commit state — exactly the
/// pre-MVCC read-committed-ish semantics every legacy path keeps.
/// A timestamped view sees the newest version with commit_ts <= ts, plus
/// its own transaction's uncommitted versions (txn != 0).
struct ReadView {
  uint64_t ts = kPendingTs;
  uint64_t txn = 0;
};

inline bool Visible(const RowVersion* v, const ReadView& view) {
  const uint64_t ts = v->commit_ts.load(std::memory_order_acquire);
  if (ts == kPendingTs) {
    return view.ts == kPendingTs || (view.txn != 0 && v->writer_txn == view.txn);
  }
  return ts <= view.ts;
}

/// Walks the chain to the newest version visible to `view`, or nullptr
/// (row does not exist at that timestamp). Takes no latch.
///
/// Contract: the caller holds a snapshot pin at or below `view.ts`, so
/// `view.ts` is timestamped. The watermark is at most every pin, and
/// pruning frees at once only versions older than the newest committed
/// version at or below the watermark; when that version was published
/// through the commit clock it is visible to `view`, so the walk stops at
/// or above it and never reaches a freed version. What a walk may be
/// standing on when it is unlinked — an undone pending head, a cut-out
/// tombstone, whatever a non-transactional install (replica apply,
/// replay) shadows — is retired, not freed, until the watermark passes
/// the clock read after the unlink (Table::Retire). The loads are
/// seq_cst, as are those unlinks and that clock read: a walker that
/// loaded such a version before its unlink pinned at or below the read.
inline const RowVersion* VisibleVersion(const RowVersion* head,
                                        const ReadView& view) {
  for (const RowVersion* v = head; v != nullptr;
       v = v->older.load(std::memory_order_seq_cst)) {
    if (Visible(v, view)) return v;
  }
  return nullptr;
}

}  // namespace bullfrog::mvcc

#endif  // BULLFROG_MVCC_VERSION_H_
