#ifndef BULLFROG_TXN_LOCK_MANAGER_H_
#define BULLFROG_TXN_LOCK_MANAGER_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "storage/tuple.h"

namespace bullfrog {

/// Identifies a lockable resource: a row of a table, or (rid ==
/// kInvalidRowId) the table itself. The table is identified by pointer —
/// tables are never destroyed while transactions run.
struct LockKey {
  const void* table = nullptr;
  RowId rid = kInvalidRowId;

  bool operator==(const LockKey& o) const {
    return table == o.table && rid == o.rid;
  }
};

struct LockKeyHasher {
  size_t operator()(const LockKey& k) const {
    uint64_t h = reinterpret_cast<uintptr_t>(k.table);
    h ^= k.rid + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return static_cast<size_t>(h);
  }
};

/// An exclusive-only strict two-phase-locking row lock manager with
/// wait-die deadlock avoidance: a key has at most one holder, and a
/// requester older (smaller txn id) than the holder waits while a younger
/// one "dies" (gets kTxnConflict and is expected to abort and retry).
/// Readers never come here — they resolve MVCC snapshots lock-free — so
/// every request is a writer's (or a SELECT ... FOR UPDATE's). This gives
/// the engine the abort traffic that exercises BullFrog's §3.5 abort
/// handling under contention.
///
/// Sharded: each shard owns a mutex + condvar + lock table. Re-acquiring
/// a held key is a re-entrant grant.
class LockManager {
 public:
  explicit LockManager(size_t shards = 64);

  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  /// Blocks until granted, or returns kTxnConflict (wait-die) /
  /// kTimedOut. Granted locks are recorded per transaction and must be
  /// released with ReleaseAll.
  Status Acquire(uint64_t txn_id, const LockKey& key,
                 int64_t timeout_ms = 10000);

  /// Releases every lock held by the transaction.
  void ReleaseAll(uint64_t txn_id, const std::vector<LockKey>& keys);

  /// True if the txn currently holds the key.
  bool Holds(uint64_t txn_id, const LockKey& key) const;

  /// Attaches observability: a wait-time histogram (recorded only when a
  /// request actually blocks — the uncontended grant path stays free of
  /// clock reads) and a wait-die kill counter. Call before concurrent
  /// use; unbound managers skip all recording.
  void BindMetrics(obs::MetricsRegistry* registry);

 private:
  /// Transaction ids start at 1, so 0 marks a key nobody holds.
  static constexpr uint64_t kNoHolder = 0;
  struct LockState {
    uint64_t holder = kNoHolder;
    uint32_t waiters = 0;
  };
  struct Shard {
    mutable std::mutex mu;
    std::condition_variable cv;
    std::unordered_map<LockKey, LockState, LockKeyHasher> locks;
  };

  Shard& ShardFor(const LockKey& key) {
    return shards_[LockKeyHasher{}(key) % shards_.size()];
  }
  const Shard& ShardFor(const LockKey& key) const {
    return shards_[LockKeyHasher{}(key) % shards_.size()];
  }

  std::vector<Shard> shards_;

  // Observability handles (owned by the bound registry); null = no-op.
  obs::Histogram* wait_hist_ = nullptr;
  obs::Counter* wait_die_kills_ = nullptr;
};

}  // namespace bullfrog

#endif  // BULLFROG_TXN_LOCK_MANAGER_H_
