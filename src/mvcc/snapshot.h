#ifndef BULLFROG_MVCC_SNAPSHOT_H_
#define BULLFROG_MVCC_SNAPSHOT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>

#include "mvcc/version.h"

namespace bullfrog::mvcc {

/// The per-database commit clock and snapshot registry.
///
/// Timestamp protocol. Commit timestamps are *allocated* from one atomic
/// counter but only become *visible* in allocation order: a committer
/// first stamps all of its installed versions with its allocated ts, then
/// publishes by advancing `visible_clock_` from ts-1 to ts (spinning on
/// its predecessor). A reader's snapshot is simply a load of
/// visible_clock_, which guarantees that every commit <= that value has
/// finished stamping — a snapshot can never observe commit N+1's rows
/// while missing commit N's (no torn snapshots).
///
/// Watermark. `watermark_` is a conservative lower bound on every pinned
/// snapshot (and equals the visible clock when nothing is pinned). GC may
/// reclaim any version that is shadowed by a newer version with
/// commit_ts <= watermark. The pin/advance race is closed with a counter
/// handshake (see Pin()).
///
/// Checkpoint barrier. Commit timestamps are allocated *before* the
/// durable WAL append (see AllocateCommitTs), so any transaction whose
/// records sit at a log offset below O holds a timestamp <= the
/// allocation clock read after O. Because publication is dense and in
/// order — every allocated ts is eventually published, failed appends
/// included — waiting until visible_clock_ reaches that allocation-clock
/// reading (WaitForAllocatedCommits) guarantees a snapshot at the then-
/// visible ts covers every commit below O. No counters, no substitution
/// races: the clock itself is the barrier.
class SnapshotManager {
 public:
  SnapshotManager() = default;
  SnapshotManager(const SnapshotManager&) = delete;
  SnapshotManager& operator=(const SnapshotManager&) = delete;

  /// --- reader side -----------------------------------------------------

  /// Newest published commit timestamp (>= kBootstrapTs).
  uint64_t visible() const {
    return visible_clock_.load(std::memory_order_acquire);
  }

  /// Pins a snapshot at the current visible timestamp and returns it.
  /// While pinned, the watermark will not advance past the returned ts,
  /// so every version the snapshot can see survives GC. Balance with
  /// Unpin(ts).
  ///
  /// Race with a concurrent publisher advancing the watermark: the pin
  /// count is raised (seq_cst) *before* the snapshot ts is read. If the
  /// publisher's count check saw the raised count it leaves the watermark
  /// alone; if it did not, its visible_clock_ store precedes our ts read,
  /// so the pinned ts is >= the watermark it stored. Either way
  /// watermark <= every pinned ts.
  uint64_t Pin();
  void Unpin(uint64_t ts);

  /// RAII pin for a snapshot read outside any transaction (the checkpoint
  /// capture); transactions are pinned by TransactionManager::Begin.
  class PinGuard {
   public:
    explicit PinGuard(SnapshotManager* mgr) : mgr_(mgr), ts_(mgr->Pin()) {}
    ~PinGuard() { mgr_->Unpin(ts_); }
    PinGuard(const PinGuard&) = delete;
    PinGuard& operator=(const PinGuard&) = delete;
    uint64_t ts() const { return ts_; }

   private:
    SnapshotManager* mgr_;
    uint64_t ts_;
  };

  /// --- committer side --------------------------------------------------

  /// Allocates the next commit timestamp. Call *before* the commit's
  /// durable WAL append. Every allocated timestamp MUST be published via
  /// PublishCommitTs — on a failed append too (publish, then roll back;
  /// the rolled-back versions stay invisible because they are never
  /// stamped committed) — or every later committer spins forever on the
  /// hole.
  uint64_t AllocateCommitTs() {
    return next_ts_.fetch_add(1, std::memory_order_seq_cst);
  }

  /// Publishes `ts` in allocation order (spins on the predecessor).
  /// Successful committers stamp their installed versions first, while
  /// still holding their row locks.
  void PublishCommitTs(uint64_t ts);

  /// Waits until every commit timestamp allocated before this call is
  /// published. After it returns, a load of visible() covers every
  /// commit whose WAL append *started* before the wait — the checkpoint
  /// barrier (allocation precedes the append in the commit protocol).
  void WaitForAllocatedCommits() const;

  /// --- GC --------------------------------------------------------------

  uint64_t watermark() const {
    return watermark_.load(std::memory_order_acquire);
  }
  /// Stable pointer for tables' inline chain pruning.
  const std::atomic<uint64_t>* watermark_source() const { return &watermark_; }

 private:
  std::atomic<uint64_t> next_ts_{kBootstrapTs + 1};
  std::atomic<uint64_t> visible_clock_{kBootstrapTs};
  std::atomic<uint64_t> watermark_{kBootstrapTs};

  // Pinned snapshots: ts -> pin count. Guarded by mu_; pin_count_ is the
  // lock-free summary publishers consult before advancing the watermark.
  std::atomic<uint64_t> pin_count_{0};
  mutable std::mutex mu_;
  std::map<uint64_t, uint64_t> pins_;
};

}  // namespace bullfrog::mvcc

#endif  // BULLFROG_MVCC_SNAPSHOT_H_
