#ifndef BULLFROG_MVCC_SNAPSHOT_H_
#define BULLFROG_MVCC_SNAPSHOT_H_

#include <atomic>
#include <cstdint>
#include <cstddef>

#include "mvcc/version.h"

namespace bullfrog::mvcc {

/// The per-database commit clock and snapshot registry.
///
/// Timestamp protocol. The redo log is the one commit sequencer
/// (RedoLog, txn/wal.h): inside its ordering section a commit takes the
/// next timestamp, has its records appended, has its installed versions
/// stamped, and only then moves `visible_clock_` forward (Publish). So
/// timestamp order is log order, and a reader's snapshot — a load of
/// visible_clock_ — covers every commit at or below it in full: a
/// snapshot can never observe commit N+1's rows while missing commit N's
/// (no torn snapshots). A transaction that wrote nothing commits without
/// a timestamp: it has nothing to publish.
///
/// Pin slots. Pinned snapshots live in cache-line-padded slots, one per
/// open pin, in a chain of fixed-size chunks that only grows. A thread
/// reuses the slot it claimed last, so a pin touches no line another
/// thread writes; a nested pin on the same thread (a statement's lazy-pull
/// transaction, a checkpoint PinGuard) claims a slot of its own. A slot
/// holds kSlotFree, kSlotClaimed (owned, not yet counted), kSlotPinning
/// (a marker below every timestamp) or the pinned timestamp.
///
/// Watermark. `watermark_` is a lower bound on every pinned timestamp and
/// only moves forward. AdvanceWatermark reads the clock first, then every
/// slot below the high-water mark, and raises the watermark to the
/// minimum. Pin claims a slot, raises the high-water mark, stores the
/// marker, and only then reads the clock. All four steps and the scan's
/// loads are seq_cst, so in their single total order a scan either
///  - reads the marker or the timestamp: the minimum is <= the pin; or
///  - reads the slot as not yet marked (or lies below the high-water
///    mark before the raise): that read precedes the marker store, so the
///    scan's clock read precedes the pin's clock read, and the clock never
///    moves back. The minimum is <= that clock reading <= the pin.
/// Either way watermark <= every pinned ts, and because later pins read a
/// clock at least as new, the bound stays true. GC may reclaim any version
/// shadowed by a newer version with commit_ts <= watermark. The watermark
/// moves on every GC sweep and at Unpin, which rescans when the leaving
/// pin may have been holding it and the clock has moved past it, or when
/// the clock has moved kScanEvery past the last scan's clock reading. The
/// second rule keeps the watermark up with the clock when every live pin
/// sits above it: a scan that met a pinner's marker leaves it behind, and
/// no later unpin would otherwise be at or below it. It costs at most one
/// scan per kScanEvery published commits; a read-only steady state never
/// scans.
///
class SnapshotManager {
 private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> ts{UINT64_MAX};
  };

 public:
  SnapshotManager() = default;
  ~SnapshotManager();
  SnapshotManager(const SnapshotManager&) = delete;
  SnapshotManager& operator=(const SnapshotManager&) = delete;

  /// A pinned snapshot: its timestamp and the slot that holds it.
  struct PinHandle {
    Slot* slot = nullptr;
    uint64_t ts = 0;
  };

  /// --- reader side -----------------------------------------------------

  /// Newest published commit timestamp (>= kBootstrapTs). Seq_cst: a
  /// table's retire stamp relies on it (see mvcc::VisibleVersion).
  uint64_t visible() const {
    return visible_clock_.load(std::memory_order_seq_cst);
  }

  /// Pins a snapshot at the current visible timestamp. While pinned, the
  /// watermark stays at or below the returned ts, so every version the
  /// snapshot can see survives GC. Balance with Unpin(handle); O(1) both
  /// ways unless this thread already holds a pin.
  PinHandle Pin();
  void Unpin(PinHandle pin);

  /// RAII pin for a snapshot read outside any transaction (the checkpoint
  /// capture); transactions are pinned by TransactionManager::Begin.
  class PinGuard {
   public:
    explicit PinGuard(SnapshotManager* mgr) : PinGuard(mgr, mgr->Pin()) {}
    /// Adopts a pin taken elsewhere (RedoLog::PinOrderPoint).
    PinGuard(SnapshotManager* mgr, PinHandle pin) : mgr_(mgr), pin_(pin) {}
    ~PinGuard() { mgr_->Unpin(pin_); }
    PinGuard(const PinGuard&) = delete;
    PinGuard& operator=(const PinGuard&) = delete;
    uint64_t ts() const { return pin_.ts; }

   private:
    SnapshotManager* mgr_;
    PinHandle pin_;
  };

  /// --- sequencer side --------------------------------------------------

  /// Makes every commit timestamp up to `ts` visible. Single writer: only
  /// the redo log's ordering section calls it, after stamping every
  /// version the newly visible commits installed.
  void Publish(uint64_t ts) {
    visible_clock_.store(ts, std::memory_order_seq_cst);
  }

  /// --- GC --------------------------------------------------------------

  /// Commits an Unpin lets pass between rate-limited watermark scans.
  static constexpr uint64_t kScanEvery = 64;

  uint64_t watermark() const {
    return watermark_.load(std::memory_order_acquire);
  }

  /// Raises the watermark to min(clock, every pinned ts) and returns it.
  /// Called by the GC sweeper before each pass and by Unpin.
  uint64_t AdvanceWatermark();

  /// Test hook: runs inside Pin after the clock read, before the pinned
  /// timestamp replaces the marker — the window the marker protects. Set
  /// before concurrent use; null (the default) in production.
  void SetPinHookForTesting(void (*hook)(void*), void* arg) {
    pin_hook_ = hook;
    pin_hook_arg_ = arg;
  }

 private:
  static constexpr uint64_t kSlotFree = UINT64_MAX;
  /// Owned by a pinner that has not stored its marker yet; scans ignore
  /// it (see the class comment for why that is safe).
  static constexpr uint64_t kSlotClaimed = UINT64_MAX - 1;
  /// Below every timestamp (kBootstrapTs >= 1): holds the watermark down
  /// while the pinner reads the clock.
  static constexpr uint64_t kSlotPinning = 0;
  static constexpr size_t kChunkSlots = 64;

  struct Chunk {
    Slot slots[kChunkSlots];
    std::atomic<Chunk*> next{nullptr};
  };

  /// Claims a free slot (this thread's last one when free) and raises the
  /// high-water mark over it; grows the chain when every slot is taken.
  Slot* ClaimSlot();

  alignas(64) std::atomic<uint64_t> visible_clock_{kBootstrapTs};
  alignas(64) std::atomic<uint64_t> watermark_{kBootstrapTs};
  /// Highest clock reading a watermark scan started from (or an Unpin
  /// claimed for its scan); the rate limit's reference point.
  std::atomic<uint64_t> last_scan_clock_{kBootstrapTs};
  /// Slots [0, slots_used_) have been claimed at least once; scans stop
  /// there.
  alignas(64) std::atomic<size_t> slots_used_{0};
  void (*pin_hook_)(void*) = nullptr;
  void* pin_hook_arg_ = nullptr;
  Chunk head_;
};

}  // namespace bullfrog::mvcc

#endif  // BULLFROG_MVCC_SNAPSHOT_H_
