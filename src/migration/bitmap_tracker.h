#ifndef BULLFROG_MIGRATION_BITMAP_TRACKER_H_
#define BULLFROG_MIGRATION_BITMAP_TRACKER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/latch.h"
#include "migration/tracker.h"
#include "storage/tuple.h"

namespace bullfrog {

/// The §3.3 bitmap tracker for 1:1 and 1:n migrations.
///
/// Two adjacent bits per migration granule, both read in a single load:
///   [0 0]  not yet migrated        (initial)
///   [1 0]  migration in progress   (lock bit set)
///   [0 1]  migrated
///   [1 1]  never occurs
///
/// A granule is `granularity` consecutive RowIds (1 = tuple granularity;
/// larger values give the page-granularity mode evaluated in Fig 11).
///
/// The bitmap is partitioned into chunks, each protected by its own latch
/// (§3.3: "we partition the bitmap into separate chunks protected by
/// different latches to reduce cross-worker latch contention"). The
/// first check of TryAcquire is latch-free (atomic word load); state
/// changes re-check under the chunk latch — the double-checked pattern of
/// Algorithm 2.
class BitmapTracker final : public MigrationTracker {
 public:
  /// Tracks `num_rows` RowIds of the input table at the given granularity.
  BitmapTracker(std::string id, uint64_t num_rows, uint64_t granularity = 1,
                size_t chunks = 256);

  BitmapTracker(const BitmapTracker&) = delete;
  BitmapTracker& operator=(const BitmapTracker&) = delete;

  const std::string& id() const override { return id_; }

  uint64_t granularity() const { return granularity_; }
  uint64_t num_granules() const { return num_granules_; }
  uint64_t num_rows() const { return num_rows_; }

  /// Maps a RowId to its granule index.
  uint64_t GranuleOf(RowId rid) const { return rid / granularity_; }
  /// Row range [first, last) covered by a granule.
  RowId GranuleBegin(uint64_t g) const { return g * granularity_; }
  RowId GranuleEnd(uint64_t g) const {
    const uint64_t end = (g + 1) * granularity_;
    return end < num_rows_ ? end : num_rows_;
  }

  /// Algorithm 2. Attempts to claim granule `g` for migration.
  AcquireResult TryAcquire(uint64_t g);

  /// Algorithm 1 line 9 — flips [1 0] -> [0 1] after the migration
  /// transaction committed.
  void MarkMigrated(uint64_t g);

  /// §3.5 — abort handling: flips [1 0] -> [0 0] so another worker can
  /// take over.
  void ResetAborted(uint64_t g);

  /// Directly marks a granule migrated regardless of lock state; used by
  /// ON CONFLICT mode (no lock bit is maintained, §3.7) and recovery.
  void ForceMigrated(uint64_t g);

  bool IsMigrated(uint64_t g) const;
  bool IsLocked(uint64_t g) const;

  uint64_t MigratedCount() const override {
    return migrated_count_.load(std::memory_order_acquire);
  }
  bool AllMigrated() const { return MigratedCount() >= num_granules_; }

  /// Returns the first granule >= `from` not yet migrated (and not locked
  /// unless `include_locked`), or num_granules() if none. Used by the
  /// background migrator to find remaining work.
  uint64_t NextUnmigrated(uint64_t from, bool include_locked = false) const;

  void MarkMigratedFromLog(const Tuple& unit_key) override;

 private:
  // 2 bits per granule, 32 granules per 64-bit word.
  static constexpr uint64_t kGranulesPerWord = 32;

  static uint64_t WordOf(uint64_t g) { return g / kGranulesPerWord; }
  static int ShiftOf(uint64_t g) {
    return static_cast<int>((g % kGranulesPerWord) * 2);
  }
  // Bit layout within the 2-bit pair: bit 0 = migrate bit, bit 1 = lock
  // bit ("stored in adjacent positions ... both can be accessed in a
  // single read of a memory word", §3.3).
  static constexpr uint64_t kMigrateBit = 0x1;
  static constexpr uint64_t kLockBit = 0x2;

  uint64_t PairOf(uint64_t g) const {
    return (words_[WordOf(g)].load(std::memory_order_acquire) >> ShiftOf(g)) &
           0x3;
  }

  std::string id_;
  uint64_t num_rows_;
  uint64_t granularity_;
  uint64_t num_granules_;
  std::vector<std::atomic<uint64_t>> words_;
  mutable StripedLatch<SpinLatch> chunk_latches_;
  std::atomic<uint64_t> migrated_count_{0};
};

}  // namespace bullfrog

#endif  // BULLFROG_MIGRATION_BITMAP_TRACKER_H_
