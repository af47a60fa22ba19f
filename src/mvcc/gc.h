#ifndef BULLFROG_MVCC_GC_H_
#define BULLFROG_MVCC_GC_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

#include "catalog/catalog.h"
#include "mvcc/snapshot.h"
#include "obs/metrics.h"

namespace bullfrog::mvcc {

/// Background version-chain garbage collector: periodically advances the
/// snapshot watermark (min of the visible clock and every pinned
/// snapshot) and frees versions shadowed below it in every readable
/// table, plus the retired versions (Table::Retire) whose stamp it has
/// passed. The write path prunes each chain it touches
/// inline and queues the rows it leaves multi-version on its table's
/// dirty list; a pass visits only those rows, so its cost follows the
/// write rate, not the heap size.
class VersionGC {
 public:
  VersionGC(Catalog* catalog, SnapshotManager* snapshots)
      : catalog_(catalog), snapshots_(snapshots) {}
  ~VersionGC() { Stop(); }

  VersionGC(const VersionGC&) = delete;
  VersionGC& operator=(const VersionGC&) = delete;

  /// Starts the sweeper (idempotent). interval_ms must be > 0.
  void Start(int64_t interval_ms);
  /// Stops and joins (idempotent).
  void Stop();

  /// Runs one synchronous sweep; usable without Start (tests, and the
  /// sweeper thread's body).
  void SweepOnce();

  /// Exports bullfrog_mvcc_* series (versions freed, passes, slots
  /// visited, the max_chain high-water mark, current watermark).
  void BindMetrics(obs::MetricsRegistry* registry);

  uint64_t versions_freed() const {
    return versions_freed_.load(std::memory_order_relaxed);
  }
  uint64_t passes() const { return passes_.load(std::memory_order_relaxed); }
  /// Slots latched and pruned over all passes.
  uint64_t slots_visited() const {
    return slots_visited_.load(std::memory_order_relaxed);
  }
  /// Longest chain the latest pass observed.
  uint64_t last_max_chain() const {
    return last_max_chain_.load(std::memory_order_relaxed);
  }
  /// Longest chain any prune walked, inline on the write path or in a
  /// pass, as of the latest pass: a high-water mark, never lowered.
  uint64_t max_chain() const {
    return max_chain_.load(std::memory_order_relaxed);
  }

 private:
  void Loop(int64_t interval_ms);

  Catalog* catalog_;
  SnapshotManager* snapshots_;

  std::atomic<uint64_t> versions_freed_{0};
  std::atomic<uint64_t> passes_{0};
  std::atomic<uint64_t> slots_visited_{0};
  std::atomic<uint64_t> last_max_chain_{0};
  std::atomic<uint64_t> max_chain_{0};

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace bullfrog::mvcc

#endif  // BULLFROG_MVCC_GC_H_
