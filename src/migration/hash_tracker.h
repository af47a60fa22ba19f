#ifndef BULLFROG_MIGRATION_HASH_TRACKER_H_
#define BULLFROG_MIGRATION_HASH_TRACKER_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "migration/tracker.h"
#include "storage/tuple.h"

namespace bullfrog {

/// Migration state of a group in the hash tracker.
enum class GroupState : uint8_t {
  kInProgress,  ///< Locked, not migrated.
  kMigrated,
  kAborted,  ///< A previous owner aborted; claimable by any worker.
};

/// The §3.4 hashmap tracker for n:1 and n:n migrations.
///
/// Group identifiers (e.g. GROUP BY keys or join-key equivalence classes)
/// cannot be mapped to dense bitmap offsets without knowing the full key
/// universe in advance, so a partitioned hash table tracks
/// {in-progress, migrated, aborted} per group key. Each partition has its
/// own latch; two latches are never held simultaneously, so the structure
/// cannot deadlock (§3.4 footnote 4).
///
/// TryAcquire implements the global-table part of Algorithm 3 (lines
/// 4-13); the WIP/SKIP local-list short-circuits (lines 2-3) live in the
/// worker loop, which owns those lists.
class HashTracker final : public MigrationTracker {
 public:
  explicit HashTracker(std::string id, size_t partitions = 64);

  HashTracker(const HashTracker&) = delete;
  HashTracker& operator=(const HashTracker&) = delete;

  const std::string& id() const override { return id_; }

  /// Algorithm 3, lines 4-13. Attempts to claim `key`:
  ///  - absent            -> insert (key, in-progress), kAcquired
  ///  - state == aborted  -> flip to in-progress, kAcquired
  ///  - state == in-progress -> kInProgress (caller appends to SKIP)
  ///  - state == migrated -> kAlreadyMigrated
  AcquireResult TryAcquire(const Tuple& key);

  /// Algorithm 1 line 9: in-progress -> migrated after commit.
  void MarkMigrated(const Tuple& key);

  /// §3.5 abort handling: in-progress -> aborted, claimable again.
  void ResetAborted(const Tuple& key);

  /// Marks migrated regardless of current state (ON CONFLICT mode and
  /// recovery).
  void ForceMigrated(const Tuple& key);

  bool IsMigrated(const Tuple& key) const;

  /// Current state if the key is present.
  std::optional<GroupState> GetState(const Tuple& key) const;

  uint64_t MigratedCount() const override {
    return migrated_count_.load(std::memory_order_acquire);
  }

  void MarkMigratedFromLog(const Tuple& unit_key) override;

 private:
  struct Partition {
    mutable std::mutex mu;
    std::unordered_map<Tuple, GroupState, TupleHasher> map;
  };

  Partition& PartitionFor(const Tuple& key) {
    return partitions_[key.Hash() % partitions_.size()];
  }
  const Partition& PartitionFor(const Tuple& key) const {
    return partitions_[key.Hash() % partitions_.size()];
  }

  std::string id_;
  std::vector<Partition> partitions_;
  std::atomic<uint64_t> migrated_count_{0};
};

}  // namespace bullfrog

#endif  // BULLFROG_MIGRATION_HASH_TRACKER_H_
