#ifndef BULLFROG_MIGRATION_TRACKER_H_
#define BULLFROG_MIGRATION_TRACKER_H_

#include <cstdint>
#include <string>

#include "storage/tuple.h"

namespace bullfrog {

/// Result of attempting to claim a migration unit (a bitmap granule or a
/// hashmap group) for migration.
enum class AcquireResult : uint8_t {
  kAcquired,         ///< This worker now owns the unit ([1 0] set).
  kInProgress,       ///< Another worker owns it — add to SKIP (Alg. 1/2/3).
  kAlreadyMigrated,  ///< Nothing to do ([0 1]).
};

/// Common behaviour of the two migration status trackers (§3.3 bitmap,
/// §3.4 hashmap). A unit is identified by a Tuple key: a single Int cell
/// (the granule index) for bitmaps, the group key for hashmaps.
class MigrationTracker {
 public:
  virtual ~MigrationTracker() = default;

  /// A stable identifier used in migration-mark redo records.
  virtual const std::string& id() const = 0;

  /// Number of units currently in migrated state.
  virtual uint64_t MigratedCount() const = 0;

  /// §3.5: "for each tuple (or group) that is found in a committed
  /// migration transaction, the corresponding status is set to [0 1] in
  /// the bitmap or migrated in the hashmap." Re-applies one committed
  /// kMigrationMark record (LogApplier -> ApplyReplicatedMark, on a
  /// replica or during WAL replay at restart). Idempotent; out-of-range or
  /// malformed keys are ignored.
  virtual void MarkMigratedFromLog(const Tuple& unit_key) = 0;
};

}  // namespace bullfrog

#endif  // BULLFROG_MIGRATION_TRACKER_H_
