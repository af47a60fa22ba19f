#ifndef BULLFROG_SHARD_COORDINATOR_H_
#define BULLFROG_SHARD_COORDINATOR_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "bullfrog/database.h"
#include "common/status.h"
#include "migration/controller.h"
#include "migration/spec.h"

namespace bullfrog::shard {

/// Coordinates one schema migration across every shard of a
/// ShardedDatabase (the shape of YugabyteDB's cluster-wide schema-change
/// driver over per-tablet schema state). Each shard runs its own full
/// BullFrog lazy migration — its own trackers, write gate, background
/// migrator — against its partition of the data; the coordinator only
/// validates, fans out the submit, and aggregates completion.
///
/// The coordinator keeps no migration state of its own: every status
/// answer is derived from the shards' trains, so it cannot disagree with
/// them. One fan-out runs at a time (a second Submit meanwhile returns
/// kBusy), so every shard admits submits in the same order. A submit
/// every shard refuses with kBusy (a duplicate) returns that kBusy. A
/// submit admitted while others drain rides each shard's migration
/// train: disjoint-table scripts start concurrently, overlapping ones
/// queue per shard and the coordinator propagates kQueued (same contract
/// as the single-engine controller). A shard that rejects a submit
/// leaves its catalog as it found it and lists the reason in its
/// RecentFailures; shards that accepted keep draining (cross-shard
/// all-or-nothing needs a per-shard prepare phase, which does not exist
/// yet), and the submit then returns kInternal naming them.
///
/// Partition-key preservation: shards never exchange rows, so a migration
/// is only admissible when every output row provably lands on the shard
/// that already holds its input rows. Submit enforces this statically:
/// every output table with a primary key must take its first PK column as
/// a pass-through of each input table's own partition column (for joins,
/// both sides — i.e. the join is on the partition keys). Migrations that
/// would re-home rows (e.g. GROUP BY on a non-partition column) are
/// rejected with Unsupported, like SLSM's co-partitioning requirement.
class MigrationCoordinator {
 public:
  /// One shard's view of the coordinated migration.
  struct ShardProgress {
    size_t shard = 0;
    double progress = 0.0;
    bool complete = false;
    /// Train occupancy on that shard: started-but-unfinished entries and
    /// entries still parked in its queue.
    size_t active_migrations = 0;
    size_t queued_migrations = 0;
    uint64_t units_migrated = 0;
    uint64_t units_lazy = 0;
    uint64_t units_background = 0;
    uint64_t units_forced = 0;
    uint64_t rows_migrated = 0;
    /// Seconds from that shard's submit to its local completion; < 0
    /// while still draining. The spread across shards is the
    /// convergence-skew metric (a hot partition drains last).
    double complete_s = -1.0;
  };

  /// `shards` must outlive the coordinator (ShardedDatabase owns both).
  explicit MigrationCoordinator(std::vector<Database*> shards)
      : shards_(std::move(shards)) {}

  MigrationCoordinator(const MigrationCoordinator&) = delete;
  MigrationCoordinator& operator=(const MigrationCoordinator&) = delete;

  /// Validates the script's partition-key preservation, then submits it
  /// to every shard in parallel. Returns only once every shard accepted
  /// (lazy: logical switch done — or the entry queued — everywhere;
  /// eager: all copies finished). Returns kQueued when any shard parked
  /// the script behind an overlapping in-flight migration (it auto-starts
  /// there when the predecessor completes). Any shard's rejection is
  /// returned as an error naming that shard (see FanOut).
  Status Submit(const std::string& script,
                const MigrationController::SubmitOptions& options);

  /// Programmatic variant for plans whose transforms are C++ closures
  /// (the TPC-C figure migrations cannot be expressed as SQL scripts).
  /// `plan_factory` is called once for validation and once per shard —
  /// MigrationPlan transforms are opaque std::functions, so every shard
  /// gets its own fresh instance instead of sharing moved-from state.
  /// Same admission, partition-preservation rule and fan-out as the
  /// script path.
  Status Submit(const std::function<MigrationPlan()>& plan_factory,
                const MigrationController::SubmitOptions& options);

  /// True while any shard's train holds an unfinished entry.
  bool HasActiveMigration() const { return !IsComplete(); }

  /// True when every shard's train is complete (or empty). Mirrors
  /// MigrationController::IsComplete.
  bool IsComplete() const;

  /// Mean of the shards' Progress() — 1.0 only when every shard is done.
  double Progress() const;

  /// Sum of units_migrated over every shard's statement migrators.
  uint64_t TotalUnitsMigrated() const;

  std::vector<ShardProgress> PerShard() const;

  /// Human-readable coordinator report (served by ADMIN "shards"): a
  /// state word derived from the shards' trains — idle (no shard holds an
  /// entry), draining (some entry unfinished) or complete — aggregate
  /// progress, and a per-shard breakdown with each shard's most recent
  /// failed submit.
  std::string StatusReport() const;

 private:
  /// The §co-partitioning rule, checked against a compiled plan whose
  /// input schemas are read from `catalog`.
  Status ValidatePlan(const MigrationPlan& plan, const Catalog& catalog) const;
  Status ValidatePartitionPreservation(const std::string& script) const;
  /// Runs submit_one(shard) on every shard in parallel, holding
  /// submit_mu_ (kBusy when another fan-out holds it). Returns the first
  /// rejection with that shard's code when every shard rejected, kInternal
  /// naming the accepting shards when only some did, else the first
  /// kQueued, else OK.
  Status FanOut(const std::function<Status(size_t)>& submit_one);

  std::vector<Database*> shards_;
  /// Taken with try_lock by FanOut, so fan-outs never interleave.
  std::mutex submit_mu_;
};

}  // namespace bullfrog::shard

#endif  // BULLFROG_SHARD_COORDINATOR_H_
