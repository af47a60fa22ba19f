#ifndef BULLFROG_MIGRATION_REPLICATION_LOG_H_
#define BULLFROG_MIGRATION_REPLICATION_LOG_H_

#include <string>
#include <vector>

#include "migration/config.h"
#include "storage/value_codec.h"

namespace bullfrog {

/// Blob payloads for migration-related kDdl log records (see txn/wal.h).
/// Four kinds exist:
///  - "migrate": the migration submit. For a migration that starts
///    immediately it is appended inside the switch gate, so replay sees
///    exactly the primary's pre-switch table state. For a migration that
///    queues behind an overlapping train entry it is appended at enqueue
///    time (making the queued script durable), and the later
///    "migrate_start" record marks the actual switch point. Carries the
///    strategy and the SQL script the plan was compiled from (the plan's
///    transforms are std::functions and cannot be serialized).
///  - "migrate_start": the logical switch of a previously queued train
///    entry, appended inside the switch gate when the entry auto-starts.
///    Replay keeps the entry parked on its "migrate" record and starts it
///    here, so tracker boundaries are captured against exactly the
///    primary's pre-switch table state.
///  - "migrate_complete": the completion event. Carries the plan name and
///    the retire-table list so a replica can drop the retired inputs even
///    when it no longer holds (or never built) the active state.
///  - "migrate_abort": a logged entry failed to start (or an eager copy
///    failed and its switch was undone). Carries the plan name and the
///    reason; replay drops the entry and records the same reason.

/// Migrate blob: u8 strategy | u64 granularity | lp script. Granularity
/// rides along because bitmap kMigrationMark records carry granule
/// *indices* — a replica tracker built with a different granule size
/// would mis-interpret every mark.
void EncodeMigrateBlob(std::string* out, MigrationStrategy strategy,
                       uint64_t granularity, const std::string& script);
bool DecodeMigrateBlob(const std::string& blob, MigrationStrategy* strategy,
                       uint64_t* granularity, std::string* script);

/// Start blob: lp plan_name (the queued entry to start).
void EncodeMigrateStartBlob(std::string* out, const std::string& plan_name);
bool DecodeMigrateStartBlob(const std::string& blob, std::string* plan_name);

/// Abort blob: lp plan_name | lp reason.
void EncodeMigrateAbortBlob(std::string* out, const std::string& plan_name,
                            const std::string& reason);
bool DecodeMigrateAbortBlob(const std::string& blob, std::string* plan_name,
                            std::string* reason);

void EncodeMigrateCompleteBlob(std::string* out, const std::string& plan_name,
                               const std::vector<std::string>& retire_tables);
bool DecodeMigrateCompleteBlob(const std::string& blob, std::string* plan_name,
                               std::vector<std::string>* retire_tables);

}  // namespace bullfrog

#endif  // BULLFROG_MIGRATION_REPLICATION_LOG_H_
