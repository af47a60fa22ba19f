#ifndef BULLFROG_SHARD_SHARDED_DATABASE_H_
#define BULLFROG_SHARD_SHARDED_DATABASE_H_

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bullfrog/database.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "obs/timeseries.h"
#include "replication/wal_dir.h"
#include "shard/coordinator.h"
#include "shard/executor.h"

namespace bullfrog::shard {

/// A shared-nothing partitioned BullFrog: N engine shards, each a full
/// Database (own catalog, lock manager, redo log, trackers, background
/// migrator, metrics registry), plus one executor thread per shard for
/// parallel fan-out and a MigrationCoordinator that drives schema changes
/// across all of them. Rows are placed by hash of the table's partition
/// key (first primary-key column; see shard/partition.h) and never move
/// between shards.
///
/// DDL (CREATE TABLE / CREATE INDEX / migrations) is broadcast so every
/// shard's catalog stays identical; DML and queries are routed by
/// shard::Session (router.h).
class ShardedDatabase {
 public:
  explicit ShardedDatabase(size_t num_shards);
  ~ShardedDatabase();

  ShardedDatabase(const ShardedDatabase&) = delete;
  ShardedDatabase& operator=(const ShardedDatabase&) = delete;

  size_t num_shards() const { return shards_.size(); }
  Database* shard(size_t i) { return shards_[i].get(); }
  const Database* shard(size_t i) const { return shards_[i].get(); }
  MigrationCoordinator& coordinator() { return *coordinator_; }
  const MigrationCoordinator& coordinator() const { return *coordinator_; }

  /// Front-end registry for cross-shard concerns (the network server's
  /// bullfrog_server_* families bind here). Per-shard engine metrics live
  /// on each shard's own registry; see RenderMetrics().
  obs::MetricsRegistry& metrics() { return metrics_; }

  /// Runs fn(i) for every shard i concurrently, one call per shard on
  /// that shard's executor thread, and returns when all have finished.
  /// The per-shard work must not call back into RunOnShards.
  void RunOnShards(const std::function<void(size_t)>& fn);

  /// --- durability (per-shard WAL segments) -----------------------------
  ///
  /// Layout under `dir`:
  ///   shards.meta      the shard count (re-opening with a different
  ///                    count would silently re-home keys, so it fails)
  ///   shard-<i>/       one WalDir per shard (wal-*.log + ckpt-*.bf)
  ///
  /// Call on an empty ShardedDatabase before any DDL or traffic: each
  /// shard recovers its own segment independently (checkpoint + WAL
  /// suffix, then TakeOwnership of any lazy migration that was mid-flight
  /// at the crash) and then starts logging.
  Status OpenDurable(const std::string& dir);

  /// Checkpoints every shard (kBusy if a migration is draining).
  Status Checkpoint();

  bool durable() const { return !wal_dirs_.empty(); }

  /// Per-shard redo-log sizes (global offsets when durable).
  std::vector<uint64_t> LogOffsets();

  /// --- merged observability --------------------------------------------

  /// The front registry followed by every shard's registry, each shard
  /// section introduced by a '# shard <i>' comment line. A diagnostic
  /// view: family names repeat across sections (one per shard), so point
  /// a Prometheus scraper at one shard's section, not the whole text.
  std::string RenderMetrics();

  /// Per-shard migration traces, each introduced by '# shard <i>'.
  std::string RenderTraces();

  /// The coordinator's per-shard migration report (ADMIN "shards").
  std::string StatusReport();

  /// --- request tracing (front end) -------------------------------------
  ///
  /// A routed statement is one request even when it fans out, so the
  /// trace root, sampler, and finished-trace store live on the front
  /// end; per-shard engines contribute spans into the front trace and
  /// keep their own (mostly idle) stores for embedded use.

  obs::TraceSampler& trace_sampler() { return trace_sampler_; }
  obs::ProfileStore& profiles() { return profiles_; }

  /// Front profile (newest or by id) followed by any shard sections
  /// that recorded traces of their own.
  std::string RenderProfile(uint64_t id = 0);
  /// Front slowlog followed by '# shard <i>' sections.
  std::string RenderSlowlog();
  /// Front timeseries followed by '# shard <i>' sections (only sections
  /// whose sampler was started).
  std::string RenderTimeseries();

  /// Starts the front sampler (aggregate commit count and migration
  /// progress across shards). Idempotent; interval <= 0 reads
  /// BF_TIMESERIES_MS.
  void StartTimeseries(int64_t interval_ms = 0);
  obs::TimeseriesSampler* timeseries() { return timeseries_.get(); }

 private:
  obs::MetricsRegistry metrics_;
  obs::TraceSampler trace_sampler_;
  obs::ProfileStore profiles_;
  std::vector<std::unique_ptr<Database>> shards_;
  std::vector<std::unique_ptr<Executor>> executors_;
  std::vector<std::unique_ptr<replication::WalDir>> wal_dirs_;
  std::unique_ptr<MigrationCoordinator> coordinator_;
  // Declared last: the sampler's background thread reads the coordinator
  // and shards through its source callbacks, so it must be joined
  // (destroyed) before any of them go away.
  std::mutex timeseries_mu_;
  std::unique_ptr<obs::TimeseriesSampler> timeseries_;
};

}  // namespace bullfrog::shard

#endif  // BULLFROG_SHARD_SHARDED_DATABASE_H_
