#ifndef BULLFROG_REPLICATION_REPLICA_H_
#define BULLFROG_REPLICATION_REPLICA_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bullfrog/database.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "replication/applier.h"
#include "server/client.h"

namespace bullfrog::replication {

struct ReplicaOptions {
  /// "host:port" of the primary's wire-protocol listener.
  std::string primary;
  /// Records requested per REPLICATE tail round-trip.
  uint32_t tail_batch = 512;
  /// Server-side long-poll budget per tail request.
  uint32_t tail_wait_ms = 500;
  /// When a tail frame comes back full (the primary has a backlog), the
  /// replica keeps fetching with zero wait and folds up to this many
  /// frames into ONE LogApplier::Apply call, amortizing the apply-side
  /// bookkeeping the same way group commit amortizes the fsync.
  uint32_t tail_coalesce_frames = 8;
  /// Bootstrap retries while the primary reports kBusy (an eager,
  /// multistep or script-less migration in flight, or a submit caught
  /// mid-construction, defers checkpoint capture) or is not yet
  /// accepting. Retries back off exponentially from bootstrap_retry_ms,
  /// doubling up to bootstrap_max_backoff_ms per attempt — a primary that
  /// stays busy (e.g. a multistep copy held before its cut) is polled
  /// gently instead of hammered, and the replica keeps reporting the wait
  /// in its status line rather than failing hard.
  int bootstrap_retries = 100;
  int64_t bootstrap_retry_ms = 200;
  int64_t bootstrap_max_backoff_ms = 2000;
  /// Upper bound a forwarded read waits for the local apply position to
  /// reach the primary's (read-your-writes barrier for mid-migration
  /// tables, see ForwardRead).
  int64_t forward_wait_ms = 15000;
};

/// A live read replica: bootstraps from a primary checkpoint, then tails
/// the primary's committed redo log over the wire and applies it through
/// LogApplier — including migration events, so the replica's trackers and
/// table states shadow the primary's and read-only queries work against
/// the new schema mid-migration exactly as on the primary.
///
/// Threading: Start() runs the bootstrap synchronously (so a failure is
/// reported to the caller, not lost in a thread), then spawns one apply
/// thread that loops TailLog → Apply. Server QUERY sessions run on their
/// own threads and only touch the shared tables/controller, which are
/// already concurrency-safe; the apply position is published under mu_.
class Replica {
 public:
  /// `db` must be a fresh, empty database dedicated to this replica.
  Replica(Database* db, ReplicaOptions options);
  ~Replica();

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  /// Connects, fetches + loads the bootstrap checkpoint, and starts the
  /// apply thread. Returns the bootstrap error on failure (nothing keeps
  /// running in that case).
  Status Start();

  /// Stops the apply thread and disconnects.
  void Stop();

  /// Blocks until the apply position reaches `offset` (primary log
  /// offsets) or `timeout_ms` elapses; false on timeout or if the apply
  /// loop died.
  bool WaitApplied(uint64_t offset, int64_t timeout_ms);

  /// Read-through for tables whose lazy migration is still in flight on
  /// the primary (SqlEngine's read_through hook): nudges the primary to
  /// migrate the rows this query needs by running the same SELECT there,
  /// then waits until the resulting marks/inserts have been applied
  /// locally. Degrades to serving the local (possibly still-unmigrated)
  /// state if the primary is unreachable — availability over freshness.
  Status ForwardRead(const std::string& sql, const std::string& table);

  /// One-line status for ADMIN "replication":
  ///   role=replica primary=... applied=N primary_offset=M behind=K
  ///   last_error=...
  std::string StatusReport();

  uint64_t applied_offset() const {
    return applied_.load(std::memory_order_acquire);
  }

 private:
  void ApplyLoop();
  /// Decodes one LSN-keyed tail frame (`u64 primary_size | u64 start_lsn
  /// | u32 n | records`), validating that it starts exactly at
  /// `expected_start` — a mismatch means a gap or divergence between the
  /// streams and halts the apply loop rather than corrupting local
  /// state. Appends the frame's records to *out and refreshes the
  /// primary-size snapshot.
  Status DecodeTailFrame(const std::string& payload, uint64_t expected_start,
                         std::vector<LogRecord>* out);

  Database* db_;
  const ReplicaOptions options_;
  LogApplier applier_;

  std::thread apply_thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> started_{false};

  /// Next primary log offset to request = number of records applied.
  std::atomic<uint64_t> applied_{0};
  /// Primary's log size as of the last tail response.
  std::atomic<uint64_t> primary_size_{0};

  mutable std::mutex mu_;
  std::condition_variable applied_cv_;
  std::string last_error_;
  /// Lifecycle phase for the status line: "init" before Start,
  /// "bootstrapping ..." (with attempt count and the primary's last
  /// answer) while fetching the checkpoint, "streaming" once the apply
  /// loop is up.
  std::string phase_ = "init";

  /// Serializes forwarded reads; each uses its own short-lived client
  /// connection guarded here (server::Client is not thread-safe).
  std::mutex forward_mu_;
  server::Client forward_client_;

  // Bound on db_'s registry in the constructor, so the replica's own
  // `ADMIN metrics` scrape shows how far behind the primary it is and
  // how often mid-migration reads round-trip to the primary.
  obs::Gauge* applied_gauge_ = nullptr;
  obs::Gauge* apply_lag_gauge_ = nullptr;
  obs::Counter* read_through_total_ = nullptr;
};

}  // namespace bullfrog::replication

#endif  // BULLFROG_REPLICATION_REPLICA_H_
