#ifndef BULLFROG_MIGRATION_CONTROLLER_H_
#define BULLFROG_MIGRATION_CONTROLLER_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <thread>

#include "common/latch.h"
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/catalog.h"
#include "common/clock.h"
#include "common/result.h"
#include "common/status.h"
#include "migration/background.h"
#include "migration/config.h"
#include "migration/multistep.h"
#include "migration/spec.h"
#include "migration/statement_migrator.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/expr.h"
#include "txn/txn_manager.h"

namespace bullfrog {

/// Orchestrates schema migrations over the catalog: the single-step
/// logical switch (§2.1), lazy request-driven migration, background
/// migration (§2.2), and the two baselines (§4: eager, multi-step).
///
/// Migration state is tracked *per table set*, forming a migration
/// train: submits over disjoint tables run concurrently, each with its
/// own trackers and background workers. A submit whose tables overlap an
/// in-flight (or queued) migration parks in a FIFO queue and returns
/// kQueued; it auto-starts when every predecessor it depends on has
/// completed, so chained hops (old -> mid -> new) drain lazily in order
/// and read-through resolves each hop against the one live migration
/// over its tables. A submit with the same name as an in-flight or
/// queued migration returns kBusy (duplicate).
///
/// Lifetime model: each migration's state is published as an immutable
/// `shared_ptr<ActiveState>` snapshot. Every reader path copies the
/// pointer under `mu_` and works on its copy, so a concurrent Submit (or
/// RecoverFromRedoLog) replacing the state can never free it out from
/// under an in-flight request. See DESIGN.md "Threading & lifetime model".
class MigrationController {
 public:
  struct SubmitOptions {
    MigrationStrategy strategy = MigrationStrategy::kLazy;
    LazyConfig lazy;
    MultiStepCopier::Options multistep;
    /// Lazy only: start background threads (Fig 3's "without background
    /// migration" ablation sets this false).
    bool enable_background = true;
    /// §2.4: a uniqueness constraint added during migration can doom
    /// arbitrary tuples. When true, Submit synchronously verifies — for
    /// every output unique constraint whose columns are all pass-through
    /// from a single input table — that the input holds no duplicates,
    /// and rejects the migration up front. When false, BullFrog proceeds
    /// purely lazily and duplicate rows surface as migration-time errors.
    bool validate_unique_on_submit = false;
    /// Set when this submit replays a replicated (or recovered) "migrate"
    /// log record rather than originating one. Suppresses DDL logging (the
    /// record already exists upstream), background migration, and the
    /// PrepareRead/PrepareInsert lazy-migration paths: on a replica, data
    /// movement arrives physically through the log stream and local
    /// migration would diverge rid assignment from the primary. Tracker
    /// state advances only via ApplyReplicatedMark /
    /// CompleteReplicatedMigration. A replayed entry that queues also
    /// stays parked until its "migrate_start" record arrives (see
    /// StartQueuedMigration) instead of auto-starting.
    bool replicated_replay = false;
    /// Set when this submit rebuilds a migration from a checkpoint whose
    /// catalog is already post-switch (outputs created, inputs retired):
    /// skips the logical switch and only reconstructs the migration
    /// machinery. Lazy only; combine with replicated_replay on restore.
    bool resume_after_switch = false;
  };

  /// Milestones (seconds since Submit) matching the circles on the
  /// paper's throughput figures; < 0 when not (yet) reached.
  struct Timeline {
    double background_start_s = -1.0;
    double complete_s = -1.0;
  };

  /// Builds (or rebuilds) a MigrationPlan on demand. Train entries that
  /// queue behind a predecessor cannot be compiled at submit time — their
  /// input tables may not exist until the predecessor's logical switch —
  /// so the controller defers compilation to the moment the entry starts.
  using PlanFactory = std::function<Result<MigrationPlan>()>;

  /// One train entry in checkpoint terms (see DescribeTrainForCheckpoint).
  struct CheckpointMigration {
    /// True: the entry's logical switch already ran (restore with
    /// resume_after_switch). False: still queued behind a predecessor.
    bool started = false;
    std::string blob;  // EncodeMigrateBlob payload.
  };

  MigrationController(Catalog* catalog, TransactionManager* txns)
      : catalog_(catalog), txns_(txns) {}
  ~MigrationController();

  MigrationController(const MigrationController&) = delete;
  MigrationController& operator=(const MigrationController&) = delete;

  /// Submits a migration.
  ///  - kLazy: creates the new tables, retires the inputs (big flip) and
  ///    returns immediately; data moves lazily + in background.
  ///  - kEager: creates new tables, gates them, retires inputs, migrates
  ///    everything synchronously (this call blocks for the full copy),
  ///    then opens the gates.
  ///  - kMultiStep: creates new tables, keeps old schema active, starts
  ///    the copier; UsesNewSchema() flips once the copier cuts over.
  /// Returns kQueued when the plan's tables overlap an in-flight or
  /// queued migration (lazy only — the entry auto-starts later); kBusy
  /// for duplicates and for non-lazy overlapping submits.
  Status Submit(MigrationPlan plan, const SubmitOptions& opts);

  /// Train-aware submit with deferred plan construction. `name` must be
  /// the name the factory's plan will carry (used for dedup and for
  /// matching replicated migrate_start/migrate_complete records);
  /// `table_set` is the full table footprint (inputs, outputs, retired)
  /// used for overlap admission; `script` is the replicable SQL source
  /// (empty for programmatic plans, which then cannot queue durably).
  /// The factory runs when the entry actually starts — immediately for a
  /// disjoint submit, at auto-start for a queued one.
  Status SubmitScript(std::string name, std::string script,
                      std::vector<std::string> table_set, PlanFactory factory,
                      const SubmitOptions& opts);

  /// --- client request integration (the §2.1 request path) -------------

  /// Called before a request reads new-schema `table` with `pred` (over
  /// that table's columns; nullptr = unfiltered). Blocks on eager gates;
  /// lazily migrates the relevant units. With a train in flight, the
  /// lookup resolves `table` to the one migration whose outputs include
  /// it — concurrent disjoint migrations never contend here.
  Status PrepareRead(const std::string& table, const ExprPtr& pred);

  /// UPDATE/DELETE follow the same migrate-first rule (§2.1: rewritten
  /// "into SELECT statements on the old schema to migrate relevant tuples
  /// first").
  Status PrepareWrite(const std::string& table, const ExprPtr& pred) {
    return PrepareRead(table, pred);
  }

  /// Called before INSERTing `row` into new-schema `table`: migrates
  /// units that could conflict on the table's unique constraints, so the
  /// constraints can be checked over the new schema (§2.1, last
  /// paragraph).
  Status PrepareInsert(const std::string& table, const Tuple& row);

  /// Checks `table`'s declared FOREIGN KEYs for `row`. If a parent table
  /// is itself a migration output, the needed parent rows are migrated
  /// first — the §4.5 "migrate additional data to check integrity
  /// constraints" effect.
  Status CheckForeignKeys(const std::string& table, const Tuple& row);

  /// --- multistep dual-write hooks --------------------------------------

  /// True while a multi-step copy is running (clients must keep using the
  /// old schema and route writes through PropagateOldWrite).
  bool MultiStepActive() const;

  /// RAII guard over the multi-step copier's write gate. Holds the
  /// migration state alive for its own lifetime, so the gate it locks
  /// cannot be torn down by a later Submit while a client still holds it.
  class MultiStepGuard {
   public:
    MultiStepGuard() = default;
    MultiStepGuard(MultiStepGuard&&) = default;
    MultiStepGuard& operator=(MultiStepGuard&&) = default;

   private:
    friend class MigrationController;
    /// Keeps the ActiveState (and thus the gate) alive. Declared before
    /// lock_ so the gate is unlocked before the state can be released.
    std::shared_ptr<const void> state_;
    std::shared_lock<WriterPriorityGate> lock_;
  };

  /// Shared-locks the copier's write gate for the scope of a client write
  /// (no-op outside multistep). Returns an unlocked guard when inactive.
  MultiStepGuard MultiStepWriteGuard();

  /// Propagates a client write on old-schema `table` into the shadow
  /// tables (inside the client's transaction).
  Status PropagateOldWrite(Transaction* txn, const std::string& table,
                           RowId rid, const Tuple& row, bool deleted);

  /// --- status -----------------------------------------------------------

  bool HasActiveMigration() const {
    return active_.load(std::memory_order_acquire);
  }
  /// False only between a multi-step Submit and its cutover.
  bool UsesNewSchema() const;
  /// True when every train entry has completed and nothing is queued.
  bool IsComplete() const;
  /// Mean progress over the incomplete train entries (queued entries
  /// count as 0); 1.0 when nothing is in flight.
  double Progress() const;
  /// Units migrated so far, summed across every train entry's statement
  /// migrators (timeseries sampling).
  uint64_t UnitsMigrated() const;
  Timeline timeline() const;

  /// Started train entries not yet complete / entries still queued.
  size_t ActiveMigrations() const;
  size_t QueuedMigrations() const;

  /// First error the background migrators hit (sticky), OK when none (or
  /// no background migration is running).
  Status background_error() const;

  /// Renders a human-readable status report. For a single migration this
  /// is the classic block (strategy, overall and per-statement progress,
  /// background worker state, milestone timeline, recent trace events);
  /// with a train in flight it lists every entry — started ones with
  /// their per-migration trace stream, queued ones with position and
  /// wait time. Safe to call from any thread at any time (works on state
  /// snapshots); served over the wire by the server's ADMIN opcode.
  std::string StatusReport() const;

  /// Attaches observability (either may be null). The registry gets
  /// render-time callbacks over the per-statement MigrationStats atomics
  /// (progress, unit counters split lazy/background/forced, rows) plus
  /// train gauges (bullfrog_migrations_active / _queued) — the migration
  /// hot paths are not touched. The tracer receives lifecycle events
  /// (submit/switch/first lazy pull/background start/chunks/complete/
  /// recovery). Call once, before concurrent use; typically wired by
  /// Database's constructor.
  void BindObservability(obs::MetricsRegistry* registry,
                         obs::MigrationTracer* tracer);

  /// Statement migrators across every train entry, in submit order;
  /// empty for eager/multistep. The pointers stay valid while the
  /// migration's state is alive — use them promptly, not across a later
  /// Submit.
  std::vector<StatementMigrator*> migrators() const;

  /// Finds the migrator (if any) whose outputs include `table`. Same
  /// lifetime caveat as migrators().
  StatementMigrator* FindMigratorForOutput(const std::string& table) const;

  /// --- recovery (§3.5 extension) ---------------------------------------

  /// Simulates a post-crash restart of the migration machinery: rebuilds
  /// fresh trackers for every incomplete lazy train entry and repopulates
  /// them from the redo log's committed migration marks; queued entries
  /// are handed back to this node (their replicated_replay flag is
  /// cleared so they auto-start normally). Background threads are
  /// restarted. Publishes new state snapshots; in-flight readers keep
  /// using the pre-recovery snapshots they already hold.
  Status RecoverFromRedoLog();

  /// --- replication (live replay on a replica) --------------------------

  /// Re-marks one migration unit from a replicated kMigrationMark record.
  /// Idempotent (trackers ignore already-set marks) and safe against a
  /// concurrently completing migration: once the controller has dropped
  /// or completed the state, the mark is a no-op rather than an error.
  /// `tracker_id` / `unit_key` come straight from the log record; the
  /// tracker is searched across every train entry.
  Status ApplyReplicatedMark(const std::string& tracker_id,
                             const Tuple& unit_key);

  /// Applies a replicated "migrate_complete" record: marks the named
  /// train entry complete and drops its retired inputs. An empty name
  /// (legacy records) completes the oldest incomplete entry. No-op (OK)
  /// when no matching migration is active or it already completed.
  Status CompleteReplicatedMigration(const std::string& plan_name = "");

  /// Applies a replicated "migrate_start" record: pops the named entry
  /// from the queue and runs its logical switch at exactly this log
  /// position, mirroring the primary's auto-start point. No-op (OK) when
  /// the entry is not queued (it already started via a checkpoint restore
  /// or local auto-start).
  Status StartQueuedMigration(const std::string& plan_name);

  /// True when a replicated-replay lazy migration over `table` is still
  /// in flight — i.e. a replica cannot answer new-schema queries from
  /// local data alone and should read through to the primary.
  bool ShouldForwardReads(const std::string& table) const;

  /// For the quiesce-free checkpoint writer: describes the whole
  /// migration train in replication terms — one entry per incomplete
  /// started migration (in submit order), then one per queued migration
  /// (in queue order), each carrying the EncodeMigrateBlob payload a
  /// restored node can re-submit. Returns NotFound when nothing is in
  /// flight (nothing to embed), Busy when the train is not embeddable —
  /// non-lazy strategies, programmatic (script-less) plans, and a submit
  /// mid-construction cannot be reconstructed from blobs, so those still
  /// defer the checkpoint.
  Status DescribeTrainForCheckpoint(
      std::vector<CheckpointMigration>* out) const;

 private:
  /// Per-migration state. Immutable once published through `states_`
  /// except for the `complete` / `complete_s` atomics: any structural
  /// change (recovery) builds and publishes a *new* ActiveState instead
  /// of mutating the visible one. Member order matters for teardown:
  /// `background` and `multistep` are declared after `stmt_migrators` so
  /// their destructors join worker threads before the migrators those
  /// threads use are destroyed.
  struct ActiveState {
    /// Train identity: the plan name (or first output for unnamed
    /// plans). Unique among in-flight entries — duplicate submits are
    /// rejected with kBusy.
    std::string name;
    /// Full table footprint (inputs, outputs, retired) for overlap
    /// admission against later submits.
    std::vector<std::string> table_set;
    /// True when the "migrate" record for this entry was already
    /// appended (at enqueue time, or upstream for replays): the start
    /// path then logs a "migrate_start" marker instead.
    bool ddl_logged = false;
    MigrationPlan plan;
    SubmitOptions opts;
    std::vector<std::unique_ptr<StatementMigrator>> stmt_migrators;
    std::unique_ptr<BackgroundMigrator> background;
    std::unique_ptr<MultiStepCopier> multistep;
    Stopwatch since_submit;
    std::atomic<bool> complete{false};
    std::atomic<double> complete_s{-1.0};
    /// Output table name -> statement index.
    std::unordered_map<std::string, size_t> by_output;
  };

  /// A submit parked behind an overlapping in-flight migration. Its
  /// "migrate" record is already durable (ddl_logged) so a crash replays
  /// the whole train in order; the plan itself is compiled by `factory`
  /// only when the entry starts.
  struct PendingMigration {
    std::string name;
    std::string script;
    std::vector<std::string> table_set;
    SubmitOptions opts;
    PlanFactory factory;
    bool ddl_logged = false;
    Stopwatch since_queued;
  };

  /// A submit between admission and publish: its table footprint is
  /// claimed (so concurrent overlapping submits wait — their WAL records
  /// must not precede this one's) but no state is visible yet.
  struct Reservation {
    std::string name;
    std::vector<std::string> table_set;
  };

  /// Copies the state owning `table` (as an output) under mu_. The
  /// returned snapshot (possibly null) is safe for the caller's scope.
  std::shared_ptr<ActiveState> StateForTable(const std::string& table) const {
    std::lock_guard lock(mu_);
    auto it = by_table_.find(table);
    return it == by_table_.end() ? nullptr : it->second;
  }

  /// Copies every published state pointer under mu_ (submit order).
  std::vector<std::shared_ptr<ActiveState>> SnapshotAll() const {
    std::lock_guard lock(mu_);
    return states_;
  }

  /// Makes a fully-built state visible to readers: registers its output
  /// tables, appends it to the train, releases its reservation, and
  /// raises active_. Called with every non-atomic member of `state` in
  /// its final value.
  void Publish(std::shared_ptr<ActiveState> state);

  static StatementMigrator* MigratorFor(const ActiveState& state,
                                        const std::string& table);

  /// One entry's progress: multistep copier fraction, or the mean over
  /// its statement migrators (1.0 when complete or machinery-less).
  static double StateProgress(const ActiveState& state);

  /// Identifies a migration in trace events: the plan name, or the first
  /// output table for unnamed plans.
  static std::string TraceNameOf(const ActiveState& state);

  /// The plan's full table footprint: retired inputs, created outputs,
  /// and every statement's input/output tables.
  static std::vector<std::string> TableSetOf(const MigrationPlan& plan);

  /// Sums one MigrationStats field over every train entry's statement
  /// migrators (for the registry callbacks).
  uint64_t SumStats(std::atomic<uint64_t> MigrationStats::* field) const;

  /// Admission: dedup by name (kBusy), overlap -> queue (kQueued, lazy
  /// only, logging the "migrate" record at enqueue), disjoint -> reserve
  /// and start. Waits out overlapping reservations first.
  Status SubmitEntry(PendingMigration e);

  /// Runs a reserved entry: compiles the plan via its factory and
  /// dispatches to the strategy's submit path. Releases the reservation
  /// (and withdraws a published-then-failed state) on exit.
  Status StartReserved(PendingMigration e, bool from_queue);

  /// Starts every queue entry whose tables are disjoint from all
  /// incomplete migrations, reservations, and earlier queue entries.
  /// Runs only on the pump thread (see WakePump) — auto-start takes the
  /// switch gate exclusively, which must never happen on a thread that
  /// already holds a migration gate (e.g. the multistep cutover path).
  void PumpQueue();
  /// Signals the pump thread (started lazily) to run PumpQueue soon.
  void WakePump();

  bool NameInFlightLocked(const std::string& name) const;
  /// True when `tables` intersects an incomplete state, a reservation,
  /// or a queued entry; names the first blocker found.
  bool OverlapsInFlightLocked(const std::vector<std::string>& tables,
                              std::string* blocker) const;
  bool OverlapsReservationLocked(const std::vector<std::string>& tables) const;
  void RemoveReservationLocked(const std::string& name);
  /// active_ = any published state or queued entry exists (reservations
  /// excluded: a mid-construction submit is not yet visible, matching
  /// the pre-train behavior where active_ rose only at publish).
  void RecomputeActiveLocked();
  /// Moves completed states out of the train (into *torn_down for the
  /// caller to Stop outside the lock), dropping their by_table_ entries.
  void PruneCompletedLocked(
      std::vector<std::shared_ptr<ActiveState>>* torn_down);
  /// Appends the queued entry's "migrate" record at enqueue time, under
  /// mu_ so queue order and WAL order agree.
  Status LogQueuedMigrateDdlLocked(const PendingMigration& e);

  Status SubmitLazy(const std::shared_ptr<ActiveState>& state);
  Status SubmitEager(const std::shared_ptr<ActiveState>& state);
  /// The §2.4 synchronous pre-check (see validate_unique_on_submit).
  Status ValidateUniqueConstraints(const MigrationPlan& plan);
  Status SubmitMultiStep(const std::shared_ptr<ActiveState>& state);
  Status CreateOutputTables(const MigrationPlan& plan);
  Status RetireInputs(const MigrationPlan& plan);
  void OnMigrationComplete(ActiveState* state);
  /// Appends the replicated "migrate" kDdl record — or, for an entry
  /// whose "migrate" record already went in at enqueue, the
  /// "migrate_start" marker (no-op for script-less plans and replayed
  /// submits). Called inside the switch gate so the record's log
  /// position is exactly the logical switch point. Returns the
  /// durable-append status: a failed WAL sync fails the submit.
  Status LogMigrateDdl(const ActiveState& state);

  /// Per-table gate used to queue requests during eager migration.
  std::shared_ptr<WriterPriorityGate> GateFor(const std::string& table,
                                             bool create);
  /// Drops the gate map entries an eager migration created, so later
  /// GuardTables calls stop paying for dead gates.
  void ReleaseGates(const std::vector<std::string>& tables);

 public:
  /// RAII shared gate over the tables a client request touches; blocks
  /// while an eager migration holds the gates exclusively. Acquire before
  /// executing a request.
  class RequestGuard {
   public:
    RequestGuard() = default;
    RequestGuard(RequestGuard&&) = default;
    RequestGuard& operator=(RequestGuard&&) = default;
    ~RequestGuard() {
      for (auto it = locks_.rbegin(); it != locks_.rend(); ++it) {
        (*it)->unlock_shared();
      }
    }

   private:
    friend class MigrationController;
    std::vector<std::shared_ptr<WriterPriorityGate>> locks_;
  };

  /// Acquires shared gates for `tables` (sorted, to avoid deadlock with
  /// concurrent eager submits). Cheap when no gates exist. Also holds the
  /// global schema-switch gate shared, so a request is never in flight
  /// across the instant of a logical switch.
  RequestGuard GuardTables(std::vector<std::string> tables);

 private:
  friend class MigrationControllerTestPeer;

  Catalog* catalog_;
  TransactionManager* txns_;

  // Observability (null until BindObservability; both outlive this
  // controller — they are declared before it in Database).
  obs::MetricsRegistry* registry_ = nullptr;
  obs::MigrationTracer* tracer_ = nullptr;

  mutable std::mutex mu_;  // Guards the train containers and gate map.
  /// Published migrations, submit order. Completed entries linger (for
  /// status/metrics) until a later Submit prunes them.
  std::vector<std::shared_ptr<ActiveState>> states_;
  /// Output table -> owning state, for the per-table request paths.
  std::unordered_map<std::string, std::shared_ptr<ActiveState>> by_table_;
  /// Overlapping submits parked FIFO; started by the pump thread.
  std::deque<PendingMigration> queue_;
  /// Submits between admission and publish (see Reservation).
  std::vector<Reservation> reservations_;
  /// Auto-starts that failed (compile error, switch failure): surfaced
  /// in StatusReport, since no client is waiting on the status.
  std::vector<std::string> train_errors_;
  /// Signalled when a reservation resolves (publish or failure), so
  /// admission can re-evaluate overlap.
  std::condition_variable reservation_cv_;
  std::atomic<bool> active_{false};
  std::unordered_map<std::string, std::shared_ptr<WriterPriorityGate>> gates_;
  /// Clients hold this shared per request; Submit holds it exclusively
  /// during the logical switch so boundaries are captured with no write
  /// in flight.
  std::shared_ptr<WriterPriorityGate> switch_gate_ =
      std::make_shared<WriterPriorityGate>();

  /// Queue auto-start worker. Started on first enqueue; woken by
  /// OnMigrationComplete (which may run on a background/copier thread
  /// that holds migration gates — the pump thread runs the switch with a
  /// clean lock set).
  std::thread pump_thread_;
  std::condition_variable pump_cv_;
  bool pump_wake_ = false;      // Guarded by mu_.
  bool pump_shutdown_ = false;  // Guarded by mu_.
};

}  // namespace bullfrog

#endif  // BULLFROG_MIGRATION_CONTROLLER_H_
