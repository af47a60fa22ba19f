#ifndef BULLFROG_MIGRATION_CONTROLLER_H_
#define BULLFROG_MIGRATION_CONTROLLER_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "catalog/catalog.h"
#include "common/clock.h"
#include "common/latch.h"
#include "common/published.h"
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
/// Lifetime model: each train entry is one `shared_ptr<ActiveState>`,
/// queued, starting or running, immutable once running. The statement
/// path never takes `mu_`: it resolves tables against a published
/// RoutingView (output table -> incomplete entry, the incomplete multistep
/// entry, the eager gates), which owns the states it names, so a
/// concurrent Submit, completion or prune can never free a state out from
/// under an in-flight request.
/// Status paths copy the train under `mu_`. See DESIGN.md "Threading &
/// lifetime model".
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
    /// StartQueuedMigration) instead of auto-starting. TakeOwnership ends
    /// replay mode on a restarting primary.
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

  /// What the statement path routes by; published on every change that
  /// affects it (publish, completion, failed start, restore, eager gate
  /// creation and release). Holds only *incomplete* entries, so with no
  /// migration in flight it is empty and a statement pays one lookup in
  /// an empty map.
  struct RoutingView;
  using RoutingRef = Published<RoutingView>::Ref;

  /// The published views a session resolves its statements against:
  /// captured by GuardTables, refreshed per statement (one acquire load
  /// each; re-fetched only when a view moved).
  struct Views {
    Catalog::ViewRef catalog;
    RoutingRef routing;
  };

  MigrationController(Catalog* catalog, TransactionManager* txns);
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
  /// disjoint submit, at auto-start for a queued one. A submit overlapping
  /// a starting entry waits for it to publish or fail before admission.
  Status SubmitScript(std::string name, std::string script,
                      std::vector<std::string> table_set, PlanFactory factory,
                      const SubmitOptions& opts);

  /// --- client request integration (the §2.1 request path) -------------
  ///
  /// Each call takes the Views to resolve against; a session passes the
  /// ones it holds (no lock, no shared reference count), and the
  /// view-less overloads resolve against the current views.

  /// The current catalog and routing views.
  Views CurrentViews() const {
    return Views{catalog_->view(), routing_.Load()};
  }
  /// Re-fetches whichever of *views was superseded since it was taken.
  void Refresh(Views* views) const {
    catalog_->Refresh(&views->catalog);
    routing_.Refresh(&views->routing);
  }

  /// Called before a request reads new-schema `table` with `pred` (over
  /// that table's columns; nullptr = unfiltered). Lazily migrates the
  /// relevant units. With a train in flight, the lookup resolves `table`
  /// to the one migration whose outputs include it — concurrent disjoint
  /// migrations never contend here.
  Status PrepareRead(const Views& views, const std::string& table,
                     const ExprPtr& pred);
  Status PrepareRead(const std::string& table, const ExprPtr& pred) {
    return PrepareRead(CurrentViews(), table, pred);
  }

  /// UPDATE/DELETE follow the same migrate-first rule (§2.1: rewritten
  /// "into SELECT statements on the old schema to migrate relevant tuples
  /// first").
  Status PrepareWrite(const Views& views, const std::string& table,
                      const ExprPtr& pred) {
    return PrepareRead(views, table, pred);
  }

  /// Called before INSERTing `row` into new-schema `table`: migrates
  /// units that could conflict on the table's unique constraints, so the
  /// constraints can be checked over the new schema (§2.1, last
  /// paragraph).
  Status PrepareInsert(const Views& views, const std::string& table,
                       const Tuple& row);
  Status PrepareInsert(const std::string& table, const Tuple& row) {
    return PrepareInsert(CurrentViews(), table, row);
  }

  /// Checks `table`'s declared FOREIGN KEYs for `row`. If a parent table
  /// is itself a migration output, the needed parent rows are migrated
  /// first — the §4.5 "migrate additional data to check integrity
  /// constraints" effect.
  Status CheckForeignKeys(const Views& views, const std::string& table,
                          const Tuple& row);
  Status CheckForeignKeys(const std::string& table, const Tuple& row) {
    return CheckForeignKeys(CurrentViews(), table, row);
  }

  /// --- multistep dual-write hooks --------------------------------------

  /// True while a multi-step copy is running (clients must keep using the
  /// old schema and route writes through PropagateOldWrite).
  static bool MultiStepActive(const Views& views);
  bool MultiStepActive() const { return MultiStepActive(CurrentViews()); }

  /// RAII guard over the multi-step copier's write gate. Holds the
  /// migration state alive for its own lifetime, so the gate it locks
  /// cannot be torn down by a later Submit while a client still holds it.
  class MultiStepGuard {
   public:
    MultiStepGuard() = default;
    MultiStepGuard(MultiStepGuard&&) = default;
    /// Unlocks the gate before releasing the state that owns it (a
    /// defaulted assignment would release state_ first).
    MultiStepGuard& operator=(MultiStepGuard&& other) noexcept {
      lock_ = std::move(other.lock_);
      state_ = std::move(other.state_);
      return *this;
    }

   private:
    friend class MigrationController;
    /// Keeps the ActiveState (and thus the gate) alive. Declared before
    /// lock_ so the gate is unlocked before the state can be released.
    std::shared_ptr<const void> state_;
    std::shared_lock<WriterPriorityGate> lock_;
  };

  /// Shared-locks the copier's write gate for the scope of a client write
  /// (no-op outside multistep). Returns an unlocked guard when inactive.
  static MultiStepGuard MultiStepWriteGuard(const Views& views);
  MultiStepGuard MultiStepWriteGuard() {
    return MultiStepWriteGuard(CurrentViews());
  }

  /// Propagates a client write on old-schema `table` into the shadow
  /// tables (inside the client's transaction). `before` and `after` are
  /// row `rid`'s images around the write: `before` is null for an insert,
  /// `after` for a delete.
  static Status PropagateOldWrite(const Views& views, Transaction* txn,
                                  const std::string& table, RowId rid,
                                  const Tuple* before, const Tuple* after);
  Status PropagateOldWrite(Transaction* txn, const std::string& table,
                           RowId rid, const Tuple* before,
                           const Tuple* after) {
    return PropagateOldWrite(CurrentViews(), txn, table, rid, before, after);
  }

  /// --- status -----------------------------------------------------------

  /// True while the train holds any entry, queued and starting ones
  /// included (completed entries stay until a later submit prunes them).
  bool HasActiveMigration() const {
    return active_.load(std::memory_order_acquire);
  }
  /// False only between a multi-step Submit and its cutover.
  bool UsesNewSchema() const;
  /// True when every train entry has completed: none is queued, starting
  /// or running.
  bool IsComplete() const;
  /// Mean progress over the incomplete train entries (queued and starting
  /// entries count as 0); 1.0 when nothing is in flight.
  double Progress() const;
  /// Units migrated so far, summed across every train entry's statement
  /// migrators (timeseries sampling).
  uint64_t UnitsMigrated() const;
  Timeline timeline() const;

  /// Starting or running entries not yet complete / entries still queued.
  size_t ActiveMigrations() const;
  size_t QueuedMigrations() const;

  /// First error the background migrators hit (sticky), OK when none (or
  /// no background migration is running).
  Status background_error() const;

  /// Renders a human-readable status report. For a single migration this
  /// is the classic block (strategy, overall and per-statement progress,
  /// background worker state, milestone timeline, recent trace events);
  /// with a train in flight it lists every entry — running ones with
  /// their per-migration trace stream, starting ones by name, queued ones
  /// with position and wait time. Safe to call from any thread at any time
  /// (works on state snapshots); served over the wire by the server's
  /// ADMIN opcode.
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

  /// --- recovery (§3.5) --------------------------------------------------

  /// Called by a restarting primary once its WAL replay is done. Replay
  /// submitted every migration in replicated_replay mode and re-marked its
  /// trackers at each committed kMigrationMark (LogApplier ->
  /// ApplyReplicatedMark) — the §3.5 REDO scan. This hands those same
  /// trackers back to this node: every incomplete lazy entry leaves replay
  /// mode (lazy request paths on) and starts its background migrator, and
  /// queued entries auto-start normally. Builds no state and reads no log.
  /// OK (and a no-op) when nothing is incomplete; Unsupported when an
  /// incomplete entry is eager or multistep.
  Status TakeOwnership();

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

  /// Applies a replicated "migrate_start" record: starts the named queued
  /// entry, running its logical switch at exactly this log
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
  /// One train entry, from admission to prune. `phase` (guarded by mu_)
  /// moves queued -> starting -> running. A starting entry's plan,
  /// migrators and workers belong to the thread starting it until Publish
  /// sets `running`; from then on the entry is immutable except for the
  /// `finishing` / `complete` / `complete_s` / `replaying` atomics (and the
  /// thread-safe migrators and workers it owns). Member order matters for
  /// teardown: `background` and `multistep` are declared after
  /// `stmt_migrators` so their destructors join worker threads before the
  /// migrators those threads use are destroyed.
  struct ActiveState {
    enum class Phase { kQueued, kStarting, kRunning };
    /// Train identity: the plan name (or first output for unnamed
    /// plans). Unique among in-flight entries — duplicate submits are
    /// rejected with kBusy.
    std::string name;
    /// The replicable SQL source (empty for programmatic plans, which
    /// then cannot queue durably).
    std::string script;
    /// Full table footprint (inputs, outputs, retired) for overlap
    /// admission against later submits.
    std::vector<std::string> table_set;
    /// True when the "migrate" record for this entry was already
    /// appended (at enqueue time, or upstream for replays): the start
    /// path then logs a "migrate_start" marker instead.
    bool ddl_logged = false;
    SubmitOptions opts;
    /// Compiles the plan when the entry starts (see PlanFactory).
    PlanFactory factory;
    Stopwatch since_queued;
    Phase phase = Phase::kQueued;
    MigrationPlan plan;
    std::vector<std::unique_ptr<StatementMigrator>> stmt_migrators;
    std::unique_ptr<BackgroundMigrator> background;
    std::unique_ptr<MultiStepCopier> multistep;
    Stopwatch since_submit;
    /// OnMigrationComplete's once-guard, set first: from then on the
    /// routing view and the statement paths no longer resolve to this
    /// entry, so no migrator reads an input while it is being dropped.
    std::atomic<bool> finishing{false};
    /// Set last, once the retired inputs are dropped: the flag IsComplete,
    /// admission and the status report read, so "complete" never coexists
    /// with a retired input.
    std::atomic<bool> complete{false};
    std::atomic<double> complete_s{-1.0};
    /// opts.replicated_replay as of now: set at start, cleared only by
    /// TakeOwnership. While set, the statement path migrates nothing and
    /// the background migrator (built whenever opts.enable_background)
    /// stays unstarted.
    std::atomic<bool> replaying{false};
    /// Output table name -> statement index.
    std::unordered_map<std::string, size_t> by_output;
  };
  using Phase = ActiveState::Phase;

  /// The incomplete state owning `table` (as an output) in `routing`, or
  /// null. Lives as long as the view does.
  static ActiveState* StateForTable(const RoutingView& routing,
                                    const std::string& table);

  /// The running (or finished) train entries, copied under mu_ in
  /// admission order. Queued and starting entries are not the caller's to
  /// read.
  std::vector<std::shared_ptr<ActiveState>> SnapshotAll() const;

  /// Makes a fully-built starting entry visible to readers: sets it
  /// running, republishes the routing view and wakes the submits waiting
  /// on its footprint. Called with every non-atomic member of `state` in
  /// its final value.
  void Publish(const std::shared_ptr<ActiveState>& state);

  /// Rebuilds the routing view from the running, unfinished entries and
  /// the gate map and publishes it.
  void RepublishLocked();

  static StatementMigrator* MigratorFor(const ActiveState& state,
                                        const std::string& table);

  /// The incomplete migrator producing `table` in `routing` for an
  /// unfinished lazy entry whose replay flag equals `replaying`, or null.
  /// *state receives the entry.
  static StatementMigrator* LazyMigratorFor(const RoutingView& routing,
                                            const std::string& table,
                                            bool replaying,
                                            const ActiveState** state);

  /// One entry's progress: multistep copier fraction, or the mean over
  /// its statement migrators (1.0 when complete or machinery-less).
  static double StateProgress(const ActiveState& state);

  /// Identifies a migration in trace events: the plan name, or the first
  /// output table for unnamed plans.
  static std::string TraceNameOf(const MigrationPlan& plan);

  /// The plan's full table footprint: retired inputs, created outputs,
  /// and every statement's input/output tables.
  static std::vector<std::string> TableSetOf(const MigrationPlan& plan);

  /// Sums one MigrationStats field over every train entry's statement
  /// migrators (for the registry callbacks).
  uint64_t SumStats(std::atomic<uint64_t> MigrationStats::* field) const;

  /// Runs a starting entry: compiles the plan via its factory and
  /// dispatches to the strategy's submit path. A failed start leaves the
  /// train (published or not).
  Status Start(const std::shared_ptr<ActiveState>& state, bool from_queue);

  /// Starts every queued entry whose tables are disjoint from all
  /// incomplete started entries and earlier queued ones.
  /// Runs only on the pump thread (see WakePump) — auto-start takes the
  /// switch gate exclusively, which must never happen on a thread that
  /// already holds a migration gate (e.g. the multistep cutover path).
  void PumpQueue();
  /// Signals the pump thread (started lazily) to run PumpQueue soon.
  void WakePump();

  bool NameInFlightLocked(const std::string& name) const;
  /// The first incomplete entry (only starting ones when `starting_only`)
  /// whose footprint intersects `tables`, or null.
  const ActiveState* OverlapLocked(const std::vector<std::string>& tables,
                                   bool starting_only) const;
  /// Stops the entries' background and multi-step workers (joins them).
  static void StopWorkers(
      const std::vector<std::shared_ptr<ActiveState>>& states);
  /// Moves completed entries out of the train (into *torn_down for the
  /// caller to Stop outside the lock). Completion already took them out
  /// of the routing view.
  void PruneCompletedLocked(
      std::vector<std::shared_ptr<ActiveState>>* torn_down);

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
  /// submits). Called at enqueue under mu_ (WAL order is queue order)
  /// and at start inside the switch gate, so the record's log position
  /// is exactly the logical switch point. Returns the durable-append
  /// status: a failed WAL sync fails the submit.
  Status LogMigrateDdl(const ActiveState& state);

  /// Per-table gate used to queue requests during eager migration
  /// (created and published on first use).
  std::shared_ptr<WriterPriorityGate> GateFor(const std::string& table);
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
    RequestGuard(RequestGuard&& other) noexcept { *this = std::move(other); }
    RequestGuard& operator=(RequestGuard&& other) noexcept {
      if (this != &other) {
        Release();
        switch_gate_ = std::exchange(other.switch_gate_, nullptr);
        locks_ = std::move(other.locks_);
        other.locks_.clear();
      }
      return *this;
    }
    ~RequestGuard() { Release(); }

   private:
    friend class MigrationController;
    void Release() {
      for (auto it = locks_.rbegin(); it != locks_.rend(); ++it) {
        (*it)->unlock_shared();
      }
      locks_.clear();
      if (switch_gate_ != nullptr) switch_gate_->unlock_shared();
      switch_gate_ = nullptr;
    }
    /// The controller's switch gate (it outlives every request).
    WriterPriorityGate* switch_gate_ = nullptr;
    /// Eager gates, kept alive by the guard.
    std::vector<std::shared_ptr<WriterPriorityGate>> locks_;
  };

  /// Acquires shared gates for `tables` (sorted, to avoid deadlock with
  /// concurrent eager submits). Cheap when no gates exist. Also holds the
  /// global schema-switch gate shared, so a request is never in flight
  /// across the instant of a logical switch. When `views` is non-null it
  /// receives the views current once every gate is held.
  RequestGuard GuardTables(std::vector<std::string> tables,
                           Views* views = nullptr);

 private:
  friend class MigrationControllerTestPeer;

  Catalog* catalog_;
  TransactionManager* txns_;

  // Observability (null until BindObservability; both outlive this
  // controller — they are declared before it in Database).
  obs::MetricsRegistry* registry_ = nullptr;
  obs::MigrationTracer* tracer_ = nullptr;

  mutable std::mutex mu_;  // Guards train_, entry phases and the gate map.
  /// Every entry from admission to prune, in admission order. Completed
  /// entries linger (for status/metrics) until a later submit prunes them.
  std::vector<std::shared_ptr<ActiveState>> train_;
  /// The statement path's view of train_ and gates_ (see RoutingView).
  Published<RoutingView> routing_;
  /// Auto-starts that failed (compile error, switch failure): surfaced
  /// in StatusReport, since no client is waiting on the status.
  std::vector<std::string> train_errors_;
  /// Signalled when a starting entry publishes or fails, so admission can
  /// re-evaluate overlap.
  std::condition_variable train_cv_;
  /// True while the train is non-empty (status paths only).
  std::atomic<bool> active_{false};
  /// Eager per-table gates; the statement path reads them from routing_.
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

struct MigrationController::RoutingView {
  /// Output table -> the incomplete entry producing it.
  std::unordered_map<std::string, std::shared_ptr<ActiveState>> by_output;
  /// The incomplete multistep entry (admission allows at most one).
  std::shared_ptr<ActiveState> multistep;
  /// Eager per-table gates (see GuardTables).
  std::unordered_map<std::string, std::shared_ptr<WriterPriorityGate>> gates;
};

}  // namespace bullfrog

#endif  // BULLFROG_MIGRATION_CONTROLLER_H_
