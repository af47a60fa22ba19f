#include "migration/controller.h"

#include <algorithm>
#include <cstdio>
#include <unordered_set>

#include "migration/replication_log.h"
#include "query/scan.h"

namespace bullfrog {

namespace {

const char* StrategyName(MigrationStrategy strategy) {
  switch (strategy) {
    case MigrationStrategy::kLazy:
      return "lazy";
    case MigrationStrategy::kEager:
      return "eager";
    case MigrationStrategy::kMultiStep:
      return "multistep";
  }
  return "unknown";
}

/// Benign race: the background threads may finish the migration (and drop
/// the retired inputs) between the migrator's IsComplete check and its
/// touching the old tables. A pull that lost that race succeeded.
Status PullStatus(Status pulled, const StatementMigrator& m,
                  const std::atomic<bool>& finishing) {
  if (!pulled.ok() &&
      (m.IsComplete() || finishing.load(std::memory_order_acquire))) {
    return Status::OK();
  }
  return pulled;
}

}  // namespace

MigrationController::MigrationController(Catalog* catalog,
                                         TransactionManager* txns)
    : catalog_(catalog),
      txns_(txns),
      routing_(std::make_shared<RoutingView>()) {}

MigrationController::~MigrationController() {
  {
    std::lock_guard lock(mu_);
    pump_shutdown_ = true;
  }
  pump_cv_.notify_all();
  if (pump_thread_.joinable()) pump_thread_.join();
  std::vector<std::shared_ptr<ActiveState>> running = SnapshotAll();
  {
    std::lock_guard lock(mu_);
    active_.store(false, std::memory_order_release);
    train_.clear();
    RepublishLocked();
  }
  StopWorkers(running);
}

std::shared_ptr<WriterPriorityGate> MigrationController::GateFor(
    const std::string& table) {
  std::lock_guard lock(mu_);
  auto it = gates_.find(table);
  if (it != gates_.end()) return it->second;
  auto gate = std::make_shared<WriterPriorityGate>();
  gates_[table] = gate;
  RepublishLocked();
  return gate;
}

void MigrationController::ReleaseGates(
    const std::vector<std::string>& tables) {
  std::lock_guard lock(mu_);
  for (const std::string& t : tables) gates_.erase(t);
  RepublishLocked();
}

MigrationController::RequestGuard MigrationController::GuardTables(
    std::vector<std::string> tables, Views* views) {
  RequestGuard guard;
  switch_gate_->lock_shared();
  guard.switch_gate_ = switch_gate_.get();
  // Gates are created and published only under the switch gate held
  // exclusively, so the routing view loaded here has every gate that can
  // matter to this request.
  Views current = CurrentViews();
  const auto& gates = current.routing->gates;
  if (!gates.empty()) {
    std::sort(tables.begin(), tables.end());
    tables.erase(std::unique(tables.begin(), tables.end()), tables.end());
    for (const std::string& t : tables) {
      auto it = gates.find(t);
      if (it == gates.end()) continue;
      it->second->lock_shared();
      guard.locks_.push_back(it->second);
    }
    // The eager copy may have finished while we waited.
    Refresh(&current);
  }
  if (views != nullptr) *views = std::move(current);
  return guard;
}

std::vector<std::shared_ptr<MigrationController::ActiveState>>
MigrationController::SnapshotAll() const {
  std::vector<std::shared_ptr<ActiveState>> out;
  std::lock_guard lock(mu_);
  for (const auto& s : train_) {
    if (s->phase == Phase::kRunning) out.push_back(s);
  }
  return out;
}

void MigrationController::Publish(const std::shared_ptr<ActiveState>& state) {
  std::lock_guard lock(mu_);
  state->phase = Phase::kRunning;
  RepublishLocked();
  // The footprint is now covered by a visible entry; overlapping submits
  // waiting on it can queue behind it.
  train_cv_.notify_all();
}

std::string MigrationController::TraceNameOf(const MigrationPlan& plan) {
  if (!plan.name.empty()) return plan.name;
  for (const MigrationStatement& stmt : plan.statements) {
    if (!stmt.output_tables.empty()) return stmt.output_tables[0];
  }
  return "(unnamed)";
}

std::vector<std::string> MigrationController::TableSetOf(
    const MigrationPlan& plan) {
  std::vector<std::string> out;
  auto add = [&](const std::string& t) {
    if (std::find(out.begin(), out.end(), t) == out.end()) out.push_back(t);
  };
  for (const std::string& t : plan.retire_tables) add(t);
  for (const TableSchema& t : plan.new_tables) add(t.name());
  for (const MigrationStatement& stmt : plan.statements) {
    for (const std::string& t : stmt.input_tables) add(t);
    for (const std::string& t : stmt.output_tables) add(t);
  }
  return out;
}

uint64_t MigrationController::SumStats(
    std::atomic<uint64_t> MigrationStats::* field) const {
  uint64_t total = 0;
  for (const auto& state : SnapshotAll()) {
    for (const auto& m : state->stmt_migrators) {
      total += (m->stats().*field).load(std::memory_order_relaxed);
    }
  }
  return total;
}

void MigrationController::BindObservability(obs::MetricsRegistry* registry,
                                            obs::MigrationTracer* tracer) {
  registry_ = registry;
  tracer_ = tracer;
  if (registry_ == nullptr) return;
  // All values are derived at render time from state the migration
  // machinery already maintains — the per-unit fast paths gain nothing.
  registry_->SetCallback("bullfrog_migration_progress", "",
                         [this] { return Progress(); });
  registry_->SetCallback("bullfrog_migration_active", "", [this] {
    return HasActiveMigration() && !IsComplete() ? 1.0 : 0.0;
  });
  registry_->SetCallback("bullfrog_migration_complete", "", [this] {
    return HasActiveMigration() && IsComplete() ? 1.0 : 0.0;
  });
  // Train gauges: how many entries are mid-flight vs parked.
  registry_->SetCallback("bullfrog_migrations_active", "", [this] {
    return static_cast<double>(ActiveMigrations());
  });
  registry_->SetCallback("bullfrog_migrations_queued", "", [this] {
    return static_cast<double>(QueuedMigrations());
  });
  const struct {
    const char* labels;
    std::atomic<uint64_t> MigrationStats::* field;
  } kUnitSeries[] = {
      {"", &MigrationStats::units_migrated},
      {"mode=\"lazy\"", &MigrationStats::units_lazy},
      {"mode=\"background\"", &MigrationStats::units_background},
      {"mode=\"forced\"", &MigrationStats::units_forced},
  };
  for (const auto& series : kUnitSeries) {
    registry_->SetCallback(
        "bullfrog_migration_units_migrated", series.labels,
        [this, field = series.field] {
          return static_cast<double>(SumStats(field));
        });
  }
  registry_->SetCallback("bullfrog_migration_rows_migrated", "", [this] {
    return static_cast<double>(SumStats(&MigrationStats::rows_migrated));
  });
  registry_->SetCallback("bullfrog_migration_txn_retries", "", [this] {
    return static_cast<double>(SumStats(&MigrationStats::txn_retries));
  });
  registry_->SetCallback("bullfrog_migration_txn_aborts", "", [this] {
    return static_cast<double>(SumStats(&MigrationStats::txn_aborts));
  });
}

bool MigrationController::NameInFlightLocked(const std::string& name) const {
  return std::any_of(train_.begin(), train_.end(), [&](const auto& s) {
    return s->name == name && !s->complete.load(std::memory_order_acquire);
  });
}

const MigrationController::ActiveState* MigrationController::OverlapLocked(
    const std::vector<std::string>& tables, bool starting_only) const {
  for (const auto& s : train_) {
    if (s->complete.load(std::memory_order_acquire) ||
        (starting_only && s->phase != Phase::kStarting)) {
      continue;
    }
    for (const std::string& t : tables) {
      if (std::find(s->table_set.begin(), s->table_set.end(), t) !=
          s->table_set.end()) {
        return s.get();
      }
    }
  }
  return nullptr;
}

void MigrationController::RepublishLocked() {
  auto next = std::make_shared<RoutingView>();
  for (const auto& s : train_) {
    if (s->phase != Phase::kRunning ||
        s->finishing.load(std::memory_order_acquire)) {
      continue;
    }
    for (const auto& entry : s->by_output) next->by_output[entry.first] = s;
    if (s->opts.strategy == MigrationStrategy::kMultiStep) next->multistep = s;
  }
  next->gates = gates_;
  routing_.Publish(std::move(next));
}

void MigrationController::StopWorkers(
    const std::vector<std::shared_ptr<ActiveState>>& states) {
  for (const auto& state : states) {
    if (state->background != nullptr) state->background->Stop();
    if (state->multistep != nullptr) state->multistep->Stop();
  }
}

void MigrationController::PruneCompletedLocked(
    std::vector<std::shared_ptr<ActiveState>>* torn_down) {
  for (auto it = train_.begin(); it != train_.end();) {
    if ((*it)->complete.load(std::memory_order_acquire)) {
      torn_down->push_back(std::move(*it));
      it = train_.erase(it);
    } else {
      ++it;
    }
  }
}

Status MigrationController::Submit(MigrationPlan plan,
                                   const SubmitOptions& opts) {
  auto owned = std::make_shared<MigrationPlan>(std::move(plan));
  return SubmitScript(
      TraceNameOf(*owned), owned->source_script, TableSetOf(*owned),
      [owned]() -> Result<MigrationPlan> { return *owned; }, opts);
}

Status MigrationController::SubmitScript(std::string name, std::string script,
                                         std::vector<std::string> table_set,
                                         PlanFactory factory,
                                         const SubmitOptions& opts) {
  auto e = std::make_shared<ActiveState>();
  e->name = std::move(name);
  e->script = std::move(script);
  e->table_set = std::move(table_set);
  e->opts = opts;
  e->factory = std::move(factory);
  std::vector<std::shared_ptr<ActiveState>> torn_down;
  {
    std::unique_lock lock(mu_);
    // An overlapping starting entry is a submit mid-construction: its
    // "migrate" record may not be durable yet, so enqueueing (and
    // logging) now could put this entry's record ahead of its
    // predecessor's in the WAL. Wait for it to publish or fail, then
    // decide between start and queue.
    train_cv_.wait(lock, [&] {
      return NameInFlightLocked(e->name) ||
             OverlapLocked(e->table_set, /*starting_only=*/true) == nullptr;
    });
    if (NameInFlightLocked(e->name)) {
      return Status::Busy("migration '" + e->name +
                          "' is already in flight or queued");
    }
    if (e->opts.strategy == MigrationStrategy::kMultiStep &&
        std::any_of(train_.begin(), train_.end(), [](const auto& s) {
          return !s->complete.load(std::memory_order_acquire);
        })) {
      // The dual-write guard routes through a single copier; multistep
      // never joins a train.
      return Status::Busy(
          "a migration is already in flight; multi-step migrations cannot "
          "join a migration train");
    }
    if (const ActiveState* blocker =
            OverlapLocked(e->table_set, /*starting_only=*/false)) {
      if (e->opts.strategy != MigrationStrategy::kLazy) {
        return Status::Busy(
            "a migration over overlapping tables is in flight ('" +
            blocker->name + "'); only lazy migrations can queue behind it");
      }
      // Make the queued script durable now, under mu_, so queue order
      // and WAL order agree: a crash replays the whole train in order.
      if (Status logged = LogMigrateDdl(*e); !logged.ok()) {
        EraseFailedLocked(e, logged.ToString());
        return logged;
      }
      e->ddl_logged = true;
      e->since_queued.Restart();
      train_.push_back(e);
      active_.store(true, std::memory_order_release);
      const std::string position = std::to_string(std::count_if(
          train_.begin(), train_.end(),
          [](const auto& s) { return s->phase == Phase::kQueued; }));
      if (tracer_ != nullptr) {
        tracer_->Record(obs::TraceEventKind::kSubmit, e->name,
                        "queued position=" + position +
                            " behind=" + blocker->name);
      }
      return Status::Queued(
          "migration '" + e->name + "' queued at position " + position +
          " behind '" + blocker->name +
          "'; it starts automatically when its predecessors complete");
    }
    // Disjoint from everything in flight: prune completed predecessors
    // and claim the footprint.
    PruneCompletedLocked(&torn_down);
    e->phase = Phase::kStarting;
    train_.push_back(e);
    active_.store(true, std::memory_order_release);
  }
  // Tear down pruned migrations' machinery outside the lock (Stop joins
  // worker threads). Readers still holding a snapshot keep the state
  // alive until they are done.
  StopWorkers(torn_down);
  torn_down.clear();
  return Start(e, /*from_queue=*/false);
}

Status MigrationController::Start(const std::shared_ptr<ActiveState>& state,
                                  bool from_queue) {
  // Build the entry privately; it becomes visible to readers only via
  // Publish(), after every non-atomic member has its final value.
  Status s = [&]() -> Status {
    if (!state->factory) {
      return Status::InvalidArgument("migration has no plan factory");
    }
    Result<MigrationPlan> plan = state->factory();
    BF_RETURN_NOT_OK(plan.status());
    state->plan = std::move(*plan);
    state->replaying.store(state->opts.replicated_replay,
                           std::memory_order_release);
    for (size_t i = 0; i < state->plan.statements.size(); ++i) {
      for (const std::string& out : state->plan.statements[i].output_tables) {
        state->by_output.emplace(out, i);
      }
    }
    if (tracer_ != nullptr) {
      char queued[48] = "";
      if (from_queue) {
        std::snprintf(queued, sizeof(queued), " auto-start queued_s=%.3f",
                      state->since_queued.ElapsedSeconds());
      }
      tracer_->Record(
          obs::TraceEventKind::kSubmit, TraceNameOf(state->plan),
          std::string("strategy=") + StrategyName(state->opts.strategy) +
              " statements=" + std::to_string(state->plan.statements.size()) +
              (state->opts.replicated_replay ? " replicated_replay=1" : "") +
              queued);
    }
    switch (state->opts.strategy) {
      case MigrationStrategy::kLazy:
        return SubmitLazy(state);
      case MigrationStrategy::kEager:
        return SubmitEager(state);
      case MigrationStrategy::kMultiStep:
        return SubmitMultiStep(state);
    }
    return Status::InvalidArgument("unknown migration strategy");
  }();
  if (s.ok()) return s;
  LogAbort(state.get(), s);
  {
    // Published then failed (the eager copy, which undid its switch), or
    // failed before switching: the entry leaves the train either way.
    std::lock_guard lock(mu_);
    EraseFailedLocked(state, s.ToString());
  }
  // A failed start frees its footprint: entries queued behind it may now
  // be startable. (The pump loop itself re-scans after a from_queue
  // failure.)
  if (!from_queue) WakePump();
  return s;
}

void MigrationController::EraseFailedLocked(
    const std::shared_ptr<ActiveState>& state, std::string reason) {
  auto it = std::find(train_.begin(), train_.end(), state);
  if (it != train_.end()) train_.erase(it);
  RepublishLocked();
  active_.store(!train_.empty(), std::memory_order_release);
  train_cv_.notify_all();
  failures_.push_back(SubmitFailure{state->name, std::move(reason), {}});
  if (failures_.size() > kMaxFailures) failures_.pop_front();
}

void MigrationController::WakePump() {
  {
    std::lock_guard lock(mu_);
    if (pump_shutdown_) return;
    pump_wake_ = true;
    if (!pump_thread_.joinable()) {
      pump_thread_ = std::thread([this] {
        std::unique_lock lock(mu_);
        while (true) {
          pump_cv_.wait(lock,
                        [this] { return pump_wake_ || pump_shutdown_; });
          if (pump_shutdown_) return;
          pump_wake_ = false;
          lock.unlock();
          PumpQueue();
          lock.lock();
        }
      });
    }
  }
  pump_cv_.notify_all();
}

void MigrationController::PumpQueue() {
  while (true) {
    std::shared_ptr<ActiveState> next;
    {
      std::lock_guard lock(mu_);
      // FIFO with dependency order: an entry may start only when its
      // tables are disjoint from every incomplete started entry and every
      // *earlier* queued entry (so chained hops drain in submit order).
      std::unordered_set<std::string> blocked;
      for (const auto& s : train_) {
        if (s->phase == Phase::kQueued ||
            s->complete.load(std::memory_order_acquire)) {
          continue;
        }
        blocked.insert(s->table_set.begin(), s->table_set.end());
      }
      for (const auto& e : train_) {
        if (e->phase != Phase::kQueued) continue;
        // Replayed entries stay parked until their "migrate_start"
        // record arrives (StartQueuedMigration) so the replica/recovery
        // switch point matches the primary's exactly.
        const bool startable =
            !e->opts.replicated_replay &&
            std::none_of(e->table_set.begin(), e->table_set.end(),
                         [&](const std::string& t) {
                           return blocked.count(t) > 0;
                         });
        if (!startable) {
          blocked.insert(e->table_set.begin(), e->table_set.end());
          continue;
        }
        e->phase = Phase::kStarting;
        next = e;
        break;
      }
    }
    if (next == nullptr) return;
    // No client is waiting on an auto-start: a failure shows in the
    // status report (Start records it).
    (void)Start(next, /*from_queue=*/true);
    // Loop: starting (or failing) one entry may unblock the next.
  }
}

Status MigrationController::ValidateUniqueConstraints(
    const MigrationPlan& plan) {
  for (const MigrationStatement& stmt : plan.statements) {
    // Collect the unique keys (PK + UNIQUE) of each output table.
    for (size_t out = 0; out < stmt.output_tables.size(); ++out) {
      const TableSchema* out_schema = nullptr;
      for (const TableSchema& t : plan.new_tables) {
        if (t.name() == stmt.output_tables[out]) out_schema = &t;
      }
      if (out_schema == nullptr) continue;
      std::vector<std::vector<std::string>> keys;
      if (!out_schema->primary_key().empty()) {
        keys.push_back(out_schema->primary_key());
      }
      for (const UniqueConstraint& u : out_schema->unique_constraints()) {
        keys.push_back(u.columns);
      }
      for (const std::vector<std::string>& key : keys) {
        // Only checkable when every key column is a pass-through from a
        // single input table; otherwise proceed lazily (§2.4: "or
        // otherwise proceed with the pure lazy approach").
        std::string input;
        std::vector<std::string> src_cols;
        bool checkable = true;
        for (const std::string& col : key) {
          const auto& sources = stmt.provenance.SourcesOf(col);
          if (sources.empty()) {
            checkable = false;
            break;
          }
          if (input.empty()) input = sources[0].input_table;
          auto in_this = stmt.provenance.SourceIn(col, input);
          if (!in_this) {
            checkable = false;
            break;
          }
          src_cols.push_back(*in_this);
        }
        if (!checkable) continue;
        BF_ASSIGN_OR_RETURN(Table * t, catalog_->RequireReadable(input));
        std::unordered_set<Tuple, TupleHasher> seen;
        std::vector<size_t> idx;
        for (const std::string& c : src_cols) {
          BF_ASSIGN_OR_RETURN(size_t i, t->schema().RequireColumn(c));
          idx.push_back(i);
        }
        Status violation = Status::OK();
        t->Scan([&](RowId, const Tuple& row) {
          Tuple k;
          for (size_t i : idx) k.push_back(row[i]);
          if (!seen.insert(std::move(k)).second) {
            violation = Status::ConstraintViolation(
                "uniqueness constraint on '" + stmt.output_tables[out] +
                "' would be violated: duplicate key in input '" + input +
                "'");
            return false;
          }
          return true;
        });
        BF_RETURN_NOT_OK(violation);
      }
    }
  }
  return Status::OK();
}

Status MigrationController::SubmitLazy(
    const std::shared_ptr<ActiveState>& state) {
  if (state->opts.validate_unique_on_submit) {
    // §2.4: detect doomed migrations before the new schema goes live.
    BF_RETURN_NOT_OK(ValidateUniqueConstraints(state->plan));
  }
  // Constraint checking during migration inserts (§4.5). The hook may
  // recursively trigger migration of parent rows.
  state->opts.lazy.constraint_hook =
      [this](const std::string& table, const Tuple& row) {
        return CheckForeignKeys(table, row);
      };
  {
    // §2.1: the logical switch — instantaneous, under the switch gate so
    // no client write straddles the boundary capture. The machinery is
    // built first: the statement migrators read only their inputs'
    // boundaries, which no client write moves while the gate is held, so
    // a failure here leaves the catalog untouched. A checkpoint restore
    // arrives with the switch already baked into the restored catalog
    // (outputs exist, inputs retired) and only rebuilds the machinery.
    std::unique_lock switch_lock(*switch_gate_);
    for (const MigrationStatement& stmt : state->plan.statements) {
      BF_ASSIGN_OR_RETURN(
          std::unique_ptr<StatementMigrator> m,
          MakeStatementMigrator(catalog_, txns_, stmt, state->opts.lazy));
      m->BindTracing(tracer_, TraceNameOf(state->plan));
      state->stmt_migrators.push_back(std::move(m));
    }
    // A replaying entry gets its worker too, left unstarted until
    // TakeOwnership: nothing of a published state is assigned later.
    if (state->opts.enable_background) {
      std::vector<StatementMigrator*> raw;
      for (auto& m : state->stmt_migrators) raw.push_back(m.get());
      state->background = std::make_unique<BackgroundMigrator>(
          std::move(raw), state->opts.lazy,
          [this, s = state.get()] { OnMigrationComplete(s); });
      state->background->BindObservability(registry_, tracer_,
                                           TraceNameOf(state->plan));
    }
    if (!state->opts.resume_after_switch) {
      BF_RETURN_NOT_OK(Switch(state.get()));
    }
    state->since_submit.Restart();
    // Publish inside the switch gate: the instant a client can see the
    // new schema, the fully-built migration state is visible with it.
    Publish(state);
    if (tracer_ != nullptr) {
      tracer_->Record(obs::TraceEventKind::kSwitch, TraceNameOf(state->plan),
                      "new schema live");
    }
  }
  if (state->background != nullptr &&
      !state->replaying.load(std::memory_order_acquire)) {
    state->background->Start();
  }
  return Status::OK();
}

Status MigrationController::SubmitEager(
    const std::shared_ptr<ActiveState>& state) {
  // Replaying a replicated eager migrate record performs the logical
  // switch only: the copied rows arrive physically through the log
  // stream, and the matching "migrate_complete" record drops the retired
  // inputs (via CompleteReplicatedMigration).
  const bool replay = state->opts.replicated_replay;
  std::vector<std::shared_ptr<WriterPriorityGate>> held;
  std::vector<std::string> outputs;
  // Unlocks the held gates and drops their map entries: once the eager
  // copy is over (or failed), later GuardTables calls must not keep
  // taking shared locks on dead gates.
  auto open_gates = [&] {
    for (auto it = held.rbegin(); it != held.rend(); ++it) (*it)->unlock();
    held.clear();
    ReleaseGates(outputs);
  };
  Status s = [&]() -> Status {
    std::unique_lock switch_lock(*switch_gate_);
    // Gate every output table exclusively before the switch (a replay
    // copies nothing): client requests that touch the new schema queue
    // here for the entire copy — the downtime of Fig 3.
    for (const TableSchema& t : state->plan.new_tables) {
      if (!replay) outputs.push_back(t.name());
    }
    std::sort(outputs.begin(), outputs.end());
    for (const std::string& t : outputs) {
      auto gate = GateFor(t);
      gate->lock();
      held.push_back(std::move(gate));
    }
    BF_RETURN_NOT_OK(Switch(state.get()));
    state->since_submit.Restart();
    Publish(state);
    return Status::OK();
  }();
  if (!s.ok() || replay) {
    open_gates();
    return s;
  }
  // The eager copy (§4): the statement migrators' sweep over every unit.
  // With the outputs gated there is no contention, so the tracker is pure
  // bookkeeping and the sweep visits each unit once.
  s = [&]() -> Status {
    LazyConfig config;
    config.granularity = 64;  // Bulk-friendly granule size.
    for (const MigrationStatement& stmt : state->plan.statements) {
      BF_ASSIGN_OR_RETURN(std::unique_ptr<StatementMigrator> migrator,
                          MakeStatementMigrator(catalog_, txns_, stmt, config));
      bool done = false;
      while (!done) {
        BF_RETURN_NOT_OK(
            migrator->MigrateBackgroundChunk(4096, &done).status());
      }
    }
    return Status::OK();
  }();
  // Mark complete before opening the gates, so an unblocked request
  // observes a finished migration. A failed copy logs its abort, then
  // undoes the switch (partial outputs go, the inputs serve again), all
  // with the outputs gated: a record that uses a freed name or a revived
  // input follows the abort, so replay undoes at the same log position.
  // (Retaking the switch gate could deadlock: a client holding it shared
  // may be queued on an output gate.)
  if (s.ok()) {
    OnMigrationComplete(state.get());
  } else {
    LogAbort(state.get(), s);
    catalog_->UndoSwitch(state->plan.new_tables, state->plan.retire_tables);
  }
  open_gates();
  return s;
}

Status MigrationController::SubmitMultiStep(
    const std::shared_ptr<ActiveState>& state) {
  {
    std::unique_lock switch_lock(*switch_gate_);
    for (const MigrationStatement& stmt : state->plan.statements) {
      for (const std::string& input : stmt.input_tables) {
        BF_RETURN_NOT_OK(catalog_->RequireActive(input).status());
      }
    }
    // Old schema stays active; nothing is retired until the cutover. The
    // copier resolves the outputs this switch creates, and its
    // construction cannot fail; it is built (not started) before
    // publication so readers never see a half-initialized multistep
    // pointer.
    BF_RETURN_NOT_OK(catalog_->Switch(state->plan.new_tables,
                                      state->plan.new_indexes, {}));
    state->multistep = std::make_unique<MultiStepCopier>(
        catalog_, txns_, &state->plan, state->opts.multistep,
        [this, s = state.get()]() -> Status {
          BF_RETURN_NOT_OK(catalog_->Switch({}, {}, s->plan.retire_tables));
          OnMigrationComplete(s);
          return Status::OK();
        });
    state->since_submit.Restart();
    Publish(state);
  }
  state->multistep->Start();
  return Status::OK();
}

Status MigrationController::Switch(ActiveState* state) {
  const MigrationPlan& plan = state->plan;
  BF_RETURN_NOT_OK(catalog_->Switch(plan.new_tables, plan.new_indexes,
                                    plan.retire_tables));
  if (Status logged = LogMigrateDdl(*state); !logged.ok()) {
    catalog_->UndoSwitch(plan.new_tables, plan.retire_tables);
    return logged;
  }
  state->ddl_logged = true;
  return Status::OK();
}

Status MigrationController::LogMigrateDdl(const ActiveState& state) {
  // Only script-backed, locally-originated migrations are replicated:
  // programmatic plans carry unserializable std::function transforms, and
  // a replay must not re-log the record it is replaying.
  if (state.script.empty() || state.opts.replicated_replay) {
    return Status::OK();
  }
  std::string blob;
  if (state.ddl_logged) {
    // The entry's "migrate" record went in when it queued; mark the
    // actual switch point so replay starts the parked entry against
    // exactly this table state (see StartQueuedMigration).
    EncodeMigrateStartBlob(&blob, state.name);
    return txns_->redo_log().AppendCommitted(
        0, {MakeDdlRecord("migrate_start", std::move(blob))});
  }
  EncodeMigrateBlob(&blob, state.opts.strategy, state.opts.lazy.granularity,
                    state.script);
  return txns_->redo_log().AppendCommitted(
      0, {MakeDdlRecord("migrate", std::move(blob))});
}

void MigrationController::LogEvent(const char* kind, std::string blob) {
  // Fires with no client to report to (a worker thread, or a start that
  // already failed), so a durable-append failure only warns; replicas
  // then keep the entry in their trains.
  Status logged = txns_->redo_log().AppendCommitted(
      0, {MakeDdlRecord(kind, std::move(blob))});
  if (!logged.ok()) {
    std::fprintf(stderr, "bullfrog: %s record not durable: %s\n", kind,
                 logged.ToString().c_str());
  }
}

void MigrationController::LogAbort(ActiveState* state, const Status& reason) {
  // Only an entry whose "migrate" record this node appended; once only.
  if (!state->ddl_logged || state->script.empty() ||
      state->opts.replicated_replay) {
    return;
  }
  std::string blob;
  EncodeMigrateAbortBlob(&blob, state->name, reason.ToString());
  LogEvent("migrate_abort", std::move(blob));
  state->ddl_logged = false;
}

void MigrationController::OnMigrationComplete(ActiveState* state) {
  if (state->finishing.exchange(true)) return;
  state->complete_s.store(state->since_submit.ElapsedSeconds(),
                          std::memory_order_release);
  {
    // Routing holds only unfinished entries: the statement path stops
    // resolving to this one before any input is dropped.
    std::lock_guard lock(mu_);
    RepublishLocked();
  }
  if (tracer_ != nullptr) {
    char detail[48];
    std::snprintf(detail, sizeof(detail), "elapsed_s=%.3f",
                  state->complete_s.load(std::memory_order_relaxed));
    tracer_->Record(obs::TraceEventKind::kComplete, TraceNameOf(state->plan),
                    detail);
  }
  // §2.2: "When these threads finish, the migration is complete and the
  // old schema can be deleted."
  for (const std::string& name : state->plan.retire_tables) {
    (void)catalog_->DropTable(name);
  }
  // Only now is the migration complete to IsComplete and the status
  // report: a checkpoint taken on "complete" must not capture a retired
  // input.
  state->complete.store(true, std::memory_order_release);
  if (!state->script.empty() &&
      !state->replaying.load(std::memory_order_acquire)) {
    std::string blob;
    EncodeMigrateCompleteBlob(&blob, state->plan.name,
                              state->plan.retire_tables);
    LogEvent("migrate_complete", std::move(blob));
  }
  // Queued entries behind this footprint can start now. The pump runs on
  // its own thread: this callback may fire on a background or copier
  // thread that still holds migration gates, and the auto-start takes
  // the switch gate exclusively.
  WakePump();
}

StatementMigrator* MigrationController::MigratorFor(
    const ActiveState& state, const std::string& table) {
  auto it = state.by_output.find(table);
  if (it == state.by_output.end()) return nullptr;
  if (it->second >= state.stmt_migrators.size()) return nullptr;
  return state.stmt_migrators[it->second].get();
}

double MigrationController::StateProgress(const ActiveState& state) {
  if (state.complete.load(std::memory_order_acquire)) return 1.0;
  if (state.multistep != nullptr) return state.multistep->Progress();
  if (state.stmt_migrators.empty()) return 1.0;
  double total = 0;
  for (const auto& m : state.stmt_migrators) total += m->Progress();
  return total / static_cast<double>(state.stmt_migrators.size());
}

MigrationController::ActiveState* MigrationController::StateForTable(
    const RoutingView& routing, const std::string& table) {
  const auto& by_output = routing.by_output;
  if (by_output.empty()) return nullptr;  // Steady state: nothing routed.
  auto it = by_output.find(table);
  return it == by_output.end() ? nullptr : it->second.get();
}

StatementMigrator* MigrationController::LazyMigratorFor(
    const RoutingView& routing, const std::string& table, bool replaying,
    const ActiveState** state) {
  // Per-table resolution: with a train in flight, `table` belongs to at
  // most one migration (admission serializes overlapping footprints).
  const ActiveState* s = StateForTable(routing, table);
  if (s == nullptr || s->finishing.load(std::memory_order_acquire) ||
      s->opts.strategy != MigrationStrategy::kLazy ||
      s->replaying.load(std::memory_order_acquire) != replaying) {
    return nullptr;
  }
  StatementMigrator* m = MigratorFor(*s, table);
  if (m == nullptr || m->IsComplete()) return nullptr;
  *state = s;
  return m;
}

Status MigrationController::PrepareRead(const Views& views,
                                        const std::string& table,
                                        const ExprPtr& pred) {
  // On a replica, data moves only via the replicated log: migrating
  // locally would assign rids the primary will later assign differently.
  const ActiveState* state = nullptr;
  StatementMigrator* m =
      LazyMigratorFor(*views.routing, table, /*replaying=*/false, &state);
  if (m == nullptr) return Status::OK();
  return PullStatus(m->MigrateForPredicate(pred), *m, state->finishing);
}

Status MigrationController::PrepareInsert(const Views& views,
                                          const std::string& table,
                                          const Tuple& row) {
  const ActiveState* state = nullptr;
  StatementMigrator* m =
      LazyMigratorFor(*views.routing, table, /*replaying=*/false, &state);
  if (m == nullptr) return Status::OK();

  Table* t = views.catalog->FindTable(table);
  if (t == nullptr) return Status::NotFound("no table '" + table + "'");
  const TableSchema& schema = t->schema();

  // §2.1: "if a uniqueness constraint is defined on any column of the new
  // table, then any INSERT commands over the new schema must first migrate
  // records that have potentially conflicting values so that the
  // constraint can be properly checked over the new schema."
  auto migrate_key = [&](const std::vector<std::string>& cols) -> Status {
    if (cols.empty()) return Status::OK();
    std::vector<ExprPtr> conjuncts;
    for (const std::string& c : cols) {
      BF_ASSIGN_OR_RETURN(size_t idx, schema.RequireColumn(c));
      conjuncts.push_back(Eq(Col(c), Lit(row[idx])));
    }
    return PullStatus(
        m->MigrateForPredicate(JoinConjuncts(std::move(conjuncts))), *m,
        state->finishing);
  };
  BF_RETURN_NOT_OK(migrate_key(schema.primary_key()));
  for (const UniqueConstraint& u : schema.unique_constraints()) {
    BF_RETURN_NOT_OK(migrate_key(u.columns));
  }
  return Status::OK();
}

Status MigrationController::CheckForeignKeys(const Views& views,
                                             const std::string& table,
                                             const Tuple& row) {
  Table* t = views.catalog->FindTable(table);
  if (t == nullptr) return Status::NotFound("no table '" + table + "'");
  const TableSchema& schema = t->schema();
  for (const ForeignKey& fk : schema.foreign_keys()) {
    // NULL foreign keys are vacuously satisfied.
    bool has_null = false;
    std::vector<ExprPtr> conjuncts;
    for (size_t i = 0; i < fk.columns.size(); ++i) {
      BF_ASSIGN_OR_RETURN(size_t idx, schema.RequireColumn(fk.columns[i]));
      if (row[idx].is_null()) {
        has_null = true;
        break;
      }
      conjuncts.push_back(Eq(Col(fk.parent_columns[i]), Lit(row[idx])));
    }
    if (has_null) continue;
    ExprPtr pred = JoinConjuncts(std::move(conjuncts));
    // §4.5: if the parent is itself mid-migration, the parent rows needed
    // for the check must be migrated first — constraints limit laziness.
    BF_RETURN_NOT_OK(PrepareRead(views, fk.parent_table, pred));
    auto parent = views.catalog->RequireActive(fk.parent_table);
    if (!parent.ok()) return parent.status();
    bool found = false;
    auto scan = ScanWhere(**parent, pred, [&](RowId, const Tuple&) {
      found = true;
      return false;
    });
    BF_RETURN_NOT_OK(scan.status());
    if (!found) {
      return Status::ConstraintViolation(
          "FK '" + fk.name + "' on '" + table + "': no parent row in '" +
          fk.parent_table + "'");
    }
  }
  return Status::OK();
}

bool MigrationController::MultiStepActive(const Views& views) {
  const auto& state = views.routing->multistep;
  return state != nullptr && !state->finishing.load(std::memory_order_acquire);
}

MigrationController::MultiStepGuard MigrationController::MultiStepWriteGuard(
    const Views& views) {
  // A routed multistep entry is running: its copier exists.
  if (!MultiStepActive(views)) return MultiStepGuard();
  const auto& state = views.routing->multistep;
  MultiStepGuard guard;
  guard.lock_ =
      std::shared_lock<WriterPriorityGate>(state->multistep->write_gate());
  guard.state_ = state;
  return guard;
}

Status MigrationController::PropagateOldWrite(const Views& views,
                                              Transaction* txn,
                                              const std::string& table,
                                              RowId rid, const Tuple* before,
                                              const Tuple* after) {
  if (!MultiStepActive(views)) return Status::OK();
  // Propagate no-ops for tables the copier does not consume.
  return views.routing->multistep->multistep->Propagate(txn, table, rid,
                                                        before, after);
}

bool MigrationController::UsesNewSchema() const { return !MultiStepActive(); }

bool MigrationController::IsComplete() const {
  if (!active_.load(std::memory_order_acquire)) return true;
  std::lock_guard lock(mu_);
  // Queued and starting entries are in flight too.
  return std::all_of(train_.begin(), train_.end(), [](const auto& s) {
    return s->complete.load(std::memory_order_acquire);
  });
}

double MigrationController::Progress() const {
  std::vector<std::shared_ptr<ActiveState>> running;
  size_t n = 0;
  {
    std::lock_guard lock(mu_);
    for (const auto& s : train_) {
      if (s->complete.load(std::memory_order_acquire)) continue;
      ++n;
      if (s->phase == Phase::kRunning) running.push_back(s);
    }
  }
  if (n == 0) return 1.0;
  // Queued and starting entries have moved nothing yet.
  double total = 0;
  for (const auto& state : running) total += StateProgress(*state);
  return total / static_cast<double>(n);
}

uint64_t MigrationController::UnitsMigrated() const {
  return SumStats(&MigrationStats::units_migrated);
}

size_t MigrationController::ActiveMigrations() const {
  std::lock_guard lock(mu_);
  return std::count_if(train_.begin(), train_.end(), [](const auto& s) {
    return s->phase != Phase::kQueued &&
           !s->complete.load(std::memory_order_acquire);
  });
}

size_t MigrationController::QueuedMigrations() const {
  std::lock_guard lock(mu_);
  return std::count_if(train_.begin(), train_.end(), [](const auto& s) {
    return s->phase == Phase::kQueued;
  });
}

MigrationController::Timeline MigrationController::timeline() const {
  Timeline t;
  auto states = SnapshotAll();
  if (states.empty()) return t;
  // The most recently published entry — for a single migration, the
  // classic semantics.
  const auto& state = states.back();
  if (state->background != nullptr) {
    t.background_start_s = state->background->work_start_seconds();
  }
  t.complete_s = state->complete_s.load(std::memory_order_acquire);
  return t;
}

Status MigrationController::background_error() const {
  for (const auto& state : SnapshotAll()) {
    if (state->background == nullptr) continue;
    Status err = state->background->last_error();
    if (!err.ok()) return err;
  }
  return Status::OK();
}

std::string MigrationController::StatusReport() const {
  std::vector<std::shared_ptr<ActiveState>> states;  // Running.
  std::vector<std::string> starting;
  std::vector<std::pair<std::string, double>> queued;
  std::vector<SubmitFailure> failures;
  size_t active = 0;
  {
    std::lock_guard lock(mu_);
    for (const auto& s : train_) {
      if (s->phase == Phase::kQueued) {
        queued.emplace_back(s->name, s->since_queued.ElapsedSeconds());
        continue;
      }
      if (!s->complete.load(std::memory_order_acquire)) ++active;
      if (s->phase == Phase::kStarting) {
        starting.push_back(s->name);
      } else {
        states.push_back(s);
      }
    }
    failures.assign(failures_.begin(), failures_.end());
  }
  char line[256];
  // Failed submits outlive the call that failed: listed even when the
  // train is empty.
  std::string failed;
  for (const SubmitFailure& f : failures) {
    std::snprintf(line, sizeof(line), "failed: %s age_s=%.3f ",
                  f.name.c_str(), f.since.ElapsedSeconds());
    failed += line + f.reason + "\n";
  }
  const size_t entries = states.size() + starting.size() + queued.size();
  if (entries == 0) return "migration: none\n" + failed;
  std::string out;
  // Single migration, nothing queued: the classic report. A train gets a
  // header plus one block per entry with its own trace stream.
  const bool train = entries > 1;
  if (train) {
    std::snprintf(line, sizeof(line),
                  "migration train: entries=%zu active=%zu queued=%zu\n",
                  entries, active, queued.size());
    out += line;
  }
  for (const auto& state : states) {
    const char* strategy = StrategyName(state->opts.strategy);
    const bool complete = state->complete.load(std::memory_order_acquire);
    const double progress = complete ? 1.0 : StateProgress(*state);
    std::snprintf(line, sizeof(line),
                  "migration: %s strategy=%s progress=%.4f complete=%d "
                  "elapsed_s=%.3f\n",
                  state->name.c_str(), strategy, progress,
                  complete ? 1 : 0, state->since_submit.ElapsedSeconds());
    out += line;
    for (const auto& m : state->stmt_migrators) {
      const MigrationStats& s = m->stats();
      std::snprintf(
          line, sizeof(line),
          "  statement %s [%s]: progress=%.4f units=%llu rows=%llu "
          "retries=%llu aborts=%llu\n",
          m->statement().name.c_str(),
          std::string(MigrationCategoryName(m->statement().category)).c_str(),
          m->Progress(),
          static_cast<unsigned long long>(s.units_migrated.load()),
          static_cast<unsigned long long>(s.rows_migrated.load()),
          static_cast<unsigned long long>(s.txn_retries.load()),
          static_cast<unsigned long long>(s.txn_aborts.load()));
      out += line;
    }
    // A replaying entry's worker exists but is not this node's to run.
    if (state->background != nullptr &&
        !state->replaying.load(std::memory_order_acquire)) {
      const BackgroundMigrator& bg = *state->background;
      std::snprintf(line, sizeof(line),
                    "  background: started=%d finished=%d gave_up=%d "
                    "work_start_s=%.3f finish_s=%.3f\n",
                    bg.started_working() ? 1 : 0, bg.finished() ? 1 : 0,
                    bg.gave_up() ? 1 : 0, bg.work_start_seconds(),
                    bg.finish_seconds());
      out += line;
      const Status err = bg.last_error();
      if (!err.ok()) out += "  background_error: " + err.ToString() + "\n";
    }
    const double complete_s =
        state->complete_s.load(std::memory_order_acquire);
    std::snprintf(line, sizeof(line), "  timeline: complete_s=%.3f\n",
                  complete_s);
    out += line;
    if (train && tracer_ != nullptr) {
      // Per-migration stream: untangle this entry's lifecycle from the
      // interleaved shared ring.
      std::string events = tracer_->RenderFor(state->name, /*max_events=*/8);
      if (!events.empty()) out += "  trace:\n" + events;
    }
  }
  for (const std::string& name : starting) out += "starting: " + name + "\n";
  size_t pos = 1;
  for (const auto& q : queued) {
    std::snprintf(line, sizeof(line), "queued[%zu]: %s waiting_s=%.3f\n",
                  pos++, q.first.c_str(), q.second);
    out += line;
  }
  out += failed;
  if (!train && tracer_ != nullptr) {
    out += tracer_->Render(/*max_events=*/12);
  }
  return out;
}

std::vector<MigrationController::SubmitFailure>
MigrationController::RecentFailures() const {
  std::lock_guard lock(mu_);
  return {failures_.begin(), failures_.end()};
}

std::vector<StatementMigrator*> MigrationController::migrators() const {
  std::vector<StatementMigrator*> out;
  for (const auto& state : SnapshotAll()) {
    for (const auto& m : state->stmt_migrators) out.push_back(m.get());
  }
  return out;
}

Status MigrationController::ApplyReplicatedMark(const std::string& tracker_id,
                                                const Tuple& unit_key) {
  // A mark arriving after its migration completed (or after a later
  // Submit dropped the state) must be a silent no-op — the tracker it
  // targeted no longer exists, and the data it covers already moved.
  for (const auto& state : SnapshotAll()) {
    if (state->finishing.load(std::memory_order_acquire)) continue;
    for (const auto& m : state->stmt_migrators) {
      if (m->tracker() != nullptr && m->tracker()->id() == tracker_id) {
        // MarkMigratedFromLog is idempotent (the migrate bit is checked
        // before the migrated counter is bumped) and range-checks the
        // key, so replayed and out-of-range marks are safe.
        m->tracker()->MarkMigratedFromLog(unit_key);
        return Status::OK();
      }
    }
  }
  return Status::OK();
}

Status MigrationController::CompleteReplicatedMigration(
    const std::string& plan_name) {
  for (const auto& state : SnapshotAll()) {
    if (state->finishing.load(std::memory_order_acquire)) continue;
    if (!plan_name.empty() && state->name != plan_name &&
        state->plan.name != plan_name) {
      continue;
    }
    // Empty name (legacy records): the oldest incomplete entry.
    OnMigrationComplete(state.get());
    return Status::OK();
  }
  return Status::OK();
}

Status MigrationController::AbortReplicatedMigration(
    const std::string& plan_name, const std::string& reason) {
  std::shared_ptr<ActiveState> e;
  bool switched = false;
  {
    std::lock_guard lock(mu_);
    auto it = std::find_if(train_.begin(), train_.end(), [&](const auto& s) {
      return s->name == plan_name && s->phase != Phase::kStarting &&
             !s->finishing.load(std::memory_order_acquire);
    });
    if (it == train_.end()) return Status::OK();
    e = *it;
    switched = e->phase == Phase::kRunning;
    EraseFailedLocked(e, reason);
  }
  // A running entry switched here as on the primary, which undid it.
  if (switched) {
    catalog_->UndoSwitch(e->plan.new_tables, e->plan.retire_tables);
  }
  StopWorkers({e});
  return Status::OK();
}

Status MigrationController::StartQueuedMigration(
    const std::string& plan_name) {
  std::shared_ptr<ActiveState> e;
  {
    std::lock_guard lock(mu_);
    for (const auto& s : train_) {
      if (s->phase == Phase::kQueued && s->name == plan_name) {
        s->phase = Phase::kStarting;
        e = s;
        break;
      }
    }
  }
  // Not queued: it already started (checkpoint restore or local
  // auto-start) — the record is a no-op.
  if (e == nullptr) return Status::OK();
  return Start(e, /*from_queue=*/true);
}

bool MigrationController::ShouldForwardReads(const std::string& table) const {
  const RoutingRef routing = routing_.Load();
  const ActiveState* state = nullptr;
  return LazyMigratorFor(*routing, table, /*replaying=*/true, &state) !=
         nullptr;
}

Status MigrationController::DescribeTrainForCheckpoint(
    std::vector<CheckpointMigration>* out) const {
  out->clear();
  std::vector<CheckpointMigration> queued;
  std::lock_guard lock(mu_);
  for (const auto& e : train_) {
    if (e->complete.load(std::memory_order_acquire)) continue;
    if (e->phase == Phase::kStarting) {
      return Status::Busy(
          "checkpoint deferred: a migration submit is mid-construction");
    }
    if (e->script.empty()) {
      return Status::Busy(
          "checkpoint deferred: a migration has no source script "
          "(programmatic plans cannot be rebuilt from a checkpoint)");
    }
    const bool started = e->phase == Phase::kRunning;
    if (started && e->finishing.load(std::memory_order_acquire)) {
      return Status::Busy(
          "checkpoint deferred: a migration is dropping its retired inputs");
    }
    if (started && e->opts.strategy != MigrationStrategy::kLazy) {
      return Status::Busy(
          "checkpoint deferred: a non-lazy migration is in flight");
    }
    CheckpointMigration m;
    m.started = started;
    EncodeMigrateBlob(&m.blob, e->opts.strategy, e->opts.lazy.granularity,
                      e->script);
    (started ? *out : queued).push_back(std::move(m));
  }
  // Started entries first, then queued ones, each in admission order.
  for (auto& m : queued) out->push_back(std::move(m));
  if (out->empty()) return Status::NotFound("no active migration");
  return Status::OK();
}

Status MigrationController::TakeOwnership() {
  std::vector<std::shared_ptr<ActiveState>> owned;
  std::vector<ActiveState*> queued;
  {
    std::lock_guard lock(mu_);
    for (const auto& state : train_) {
      if (state->phase == Phase::kQueued) {
        queued.push_back(state.get());
        continue;
      }
      if (state->phase != Phase::kRunning ||
          state->finishing.load(std::memory_order_acquire)) {
        continue;
      }
      if (state->opts.strategy != MigrationStrategy::kLazy) {
        return Status::Unsupported("recovery applies to lazy migrations");
      }
      owned.push_back(state);
    }
    if (owned.empty() && queued.empty()) return Status::OK();
    // Queued entries are handed back too: they auto-start locally once
    // their predecessors complete (their "migrate" records are already
    // durable, so the start path logs only the migrate_start marker).
    for (ActiveState* e : queued) e->opts.replicated_replay = false;
  }
  // The WAL replay already re-marked these trackers from every committed
  // kMigrationMark; this node only resumes moving the rest.
  for (const auto& state : owned) {
    state->replaying.store(false, std::memory_order_release);
    if (tracer_ != nullptr) {
      tracer_->Record(obs::TraceEventKind::kRecovery, TraceNameOf(state->plan),
                      "ownership after WAL replay");
    }
    if (state->background != nullptr) state->background->Start();
  }
  // Predecessors may have completed pre-crash: the queue may hold
  // immediately startable entries.
  WakePump();
  return Status::OK();
}

}  // namespace bullfrog
