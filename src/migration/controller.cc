#include "migration/controller.h"

#include <algorithm>
#include <cstdio>
#include <unordered_set>

#include "migration/replication_log.h"
#include "query/scan.h"

namespace bullfrog {

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
  std::vector<std::shared_ptr<ActiveState>> states;
  {
    std::lock_guard lock(mu_);
    active_.store(false, std::memory_order_release);
    states = std::move(states_);
    states_.clear();
    queue_.clear();
    reservations_.clear();
    RepublishLocked();
  }
  for (auto& state : states) {
    if (state->background != nullptr) state->background->Stop();
    if (state->multistep != nullptr) state->multistep->Stop();
  }
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

Status MigrationController::CreateOutputTables(const MigrationPlan& plan) {
  for (const TableSchema& schema : plan.new_tables) {
    BF_RETURN_NOT_OK(catalog_->CreateTable(schema).status());
  }
  for (const IndexSpec& spec : plan.new_indexes) {
    BF_ASSIGN_OR_RETURN(Table * t, catalog_->RequireActive(spec.table));
    BF_RETURN_NOT_OK(t->CreateIndex(
        spec.index_name, spec.columns, spec.unique,
        spec.ordered ? IndexKind::kOrdered : IndexKind::kHash));
  }
  return Status::OK();
}

Status MigrationController::RetireInputs(const MigrationPlan& plan) {
  for (const std::string& name : plan.retire_tables) {
    BF_RETURN_NOT_OK(catalog_->RetireTable(name));
  }
  return Status::OK();
}

void MigrationController::Publish(std::shared_ptr<ActiveState> state) {
  std::lock_guard lock(mu_);
  states_.push_back(state);
  RepublishLocked();
  // The footprint is now covered by a visible state; overlapping submits
  // waiting on the reservation can queue behind it.
  RemoveReservationLocked(state->name);
  active_.store(true, std::memory_order_release);
}

std::string MigrationController::TraceNameOf(const ActiveState& state) {
  if (!state.plan.name.empty()) return state.plan.name;
  for (const MigrationStatement& stmt : state.plan.statements) {
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
  for (const auto& s : states_) {
    if (s->name == name && !s->complete.load(std::memory_order_acquire)) {
      return true;
    }
  }
  for (const auto& e : queue_) {
    if (e.name == name) return true;
  }
  for (const auto& r : reservations_) {
    if (r.name == name) return true;
  }
  return false;
}

bool MigrationController::OverlapsInFlightLocked(
    const std::vector<std::string>& tables, std::string* blocker) const {
  auto hits = [&](const std::vector<std::string>& other) {
    for (const std::string& t : tables) {
      if (std::find(other.begin(), other.end(), t) != other.end()) {
        return true;
      }
    }
    return false;
  };
  for (const auto& s : states_) {
    if (!s->complete.load(std::memory_order_acquire) && hits(s->table_set)) {
      if (blocker != nullptr) *blocker = s->name;
      return true;
    }
  }
  for (const auto& e : queue_) {
    if (hits(e.table_set)) {
      if (blocker != nullptr) *blocker = e.name;
      return true;
    }
  }
  for (const auto& r : reservations_) {
    if (hits(r.table_set)) {
      if (blocker != nullptr) *blocker = r.name;
      return true;
    }
  }
  return false;
}

bool MigrationController::OverlapsReservationLocked(
    const std::vector<std::string>& tables) const {
  for (const auto& r : reservations_) {
    for (const std::string& t : tables) {
      if (std::find(r.table_set.begin(), r.table_set.end(), t) !=
          r.table_set.end()) {
        return true;
      }
    }
  }
  return false;
}

void MigrationController::RemoveReservationLocked(const std::string& name) {
  for (auto it = reservations_.begin(); it != reservations_.end(); ++it) {
    if (it->name == name) {
      reservations_.erase(it);
      break;
    }
  }
  reservation_cv_.notify_all();
}

void MigrationController::RepublishLocked() {
  auto next = std::make_shared<RoutingView>();
  for (const auto& s : states_) {
    if (s->finishing.load(std::memory_order_acquire)) continue;
    for (const auto& entry : s->by_output) next->by_output[entry.first] = s;
    if (s->opts.strategy == MigrationStrategy::kMultiStep) next->multistep = s;
  }
  next->gates = gates_;
  routing_.Publish(std::move(next));
}

void MigrationController::RecomputeActiveLocked() {
  active_.store(!states_.empty() || !queue_.empty(),
                std::memory_order_release);
}

void MigrationController::PruneCompletedLocked(
    std::vector<std::shared_ptr<ActiveState>>* torn_down) {
  for (auto it = states_.begin(); it != states_.end();) {
    if ((*it)->complete.load(std::memory_order_acquire)) {
      torn_down->push_back(std::move(*it));
      it = states_.erase(it);
    } else {
      ++it;
    }
  }
}

Status MigrationController::LogQueuedMigrateDdlLocked(
    const PendingMigration& e) {
  // Programmatic plans cannot be serialized; replays must not re-log.
  if (e.script.empty() || e.opts.replicated_replay) return Status::OK();
  std::string blob;
  EncodeMigrateBlob(&blob, e.opts.strategy, e.opts.lazy.granularity, e.script);
  return txns_->redo_log().AppendCommitted(
      0, {MakeDdlRecord("migrate", std::move(blob))});
}

Status MigrationController::Submit(MigrationPlan plan,
                                   const SubmitOptions& opts) {
  PendingMigration e;
  auto owned = std::make_shared<MigrationPlan>(std::move(plan));
  e.name = owned->name;
  if (e.name.empty()) {
    for (const MigrationStatement& stmt : owned->statements) {
      if (!stmt.output_tables.empty()) {
        e.name = stmt.output_tables[0];
        break;
      }
    }
    if (e.name.empty()) e.name = "(unnamed)";
  }
  e.script = owned->source_script;
  e.table_set = TableSetOf(*owned);
  e.opts = opts;
  e.factory = [owned]() -> Result<MigrationPlan> { return *owned; };
  return SubmitEntry(std::move(e));
}

Status MigrationController::SubmitScript(std::string name, std::string script,
                                         std::vector<std::string> table_set,
                                         PlanFactory factory,
                                         const SubmitOptions& opts) {
  PendingMigration e;
  e.name = std::move(name);
  e.script = std::move(script);
  e.table_set = std::move(table_set);
  e.opts = opts;
  e.factory = std::move(factory);
  return SubmitEntry(std::move(e));
}

Status MigrationController::SubmitEntry(PendingMigration e) {
  std::vector<std::shared_ptr<ActiveState>> torn_down;
  {
    std::unique_lock lock(mu_);
    // An overlapping reservation is a submit mid-construction: its
    // "migrate" record may not be durable yet, so enqueueing (and
    // logging) now could put this entry's record ahead of its
    // predecessor's in the WAL. Wait for the reservation to publish or
    // fail, then decide between start and queue.
    reservation_cv_.wait(lock, [&] {
      return NameInFlightLocked(e.name) ||
             !OverlapsReservationLocked(e.table_set);
    });
    if (NameInFlightLocked(e.name)) {
      return Status::Busy("migration '" + e.name +
                          "' is already in flight or queued");
    }
    if (e.opts.strategy == MigrationStrategy::kMultiStep &&
        (!queue_.empty() || !reservations_.empty() ||
         std::any_of(states_.begin(), states_.end(), [](const auto& s) {
           return !s->complete.load(std::memory_order_acquire);
         }))) {
      // The dual-write guard routes through a single copier; multistep
      // never joins a train.
      return Status::Busy(
          "a migration is already in flight; multi-step migrations cannot "
          "join a migration train");
    }
    std::string blocker;
    if (OverlapsInFlightLocked(e.table_set, &blocker)) {
      if (e.opts.strategy != MigrationStrategy::kLazy) {
        return Status::Busy(
            "a migration over overlapping tables is in flight ('" + blocker +
            "'); only lazy migrations can queue behind it");
      }
      // Make the queued script durable now, under mu_, so queue order
      // and WAL order agree: a crash replays the whole train in order.
      BF_RETURN_NOT_OK(LogQueuedMigrateDdlLocked(e));
      e.ddl_logged = true;
      e.since_queued.Restart();
      queue_.push_back(std::move(e));
      const PendingMigration& parked = queue_.back();
      const size_t position = queue_.size();
      active_.store(true, std::memory_order_release);
      if (tracer_ != nullptr) {
        tracer_->Record(obs::TraceEventKind::kSubmit, parked.name,
                        "queued position=" + std::to_string(position) +
                            " behind=" + blocker);
      }
      return Status::Queued(
          "migration '" + parked.name + "' queued at position " +
          std::to_string(position) + " behind '" + blocker +
          "'; it starts automatically when its predecessors complete");
    }
    // Disjoint from everything in flight: prune completed predecessors
    // and claim the footprint.
    PruneCompletedLocked(&torn_down);
    reservations_.push_back({e.name, e.table_set});
  }
  // Tear down pruned migrations' machinery outside the lock (Stop joins
  // worker threads). Readers still holding a snapshot keep the state
  // alive until they are done.
  for (auto& state : torn_down) {
    if (state->background != nullptr) state->background->Stop();
    if (state->multistep != nullptr) state->multistep->Stop();
  }
  torn_down.clear();
  return StartReserved(std::move(e), /*from_queue=*/false);
}

Status MigrationController::StartReserved(PendingMigration e,
                                          bool from_queue) {
  // Build the new state privately; it becomes visible to readers only via
  // Publish(), after every non-atomic member has its final value.
  auto state = std::make_shared<ActiveState>();
  Status s = [&]() -> Status {
    if (!e.factory) {
      return Status::InvalidArgument("migration has no plan factory");
    }
    Result<MigrationPlan> plan = e.factory();
    BF_RETURN_NOT_OK(plan.status());
    state->name = e.name;
    state->table_set = e.table_set;
    state->ddl_logged = e.ddl_logged;
    state->plan = std::move(*plan);
    state->opts = e.opts;
    state->replaying.store(e.opts.replicated_replay,
                           std::memory_order_release);
    for (size_t i = 0; i < state->plan.statements.size(); ++i) {
      for (const std::string& out : state->plan.statements[i].output_tables) {
        state->by_output.emplace(out, i);
      }
    }
    if (tracer_ != nullptr) {
      const char* strategy = "lazy";
      if (state->opts.strategy == MigrationStrategy::kEager) {
        strategy = "eager";
      }
      if (state->opts.strategy == MigrationStrategy::kMultiStep) {
        strategy = "multistep";
      }
      char queued[48] = "";
      if (from_queue) {
        std::snprintf(queued, sizeof(queued), " auto-start queued_s=%.3f",
                      e.since_queued.ElapsedSeconds());
      }
      tracer_->Record(
          obs::TraceEventKind::kSubmit, TraceNameOf(*state),
          std::string("strategy=") + strategy + " statements=" +
              std::to_string(state->plan.statements.size()) +
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
  {
    std::lock_guard lock(mu_);
    RemoveReservationLocked(e.name);
    if (!s.ok()) {
      // Published, then failed (e.g. the eager copy): withdraw it.
      auto it = std::find(states_.begin(), states_.end(), state);
      if (it != states_.end()) {
        states_.erase(it);
        RepublishLocked();
      }
    }
    RecomputeActiveLocked();
  }
  // A failed start frees its footprint: entries queued behind it may now
  // be startable. (The pump loop itself re-scans after a from_queue
  // failure.)
  if (!s.ok() && !from_queue) WakePump();
  return s;
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
    PendingMigration next;
    bool found = false;
    {
      std::lock_guard lock(mu_);
      // FIFO with dependency order: an entry may start only when its
      // tables are disjoint from every incomplete started migration,
      // every reservation, and every *earlier* queue entry (so chained
      // hops drain in submit order).
      std::unordered_set<std::string> blocked;
      for (const auto& s : states_) {
        if (s->complete.load(std::memory_order_acquire)) continue;
        blocked.insert(s->table_set.begin(), s->table_set.end());
      }
      for (const auto& r : reservations_) {
        blocked.insert(r.table_set.begin(), r.table_set.end());
      }
      for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        // Replayed entries stay parked until their "migrate_start"
        // record arrives (StartQueuedMigration) so the replica/recovery
        // switch point matches the primary's exactly.
        const bool startable =
            !it->opts.replicated_replay &&
            std::none_of(it->table_set.begin(), it->table_set.end(),
                         [&](const std::string& t) {
                           return blocked.count(t) > 0;
                         });
        if (!startable) {
          blocked.insert(it->table_set.begin(), it->table_set.end());
          continue;
        }
        next = std::move(*it);
        queue_.erase(it);
        reservations_.push_back({next.name, next.table_set});
        found = true;
        break;
      }
    }
    if (!found) return;
    const std::string name = next.name;
    Status s = StartReserved(std::move(next), /*from_queue=*/true);
    if (!s.ok()) {
      // No client is waiting on an auto-start; surface the failure in
      // the status report instead.
      std::lock_guard lock(mu_);
      train_errors_.push_back("train entry '" + name +
                              "' failed to auto-start: " + s.ToString());
    }
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
    // no client write straddles the boundary capture. A checkpoint
    // restore arrives with the switch already baked into the restored
    // catalog (outputs exist, inputs retired) and only rebuilds the
    // machinery.
    std::unique_lock switch_lock(*switch_gate_);
    if (!state->opts.resume_after_switch) {
      BF_RETURN_NOT_OK(CreateOutputTables(state->plan));
      BF_RETURN_NOT_OK(RetireInputs(state->plan));
    }
    BF_RETURN_NOT_OK(LogMigrateDdl(*state));
    for (const MigrationStatement& stmt : state->plan.statements) {
      BF_ASSIGN_OR_RETURN(
          std::unique_ptr<StatementMigrator> m,
          MakeStatementMigrator(catalog_, txns_, stmt, state->opts.lazy));
      m->BindTracing(tracer_, TraceNameOf(*state));
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
                                           TraceNameOf(*state));
    }
    state->since_submit.Restart();
    // Publish inside the switch gate: the instant a client can see the
    // new schema, the fully-built migration state is visible with it.
    Publish(state);
    if (tracer_ != nullptr) {
      tracer_->Record(obs::TraceEventKind::kSwitch, TraceNameOf(*state),
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
  if (state->opts.replicated_replay) {
    // Replaying a replicated eager migrate record: perform the logical
    // switch only. The copied rows arrive physically through the log
    // stream, and the matching "migrate_complete" record drops the
    // retired inputs (via CompleteReplicatedMigration).
    std::unique_lock switch_lock(*switch_gate_);
    BF_RETURN_NOT_OK(CreateOutputTables(state->plan));
    BF_RETURN_NOT_OK(RetireInputs(state->plan));
    state->since_submit.Restart();
    Publish(state);
    return Status::OK();
  }
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
    BF_RETURN_NOT_OK(CreateOutputTables(state->plan));
    // Gate every output table exclusively: client requests that touch the
    // new schema queue here for the entire copy — the downtime of Fig 3.
    for (const TableSchema& t : state->plan.new_tables) {
      outputs.push_back(t.name());
    }
    std::sort(outputs.begin(), outputs.end());
    for (const std::string& t : outputs) {
      auto gate = GateFor(t);
      gate->lock();
      held.push_back(std::move(gate));
    }
    BF_RETURN_NOT_OK(RetireInputs(state->plan));
    BF_RETURN_NOT_OK(LogMigrateDdl(*state));
    state->since_submit.Restart();
    Publish(state);
    return Status::OK();
  }();
  if (!s.ok()) {
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
  // observes a finished migration.
  if (s.ok()) OnMigrationComplete(state.get());
  open_gates();
  return s;
}

Status MigrationController::SubmitMultiStep(
    const std::shared_ptr<ActiveState>& state) {
  {
    std::unique_lock switch_lock(*switch_gate_);
    BF_RETURN_NOT_OK(CreateOutputTables(state->plan));
    for (const MigrationStatement& stmt : state->plan.statements) {
      for (const std::string& input : stmt.input_tables) {
        BF_RETURN_NOT_OK(catalog_->RequireActive(input).status());
      }
    }
    // Old schema stays active; nothing is retired yet. The copier is
    // constructed (not started) before publication so readers never see a
    // half-initialized multistep pointer.
    state->multistep = std::make_unique<MultiStepCopier>(
        catalog_, txns_, &state->plan, state->opts.multistep,
        [this, s = state.get()]() -> Status {
          BF_RETURN_NOT_OK(RetireInputs(s->plan));
          OnMigrationComplete(s);
          return Status::OK();
        });
    state->since_submit.Restart();
    Publish(state);
  }
  state->multistep->Start();
  return Status::OK();
}

Status MigrationController::LogMigrateDdl(const ActiveState& state) {
  // Only script-backed, locally-originated migrations are replicated:
  // programmatic plans carry unserializable std::function transforms, and
  // a replay must not re-log the record it is replaying.
  if (state.plan.source_script.empty() || state.opts.replicated_replay) {
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
                    state.plan.source_script);
  return txns_->redo_log().AppendCommitted(
      0, {MakeDdlRecord("migrate", std::move(blob))});
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
    tracer_->Record(obs::TraceEventKind::kComplete, TraceNameOf(*state),
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
  if (!state->plan.source_script.empty() &&
      !state->replaying.load(std::memory_order_acquire)) {
    std::string blob;
    EncodeMigrateCompleteBlob(&blob, state->plan.name,
                              state->plan.retire_tables);
    // Completion fires from a worker thread with no client to report to;
    // a durable-append failure here loses only the replicated completion
    // marker (replicas finish their own copy of the migration), so warn
    // rather than crash.
    Status logged = txns_->redo_log().AppendCommitted(
        0, {MakeDdlRecord("migrate_complete", std::move(blob))});
    if (!logged.ok()) {
      std::fprintf(stderr,
                   "bullfrog: migrate_complete record not durable: %s\n",
                   logged.ToString().c_str());
    }
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

StatementMigrator* MigrationController::FindMigratorForOutput(
    const std::string& table) const {
  const RoutingRef routing = routing_.Load();
  ActiveState* state = StateForTable(*routing, table);
  if (state == nullptr) return nullptr;
  return MigratorFor(*state, table);
}

Status MigrationController::PrepareRead(const Views& views,
                                        const std::string& table,
                                        const ExprPtr& pred) {
  // Per-table resolution: with a train in flight, `table` belongs to at
  // most one migration (admission serializes overlapping footprints).
  ActiveState* state = StateForTable(*views.routing, table);
  if (state == nullptr || state->finishing.load(std::memory_order_acquire)) {
    return Status::OK();
  }
  if (state->opts.strategy != MigrationStrategy::kLazy) return Status::OK();
  // On a replica, data moves only via the replicated log: migrating
  // locally would assign rids the primary will later assign differently.
  if (state->replaying.load(std::memory_order_acquire)) return Status::OK();
  StatementMigrator* m = MigratorFor(*state, table);
  if (m == nullptr || m->IsComplete()) return Status::OK();
  Status s = m->MigrateForPredicate(pred);
  // Benign race: the background threads may finish the migration (and
  // drop the retired inputs) between the IsComplete check above and the
  // migrator touching the old tables.
  if (!s.ok() && (m->IsComplete() ||
                  state->finishing.load(std::memory_order_acquire))) {
    return Status::OK();
  }
  return s;
}

Status MigrationController::PrepareInsert(const Views& views,
                                          const std::string& table,
                                          const Tuple& row) {
  ActiveState* state = StateForTable(*views.routing, table);
  if (state == nullptr || state->finishing.load(std::memory_order_acquire)) {
    return Status::OK();
  }
  if (state->opts.strategy != MigrationStrategy::kLazy) return Status::OK();
  if (state->replaying.load(std::memory_order_acquire)) return Status::OK();
  StatementMigrator* m = MigratorFor(*state, table);
  if (m == nullptr || m->IsComplete()) return Status::OK();

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
    Status s = m->MigrateForPredicate(JoinConjuncts(std::move(conjuncts)));
    // Same benign completion race as PrepareRead.
    if (!s.ok() && (m->IsComplete() ||
                    state->finishing.load(std::memory_order_acquire))) {
      return Status::OK();
    }
    return s;
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
  const auto& state = views.routing->multistep;
  if (!MultiStepActive(views) || state->multistep == nullptr) {
    return MultiStepGuard();
  }
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
  const auto& state = views.routing->multistep;
  if (!MultiStepActive(views) || state->multistep == nullptr) {
    return Status::OK();
  }
  // Propagate no-ops for tables the copier does not consume.
  return state->multistep->Propagate(txn, table, rid, before, after);
}

bool MigrationController::UsesNewSchema() const { return !MultiStepActive(); }

bool MigrationController::IsComplete() const {
  if (!active_.load(std::memory_order_acquire)) return true;
  std::lock_guard lock(mu_);
  // A reservation is an entry the pump (or a submit) has claimed but not
  // yet published: still in flight.
  if (!queue_.empty() || !reservations_.empty()) return false;
  for (const auto& s : states_) {
    if (!s->complete.load(std::memory_order_acquire)) return false;
  }
  return true;
}

double MigrationController::Progress() const {
  std::vector<std::shared_ptr<ActiveState>> states;
  size_t queued;
  {
    std::lock_guard lock(mu_);
    states = states_;
    queued = queue_.size() + reservations_.size();
  }
  double total = 0;
  size_t n = 0;
  for (const auto& state : states) {
    if (state->complete.load(std::memory_order_acquire)) continue;
    total += StateProgress(*state);
    ++n;
  }
  n += queued;  // Queued and reserved entries have moved nothing yet.
  if (n == 0) return 1.0;
  return total / static_cast<double>(n);
}

uint64_t MigrationController::UnitsMigrated() const {
  return SumStats(&MigrationStats::units_migrated);
}

size_t MigrationController::ActiveMigrations() const {
  std::lock_guard lock(mu_);
  size_t n = 0;
  for (const auto& s : states_) {
    if (!s->complete.load(std::memory_order_acquire)) ++n;
  }
  return n;
}

size_t MigrationController::QueuedMigrations() const {
  std::lock_guard lock(mu_);
  return queue_.size();
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
  std::vector<std::shared_ptr<ActiveState>> states;
  std::vector<std::pair<std::string, double>> queued;
  std::vector<std::string> errors;
  {
    std::lock_guard lock(mu_);
    states = states_;
    for (const auto& e : queue_) {
      queued.emplace_back(e.name, e.since_queued.ElapsedSeconds());
    }
    errors = train_errors_;
  }
  if (states.empty() && queued.empty()) return "migration: none\n";
  std::string out;
  char line[256];
  // Single migration, nothing queued: the classic report. A train gets a
  // header plus one block per entry with its own trace stream.
  const bool train = states.size() + queued.size() > 1 || !errors.empty();
  if (train) {
    size_t active = 0;
    for (const auto& s : states) {
      if (!s->complete.load(std::memory_order_acquire)) ++active;
    }
    std::snprintf(line, sizeof(line),
                  "migration train: entries=%zu active=%zu queued=%zu\n",
                  states.size() + queued.size(), active, queued.size());
    out += line;
  }
  for (const auto& state : states) {
    const char* strategy = "lazy";
    if (state->opts.strategy == MigrationStrategy::kEager) strategy = "eager";
    if (state->opts.strategy == MigrationStrategy::kMultiStep) {
      strategy = "multistep";
    }
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
  size_t pos = 1;
  for (const auto& q : queued) {
    std::snprintf(line, sizeof(line), "queued[%zu]: %s waiting_s=%.3f\n",
                  pos++, q.first.c_str(), q.second);
    out += line;
  }
  for (const auto& err : errors) out += "train_error: " + err + "\n";
  if (!train && tracer_ != nullptr) {
    out += tracer_->Render(/*max_events=*/12);
  }
  return out;
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

Status MigrationController::StartQueuedMigration(
    const std::string& plan_name) {
  PendingMigration e;
  bool found = false;
  {
    std::lock_guard lock(mu_);
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (it->name == plan_name) {
        e = std::move(*it);
        queue_.erase(it);
        reservations_.push_back({e.name, e.table_set});
        found = true;
        break;
      }
    }
  }
  // Not queued: it already started (checkpoint restore or local
  // auto-start) — the record is a no-op.
  if (!found) return Status::OK();
  return StartReserved(std::move(e), /*from_queue=*/true);
}

bool MigrationController::ShouldForwardReads(const std::string& table) const {
  const RoutingRef routing = routing_.Load();
  ActiveState* state = StateForTable(*routing, table);
  if (state == nullptr || !state->replaying.load(std::memory_order_acquire) ||
      state->opts.strategy != MigrationStrategy::kLazy ||
      state->finishing.load(std::memory_order_acquire)) {
    return false;
  }
  StatementMigrator* m = MigratorFor(*state, table);
  return m != nullptr && !m->IsComplete();
}

Status MigrationController::DescribeTrainForCheckpoint(
    std::vector<CheckpointMigration>* out) const {
  std::lock_guard lock(mu_);
  if (!reservations_.empty()) {
    return Status::Busy(
        "checkpoint deferred: a migration submit is mid-construction");
  }
  out->clear();
  for (const auto& state : states_) {
    if (state->complete.load(std::memory_order_acquire)) continue;
    if (state->finishing.load(std::memory_order_acquire)) {
      return Status::Busy(
          "checkpoint deferred: a migration is dropping its retired inputs");
    }
    if (state->opts.strategy != MigrationStrategy::kLazy) {
      return Status::Busy(
          "checkpoint deferred: a non-lazy migration is in flight");
    }
    if (state->plan.source_script.empty()) {
      return Status::Busy(
          "checkpoint deferred: an active migration has no source script "
          "(programmatic plans cannot be rebuilt from a checkpoint)");
    }
    CheckpointMigration m;
    m.started = true;
    EncodeMigrateBlob(&m.blob, state->opts.strategy,
                      state->opts.lazy.granularity,
                      state->plan.source_script);
    out->push_back(std::move(m));
  }
  for (const auto& e : queue_) {
    if (e.script.empty()) {
      return Status::Busy(
          "checkpoint deferred: a queued migration has no source script");
    }
    CheckpointMigration m;
    m.started = false;
    EncodeMigrateBlob(&m.blob, e.opts.strategy, e.opts.lazy.granularity,
                      e.script);
    out->push_back(std::move(m));
  }
  if (out->empty()) return Status::NotFound("no active migration");
  return Status::OK();
}

Status MigrationController::TakeOwnership() {
  std::vector<std::shared_ptr<ActiveState>> owned;
  {
    std::lock_guard lock(mu_);
    for (const auto& state : states_) {
      if (state->finishing.load(std::memory_order_acquire)) continue;
      if (state->opts.strategy != MigrationStrategy::kLazy) {
        return Status::Unsupported("recovery applies to lazy migrations");
      }
      owned.push_back(state);
    }
    if (owned.empty() && queue_.empty()) return Status::OK();
    // Queued entries are handed back too: they auto-start locally once
    // their predecessors complete (their "migrate" records are already
    // durable, so the start path logs only the migrate_start marker).
    for (auto& e : queue_) e.opts.replicated_replay = false;
  }
  // The WAL replay already re-marked these trackers from every committed
  // kMigrationMark; this node only resumes moving the rest.
  for (const auto& state : owned) {
    state->replaying.store(false, std::memory_order_release);
    if (tracer_ != nullptr) {
      tracer_->Record(obs::TraceEventKind::kRecovery, TraceNameOf(*state),
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
