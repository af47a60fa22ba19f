#include "bullfrog/database.h"

#include <cassert>
#include <cstdio>

#include "catalog/schema_codec.h"
#include "common/clock.h"
#include "common/env.h"
#include "query/scan.h"

namespace bullfrog {

namespace {

// Wraps a controller Prepare* call for request tracing: when the request
// is traced and the call actually pulled migration units, the pull time
// is attributed to the migrate_pull stage and a span naming the table is
// emitted. Warm paths (nothing pulled) record nothing, so re-reads of
// already-migrated data show zero migration attribution.
template <typename Fn>
Status TracedPrepare(const std::string& table, Fn&& fn) {
  obs::TraceContext* trace = obs::CurrentTrace();
  if (trace == nullptr) return fn();
  uint64_t before = trace->StageCount(obs::Stage::kMigratePull);
  int64_t start = Clock::NowNanos();
  Status s = fn();
  uint64_t pulled = trace->StageCount(obs::Stage::kMigratePull) - before;
  if (pulled > 0) {
    int64_t dur = Clock::NowNanos() - start;
    trace->AddStage(obs::Stage::kMigratePull, dur, 0);
    char detail[160];
    std::snprintf(detail, sizeof(detail), "table=%s units=%llu",
                  table.c_str(), static_cast<unsigned long long>(pulled));
    trace->RecordSpan("migrate_pull", start, dur, detail);
  }
  return s;
}

}  // namespace

Database::Database() : controller_(&catalog_, &txns_) {
  // One registry + tracer per database (a process may host several — a
  // replication test runs a primary and a replica side by side — and
  // their metrics must not merge).
  txns_.BindMetrics(&metrics_);
  controller_.BindObservability(&metrics_, &tracer_);
  // Every table created from here on prunes its version chains inline
  // against the snapshot watermark and retires unlinked versions against
  // the visible clock; the background sweeper mops up the rows the write
  // path left multi-version and no longer touches, and frees the retired
  // versions the watermark has passed.
  catalog_.SetSnapshots(&txns_.snapshots());
  version_gc_ =
      std::make_unique<mvcc::VersionGC>(&catalog_, &txns_.snapshots());
  version_gc_->BindMetrics(&metrics_);
  version_gc_->Start(/*interval_ms=*/50);
}

void Database::StartTimeseries(int64_t interval_ms) {
  std::lock_guard<std::mutex> lock(timeseries_mu_);
  if (timeseries_ != nullptr) return;
  if (interval_ms <= 0) interval_ms = EnvInt64("BF_TIMESERIES_MS", 100);
  auto ts = std::make_unique<obs::TimeseriesSampler>(interval_ms);
  ts->AddSource("txn_commits",
                [this] { return static_cast<double>(txns_.num_committed()); });
  ts->AddSource("migration_progress", [this] { return controller_.Progress(); });
  ts->AddSource("migration_active", [this] {
    return controller_.HasActiveMigration() && !controller_.IsComplete() ? 1.0
                                                                         : 0.0;
  });
  ts->AddSource("units_migrated", [this] {
    return static_cast<double>(controller_.UnitsMigrated());
  });
  ts->Start();
  timeseries_ = std::move(ts);
}

Status Database::CreateTable(TableSchema schema) {
  std::string blob;
  EncodeTableSchema(&blob, schema);
  BF_RETURN_NOT_OK(catalog_.CreateTable(std::move(schema)).status());
  // Logged after the fact (txn 0): replication replays the record against
  // a catalog that cannot conflict, since the create succeeded here first.
  return txns_.redo_log().AppendCommitted(
      0, {MakeDdlRecord("create_table", std::move(blob))});
}

Status Database::CreateIndex(const std::string& table,
                             const std::string& index_name,
                             const std::vector<std::string>& columns,
                             bool unique, IndexKind kind) {
  BF_ASSIGN_OR_RETURN(Table * t, catalog_.RequireActive(table));
  BF_RETURN_NOT_OK(t->CreateIndex(index_name, columns, unique, kind));
  std::string blob;
  EncodeIndexDef(&blob, table, index_name, columns,
                 unique, kind == IndexKind::kOrdered);
  return txns_.redo_log().AppendCommitted(
      0, {MakeDdlRecord("create_index", std::move(blob))});
}

Status Database::BulkInsert(const std::string& table,
                            const std::vector<Tuple>& rows) {
  BF_ASSIGN_OR_RETURN(Table * t, catalog_.RequireActive(table));
  // Logged as one batch under txn 0 (like DDL): a single AppendCommitted
  // is one group-commit sync instead of per-row commits, and the implicit
  // kCommit terminator makes the whole load atomic for replay. Records
  // carry the real rids so kInsert replays via Table::RestoreAt land on
  // the same slots.
  std::vector<LogRecord> records;
  records.reserve(rows.size());
  for (const Tuple& row : rows) {
    BF_ASSIGN_OR_RETURN(InsertOutcome outcome, t->Insert(row));
    LogRecord r;
    r.op = LogOp::kInsert;
    r.table = table;
    r.rid = outcome.rid;
    r.after = row;
    records.push_back(std::move(r));
  }
  if (records.empty()) return Status::OK();
  return txns_.redo_log().AppendCommitted(0, std::move(records));
}

Database::Session Database::BeginSession(std::vector<std::string> tables) {
  Session session;
  session.guard_ = controller_.GuardTables(std::move(tables), &session.views_);
  session.multistep_guard_ =
      MigrationController::MultiStepWriteGuard(session.views_);
  session.txn_ = txns_.Begin();
  return session;
}

Status Database::Commit(Session* session) {
  return txns_.Commit(session->txn());
}

Status Database::Abort(Session* session) {
  return txns_.Abort(session->txn());
}

Result<std::vector<std::pair<RowId, Tuple>>> Database::Select(
    Session* session, const std::string& table, const ExprPtr& pred,
    bool for_update) {
  // Migrate the potentially relevant tuples first (§2.1), then run the
  // request over the new schema. For tables not under migration this is a
  // cheap no-op.
  const MigrationController::Views& views = ViewsFor(session);
  BF_RETURN_NOT_OK(TracedPrepare(
      table, [&] { return controller_.PrepareRead(views, table, pred); }));
  BF_ASSIGN_OR_RETURN(Table * t, views.catalog->RequireActive(table));
  if (!for_update) {
    // Statement-level snapshot at the visible clock, read *after* the lazy
    // pull above so rows this statement itself migrated are visible; own
    // uncommitted writes are visible through the txn id in the view.
    //
    // No statement pin: the transaction's begin pin covers the latch-free
    // scan. Pruning frees a version at once only when a newer version
    // with commit_ts <= the watermark shadows it, and watermark <=
    // begin_ts (pinned) <= ts. The version visible at ts is the newest
    // with commit_ts <= ts, so nothing with commit_ts <= ts shadows it and
    // pruning cannot free it, nor anything newer that the chain walk steps
    // over on the way down. A version unlinked while the walk may stand
    // on it (mvcc::VisibleVersion) is freed only once the watermark passes
    // the clock read after the unlink, and this begin pin is at or below
    // that reading.
    Transaction* txn = session->txn();
    assert(txn->pinned());
    return CollectWhereAt(
        *t, pred, mvcc::ReadView{txns_.snapshots().visible(), txn->id()});
  }
  // FOR UPDATE re-reads every match under its exclusive lock, so the scan
  // only collects rids: each row is copied once, by the locked read.
  BF_ASSIGN_OR_RETURN(ScanPlan plan, PlanScan(*t, pred));
  const std::vector<RowId> rids = CollectRids(*t, plan);
  std::vector<std::pair<RowId, Tuple>> rows(rids.size());
  for (size_t i = 0; i < rids.size(); ++i) {
    rows[i].first = rids[i];
    BF_RETURN_NOT_OK(txns_.Read(session->txn(), t, rids[i], &rows[i].second,
                                /*for_update=*/true));
  }
  return rows;
}

Status Database::Insert(Session* session, const std::string& table,
                        const Tuple& row) {
  // Unique constraints on the new schema expand the relevant set: migrate
  // potential conflicts before the constraint check (§2.1).
  const MigrationController::Views& views = ViewsFor(session);
  BF_RETURN_NOT_OK(TracedPrepare(
      table, [&] { return controller_.PrepareInsert(views, table, row); }));
  BF_RETURN_NOT_OK(controller_.CheckForeignKeys(views, table, row));
  BF_ASSIGN_OR_RETURN(Table * t, views.catalog->RequireActive(table));
  BF_ASSIGN_OR_RETURN(InsertOutcome outcome,
                      txns_.Insert(session->txn(), t, row));
  // During a multi-step copy the write reaches the shadow tables too.
  return MigrationController::PropagateOldWrite(
      views, session->txn(), table, outcome.rid, /*before=*/nullptr, &row);
}

Result<uint64_t> Database::Update(
    Session* session, const std::string& table, const ExprPtr& pred,
    const std::function<Tuple(const Tuple&)>& updater) {
  // §2.1: UPDATEs are rewritten into SELECTs over the old schema that
  // migrate the relevant tuples first; then the update runs on the new
  // schema.
  const MigrationController::Views& views = ViewsFor(session);
  BF_RETURN_NOT_OK(TracedPrepare(
      table, [&] { return controller_.PrepareWrite(views, table, pred); }));
  BF_ASSIGN_OR_RETURN(Table * t, views.catalog->RequireActive(table));
  // Planned (and its residual bound) once; plan.Matches re-checks each
  // row under its lock.
  BF_ASSIGN_OR_RETURN(ScanPlan plan, PlanScan(*t, pred));
  uint64_t updated = 0;
  for (RowId rid : CollectRids(*t, plan)) {
    // Lock, re-read (the row may have changed since the scan), re-check
    // the predicate, then write.
    Tuple current;
    Status read = txns_.Read(session->txn(), t, rid, &current,
                             /*for_update=*/true);
    if (read.IsNotFound()) continue;  // Deleted since the scan.
    BF_RETURN_NOT_OK(read);
    if (!plan.Matches(current)) continue;
    Tuple next = updater(current);
    BF_RETURN_NOT_OK(controller_.CheckForeignKeys(views, table, next));
    if (!MigrationController::MultiStepActive(views)) {
      // The new image moves into the row version.
      BF_RETURN_NOT_OK(txns_.Update(session->txn(), t, rid, std::move(next)));
    } else {
      // Dual write: the old schema gets the image too.
      BF_RETURN_NOT_OK(txns_.Update(session->txn(), t, rid, next));
      BF_RETURN_NOT_OK(MigrationController::PropagateOldWrite(
          views, session->txn(), table, rid, &current, &next));
    }
    ++updated;
  }
  return updated;
}

Result<uint64_t> Database::Delete(Session* session, const std::string& table,
                                  const ExprPtr& pred) {
  const MigrationController::Views& views = ViewsFor(session);
  BF_RETURN_NOT_OK(TracedPrepare(
      table, [&] { return controller_.PrepareWrite(views, table, pred); }));
  BF_ASSIGN_OR_RETURN(Table * t, views.catalog->RequireActive(table));
  BF_ASSIGN_OR_RETURN(ScanPlan plan, PlanScan(*t, pred));
  uint64_t deleted = 0;
  for (RowId rid : CollectRids(*t, plan)) {
    Tuple current;
    Status read = txns_.Read(session->txn(), t, rid, &current,
                             /*for_update=*/true);
    if (read.IsNotFound()) continue;
    BF_RETURN_NOT_OK(read);
    if (!plan.Matches(current)) continue;
    BF_RETURN_NOT_OK(txns_.Delete(session->txn(), t, rid));
    BF_RETURN_NOT_OK(MigrationController::PropagateOldWrite(
        views, session->txn(), table, rid, &current, /*after=*/nullptr));
    ++deleted;
  }
  return deleted;
}

Status Database::SubmitMigration(
    MigrationPlan plan, const MigrationController::SubmitOptions& options) {
  return controller_.Submit(std::move(plan), options);
}

}  // namespace bullfrog
