#ifndef BULLFROG_BULLFROG_DATABASE_H_
#define BULLFROG_BULLFROG_DATABASE_H_

#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "common/status.h"
#include "migration/controller.h"
#include "migration/spec.h"
#include "mvcc/gc.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "query/expr.h"
#include "txn/txn_manager.h"

namespace bullfrog {

/// The embeddable BullFrog database: an in-memory relational engine with
/// single-step online schema evolution.
///
/// Typical usage:
///
///   bullfrog::Database db;
///   db.CreateTable(SchemaBuilder("flights")...Build());
///   ...load...
///   auto s = db.BeginSession({"flights"});
///   auto rows = db.Select(&s, "flights", Eq(Col("flightid"),
///                                           LitStr("AA101")));
///   db.Commit(&s);
///
///   // Single-step schema migration (§2.1): logical switch is immediate,
///   // data moves lazily as requests arrive + in background.
///   db.SubmitMigration(plan, options);
///
/// All client requests go through Sessions, which (a) hold the gates that
/// queue requests behind an eager migration, (b) trigger request-driven
/// lazy migration before touching new-schema tables, and (c) route
/// dual writes while a multi-step copy is running. A session resolves
/// table names and migrations against the catalog and routing views it
/// captured at begin, re-fetching one only when it was superseded — the
/// statement path takes no lock to find its table.
class Database {
 public:
  Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// A client transaction plus the request-scope guards.
  class Session {
   public:
    Session(Session&&) = default;
    Session& operator=(Session&&) = default;

    Transaction* txn() { return txn_.get(); }

   private:
    friend class Database;
    Session() = default;

    std::unique_ptr<Transaction> txn_;
    MigrationController::RequestGuard guard_;
    MigrationController::MultiStepGuard multistep_guard_;
    /// Captured after the gates; refreshed at the start of each statement.
    MigrationController::Views views_;
  };

  /// --- DDL -------------------------------------------------------------

  Status CreateTable(TableSchema schema);
  Status CreateIndex(const std::string& table, const std::string& index_name,
                     const std::vector<std::string>& columns, bool unique,
                     IndexKind kind = IndexKind::kHash);

  /// --- bulk load (non-transactional; initial population) ---------------

  Status BulkInsert(const std::string& table, const std::vector<Tuple>& rows);

  /// --- sessions ----------------------------------------------------------

  /// Starts a transaction. `tables` lists every table the transaction may
  /// touch, so the right gates are held for its duration.
  Session BeginSession(std::vector<std::string> tables);
  Status Commit(Session* session);
  Status Abort(Session* session);

  /// --- DML (§2.1 request path: migrate first, then run) ----------------

  /// Returns rows matching `pred` (nullptr = all) as of a statement
  /// snapshot taken after the lazy pull, without row locks (index-probe
  /// caveat: see CollectWhereAt). With `for_update`, the latest matching
  /// rows are X-locked for the rest of the session.
  Result<std::vector<std::pair<RowId, Tuple>>> Select(
      Session* session, const std::string& table, const ExprPtr& pred,
      bool for_update = false);

  Status Insert(Session* session, const std::string& table, const Tuple& row);

  /// Applies `updater` to every row matching `pred` under X locks.
  /// Returns the number of rows updated.
  Result<uint64_t> Update(Session* session, const std::string& table,
                          const ExprPtr& pred,
                          const std::function<Tuple(const Tuple&)>& updater);

  /// Deletes rows matching `pred`; returns the count.
  Result<uint64_t> Delete(Session* session, const std::string& table,
                          const ExprPtr& pred);

  /// --- schema migration -------------------------------------------------

  Status SubmitMigration(MigrationPlan plan,
                         const MigrationController::SubmitOptions& options);

  /// --- component access ---------------------------------------------------

  Catalog& catalog() { return catalog_; }
  TransactionManager& txns() { return txns_; }
  MigrationController& controller() { return controller_; }
  obs::MetricsRegistry& metrics() { return metrics_; }
  obs::MigrationTracer& tracer() { return tracer_; }
  mvcc::VersionGC& version_gc() { return *version_gc_; }

  /// Always true: kept only because perfbench/ycsb_zipf.cc still calls it.
  bool snapshot_reads() const { return true; }

  /// --- request tracing ---------------------------------------------------

  /// 1-in-N statement sampler consulted by roots that own statements on
  /// this database (SqlEngine, the bench fixture). Seeded from
  /// BF_TRACE_SAMPLE; 0 disables sampling.
  obs::TraceSampler& trace_sampler() { return trace_sampler_; }
  /// Finished traces land here (ADMIN profile / slowlog).
  obs::ProfileStore& profiles() { return profiles_; }

  /// Starts the in-process timeseries sampler with this database's
  /// default sources (txn commits, migration progress/activity, units
  /// migrated). Idempotent; `interval_ms` <= 0 reads BF_TIMESERIES_MS
  /// (default 100).
  void StartTimeseries(int64_t interval_ms = 0);
  /// Null until StartTimeseries() ran.
  obs::TimeseriesSampler* timeseries() { return timeseries_.get(); }

 private:
  /// Brings the session's views up to date (one acquire load each) and
  /// returns them.
  const MigrationController::Views& ViewsFor(Session* session) {
    controller_.Refresh(&session->views_);
    return session->views_;
  }

  /// Declared first so every subsystem below can hold handles into them
  /// for its whole lifetime (destroyed last).
  obs::MetricsRegistry metrics_;
  obs::MigrationTracer tracer_;
  obs::TraceSampler trace_sampler_;
  obs::ProfileStore profiles_;

  Catalog catalog_;
  TransactionManager txns_;
  MigrationController controller_;
  // Declared after catalog_/txns_ (its sweeper walks tables against the
  // snapshot watermark) so it is joined before they are destroyed.
  std::unique_ptr<mvcc::VersionGC> version_gc_;

  // Declared last: the sampler's background thread reads txns_ and
  // controller_ through its source callbacks, so it must be joined
  // (destroyed) before they go away.
  std::mutex timeseries_mu_;  // Guards StartTimeseries idempotence.
  std::unique_ptr<obs::TimeseriesSampler> timeseries_;
};

}  // namespace bullfrog

#endif  // BULLFROG_BULLFROG_DATABASE_H_
