#include "migration/statement_migrator.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <unordered_set>
#include <vector>

#include "common/clock.h"
#include "migration/bitmap_tracker.h"
#include "migration/hash_tracker.h"
#include "obs/request_trace.h"
#include "query/scan.h"

namespace bullfrog {

Status StatementMigrator::MigrateForPredicate(const ExprPtr& new_schema_pred) {
  if (tracer_ != nullptr &&
      !first_pull_traced_.exchange(true, std::memory_order_relaxed)) {
    tracer_->Record(obs::TraceEventKind::kFirstLazyPull, trace_name_,
                    "statement output=" + (stmt_.output_tables.empty()
                                               ? std::string("?")
                                               : stmt_.output_tables[0]));
  }
  // §2.1: convert the filters over the new schema into filters over the
  // old tables. Unpushable conjuncts are dropped — the candidate set stays
  // a superset of what the request needs.
  RewrittenPredicates preds =
      RewritePredicate(new_schema_pred, stmt_.provenance, stmt_.input_tables);
  return MigrateCandidates(preds);
}

namespace {

/// Deduplicating accumulator for candidate unit keys.
using TupleSet = std::unordered_set<Tuple, TupleHasher>;
using RowFn = std::function<void(RowId, const Tuple&)>;

/// A unit's key in its kMigrationMark redo record: the granule index for
/// the bitmap, the group key itself for the hashmap.
Tuple MarkKey(uint64_t granule) {
  return Tuple{Value::Int(static_cast<int64_t>(granule))};
}
const Tuple& MarkKey(const Tuple& key) { return key; }

/// What every unit kind shares: table resolution, the single output-insert
/// path, and the Algorithm 1 driver. `boundaries[i]` freezes input i's
/// domain: rows with rid >= boundary (inserted after the logical switch,
/// only possible when the input stays active) are not migrated.
class LazyMigrator : public StatementMigrator {
 protected:
  LazyMigrator(Catalog* catalog, TransactionManager* txns,
               MigrationStatement stmt, LazyConfig config,
               std::vector<uint64_t> boundaries)
      : StatementMigrator(catalog, txns, std::move(stmt), config),
        boundaries_(std::move(boundaries)) {}

  /// One migration transaction, with the statement's tables resolved
  /// once for it (inputs stay readable while retired).
  struct Batch {
    Transaction* txn = nullptr;
    std::vector<Table*> inputs;
    std::vector<Table*> outputs;
  };

  Result<Table*> InputTable(size_t input) const {
    return catalog_->RequireReadable(stmt_.input_tables[input]);
  }

  /// Indexes of `columns` in input `input`; unresolvable names are skipped.
  std::vector<size_t> InputColumns(
      size_t input, const std::vector<std::string>& columns) const {
    std::vector<size_t> out;
    auto table = InputTable(input);
    if (!table.ok()) return out;
    for (const std::string& c : columns) {
      if (auto idx = (*table)->schema().ColumnIndex(c)) out.push_back(*idx);
    }
    return out;
  }

  /// The join column of input `input` (0 = left, 1 = right) as a key.
  std::vector<size_t> JoinColumn(size_t input) const {
    return InputColumns(input, {input == 0 ? stmt_.left_join_column
                                           : stmt_.right_join_column});
  }

  /// Calls `add` for every row of input `input` below its boundary that
  /// matches `pred` (the candidate-unit scan).
  Status ScanInput(size_t input, const ExprPtr& pred, const RowFn& add) const {
    BF_ASSIGN_OR_RETURN(Table * table, InputTable(input));
    const uint64_t boundary = boundaries_[input];
    auto scan = ScanWhere(*table, pred, [&](RowId rid, const Tuple& row) {
      if (rid < boundary) add(rid, row);
      return true;
    });
    return scan.status();
  }

  /// The one output-insert path: checks each target row's constraints
  /// (§4.5), inserts it under the configured duplicate detection, and
  /// counts discarded duplicates and emitted rows.
  Status Emit(const Batch& batch, Result<std::vector<TargetRow>> targets) {
    BF_RETURN_NOT_OK(targets.status());
    const OnConflict policy =
        config_.duplicate_detection == DuplicateDetection::kOnConflictClause
            ? OnConflict::kDoNothing
            : OnConflict::kError;
    for (const TargetRow& t : *targets) {
      const size_t out = t.output_index;
      if (config_.constraint_hook) {
        BF_RETURN_NOT_OK(
            config_.constraint_hook(stmt_.output_tables[out], t.row));
      }
      BF_ASSIGN_OR_RETURN(
          InsertOutcome outcome,
          txns_->Insert(batch.txn, batch.outputs[out], t.row, policy));
      if (!outcome.inserted) {
        stats_.duplicate_inserts_discarded.fetch_add(1,
                                                     std::memory_order_relaxed);
      }
    }
    stats_.rows_emitted.fetch_add(targets->size(), std::memory_order_relaxed);
    return Status::OK();
  }

  /// Algorithm 1 for either tracker: BitmapTracker over uint64_t granules,
  /// HashTracker over Tuple keys (Algorithm 2 or 3 inside TryAcquire).
  /// `body(batch, unit)` migrates one unit inside the batch's transaction.
  /// `wait_for_skipped` false = background mode: never block on units
  /// other workers own.
  template <typename Tracker, typename Unit, typename Body>
  Status RunAlgorithm1(Tracker& tracker, std::vector<Unit> units,
                       bool wait_for_skipped, const Body& body);

  const std::vector<uint64_t> boundaries_;

 private:
  Result<Batch> OpenBatch(Transaction* txn) const {
    Batch batch{txn, {}, {}};
    for (const std::string& name : stmt_.input_tables) {
      BF_ASSIGN_OR_RETURN(Table * t, catalog_->RequireReadable(name));
      batch.inputs.push_back(t);
    }
    for (const std::string& name : stmt_.output_tables) {
      BF_ASSIGN_OR_RETURN(Table * t, catalog_->RequireActive(name));
      batch.outputs.push_back(t);
    }
    return batch;
  }

  /// Bumps units_migrated plus the matching attribution bucket (see
  /// MigrationStats): `forced` = §3.7 ForceMigrated path, otherwise
  /// `wait_for_skipped` distinguishes the lazy client path (true) from
  /// the background sweep (false).
  void CountUnits(size_t n, bool wait_for_skipped, bool forced) {
    stats_.units_migrated.fetch_add(n, std::memory_order_relaxed);
    std::atomic<uint64_t>& bucket =
        forced ? stats_.units_forced
               : (wait_for_skipped ? stats_.units_lazy
                                   : stats_.units_background);
    bucket.fetch_add(n, std::memory_order_relaxed);
    // Request tracing: the pulling thread's trace (if any) counts the
    // units; the layer that owns the request clock adds the time
    // (Database::TracedPrepare). Background threads carry no trace, so
    // only client-path pulls are attributed.
    obs::TraceAddStage(obs::Stage::kMigratePull, 0, n);
  }

  /// Sleeps one skip-recheck tick while units this request needs are
  /// claimed by another migrator (usually the background sweep),
  /// attributing the time to the requester's trace as migrate_wait.
  void SkipRecheckSleep() {
    int64_t t0 = Clock::NowNanos();
    Clock::SleepMicros(config_.skip_recheck_us);
    obs::TraceAddStage(obs::Stage::kMigrateWait, Clock::NowNanos() - t0, 1);
  }
};

template <typename Tracker, typename Unit, typename Body>
Status LazyMigrator::RunAlgorithm1(Tracker& tracker, std::vector<Unit> units,
                                   bool wait_for_skipped, const Body& body) {
  const bool tracking = config_.maintain_tracker;
  // Migrates `batch` inside `txn`, logging each unit's mark (§3.5
  // recovery and replication re-apply it) when tracking.
  auto migrate = [&](Transaction* txn, const std::vector<Unit>& batch) {
    BF_ASSIGN_OR_RETURN(Batch b, OpenBatch(txn));
    for (const Unit& u : batch) {
      BF_RETURN_NOT_OK(body(b, u));
      if (tracking) txns_->LogMigrationMark(txn, tracker.id(), MarkKey(u));
    }
    return Status::OK();
  };
  // After a failed attempt: aborts the transaction if the commit did not,
  // and says whether to retry.
  int attempts = 0;
  auto retry = [&](Transaction* txn, const Status& s) {
    if (txn->state() == TxnState::kActive) (void)txns_->Abort(txn);
    stats_.txn_aborts.fetch_add(1, std::memory_order_relaxed);
    if (!s.IsRetryable() || attempts >= config_.retry_limit) return false;
    ++attempts;
    stats_.txn_retries.fetch_add(1, std::memory_order_relaxed);
    return true;
  };

  // The blind path: the Fig 9 ablation (no tracker — the workload
  // guarantees exactly-once coverage) and §3.7 ON CONFLICT mode (no lock
  // bits — the output tables' unique indexes discard duplicates at insert
  // time). ON CONFLICT still sets the migrate bits on commit, so later
  // requests skip the units.
  if (!tracking ||
      config_.duplicate_detection == DuplicateDetection::kOnConflictClause) {
    if (tracking) {
      std::erase_if(units, [&](const Unit& u) {
        if (!tracker.IsMigrated(u)) return false;
        stats_.already_migrated_hits.fetch_add(1, std::memory_order_relaxed);
        return true;
      });
    }
    if (units.empty()) return Status::OK();
    while (true) {
      auto txn = txns_->Begin();
      if (tracking) {
        txn->OnCommit([&tracker, units] {
          for (const Unit& u : units) tracker.ForceMigrated(u);
        });
      }
      Status s = migrate(txn.get(), units);
      if (s.ok()) s = txns_->Commit(txn.get());
      if (s.ok()) {
        CountUnits(units.size(), wait_for_skipped, /*forced=*/tracking);
        return Status::OK();
      }
      if (!retry(txn.get(), s)) return s;
    }
  }

  std::optional<Stopwatch> waited;  // Started at the first SKIP wait.
  std::vector<Unit> pending = std::move(units);
  while (!pending.empty()) {
    std::vector<Unit> wip;
    std::vector<Unit> skip;
    for (Unit& u : pending) {
      switch (tracker.TryAcquire(u)) {
        case AcquireResult::kAcquired:
          wip.push_back(std::move(u));
          break;
        case AcquireResult::kInProgress:
          skip.push_back(std::move(u));
          stats_.skip_encounters.fetch_add(1, std::memory_order_relaxed);
          break;
        case AcquireResult::kAlreadyMigrated:
          stats_.already_migrated_hits.fetch_add(1,
                                                 std::memory_order_relaxed);
          break;
      }
    }

    if (!wip.empty()) {
      auto txn = txns_->Begin();
      // §3.5: if this migration transaction aborts, reset every WIP unit
      // so waiting workers can take over.
      txn->OnAbort([&tracker, wip] {
        for (const Unit& u : wip) tracker.ResetAborted(u);
      });
      // Algorithm 1 line 9: after the transaction ends, flip WIP units to
      // migrated.
      txn->OnCommit([&tracker, wip] {
        for (const Unit& u : wip) tracker.MarkMigrated(u);
      });
      Status s = migrate(txn.get(), wip);
      if (s.ok()) s = txns_->Commit(txn.get());
      if (s.ok()) {
        CountUnits(wip.size(), wait_for_skipped, /*forced=*/false);
      } else if (retry(txn.get(), s)) {
        // The abort hook reset the WIP units; retry them together with
        // the skipped ones.
        for (Unit& u : wip) skip.push_back(std::move(u));
      } else {
        return s;
      }
    }

    // Algorithm 1 line 10: re-check skipped units until they are migrated
    // by their owners (or the owners abort and we take over).
    if (skip.empty() || !wait_for_skipped) break;
    pending.clear();
    for (Unit& u : skip) {
      if (!tracker.IsMigrated(u)) pending.push_back(std::move(u));
    }
    if (pending.empty()) break;
    stats_.skip_wait_loops.fetch_add(1, std::memory_order_relaxed);
    if (!waited) waited.emplace();
    if (config_.wait_on_skip && config_.skip_recheck_us > 0) {
      SkipRecheckSleep();
    }
    if (waited->ElapsedMillis() > config_.skip_timeout_ms) {
      return Status::TimedOut("skipped units not migrated in time in '" +
                              stmt_.name + "'");
    }
  }
  return Status::OK();
}

/// Bitmap units (§3.3): granules of `granularity` consecutive rids of one
/// tracked input. Per category, a subclass derives candidate granules and
/// migrates one tracked row.
class BitmapMigrator : public LazyMigrator {
 public:
  BitmapMigrator(Catalog* catalog, TransactionManager* txns,
                 MigrationStatement stmt, LazyConfig config,
                 std::vector<uint64_t> boundaries, size_t tracked_input)
      : LazyMigrator(catalog, txns, std::move(stmt), config,
                     std::move(boundaries)),
        tracked_input_(tracked_input),
        tracker_("bitmap:" + stmt_.name, boundaries_[tracked_input],
                 config_.granularity) {}

  Result<uint64_t> MigrateBackgroundChunk(uint64_t max_units,
                                          bool* done) override {
    *done = false;
    if (!config_.maintain_tracker) {
      return Status::Unsupported(
          "background migration requires tracking data structures");
    }
    std::vector<uint64_t> batch;
    uint64_t g = sweep_pos_.load(std::memory_order_acquire);
    while (batch.size() < max_units) {
      g = tracker_.NextUnmigrated(g, /*include_locked=*/false);
      if (g >= tracker_.num_granules()) break;
      batch.push_back(g++);
    }
    sweep_pos_.store(g, std::memory_order_release);
    if (batch.empty()) {
      // Unless done, another pass: leftover units were in progress (or
      // aborted) when we swept past them.
      *done = tracker_.AllMigrated();
      if (!*done) sweep_pos_.store(0, std::memory_order_release);
      return uint64_t{0};
    }
    const auto n = static_cast<uint64_t>(batch.size());
    BF_RETURN_NOT_OK(
        MigrateGranules(std::move(batch), /*wait_for_skipped=*/false));
    *done = tracker_.AllMigrated();
    return n;
  }

  bool IsComplete() const override {
    return config_.maintain_tracker && tracker_.AllMigrated();
  }
  MigrationTracker* tracker() override { return &tracker_; }
  double Progress() const override {
    if (tracker_.num_granules() == 0) return 1.0;
    return static_cast<double>(tracker_.MigratedCount()) /
           static_cast<double>(tracker_.num_granules());
  }

 protected:
  /// Migrates one tracked input row inside `batch`.
  virtual Status MigrateRow(const Batch& batch, const Tuple& row) = 0;

  Status MigrateGranules(std::vector<uint64_t> granules,
                         bool wait_for_skipped) {
    return RunAlgorithm1(
        tracker_, std::move(granules), wait_for_skipped,
        [this](const Batch& batch, uint64_t g) {
          const Table& input = *batch.inputs[tracked_input_];
          for (RowId rid = tracker_.GranuleBegin(g);
               rid < tracker_.GranuleEnd(g); ++rid) {
            Tuple row;
            if (!input.Read(rid, &row).ok()) continue;  // Tombstone.
            BF_RETURN_NOT_OK(MigrateRow(batch, row));
            stats_.rows_migrated.fetch_add(1, std::memory_order_relaxed);
          }
          return Status::OK();
        });
  }

  /// Candidate granules, deduplicated.
  using GranuleSet = std::unordered_set<uint64_t>;
  /// A candidate-scan callback adding each tracked row's granule.
  RowFn AddGranuleTo(GranuleSet* granules) const {
    return [this, granules](RowId rid, const Tuple&) {
      granules->insert(tracker_.GranuleOf(rid));
    };
  }
  /// Client path: runs Algorithm 1 on the candidate granules.
  Status MigrateCandidateGranules(const GranuleSet& granules) {
    return MigrateGranules({granules.begin(), granules.end()},
                           /*wait_for_skipped=*/true);
  }

  const size_t tracked_input_;
  BitmapTracker tracker_;

 private:
  std::atomic<uint64_t> sweep_pos_{0};
};

/// Hashmap units (§3.4): n:1 GROUP BY keys, or join-key classes of joins
/// under kHashJoinKey (§3.6 option 3, the general n:n scheme). A unit's
/// rows in input i are those whose `key_columns_[i]` equal its key; its
/// target rows come from UnitTargets.
class HashMigrator final : public LazyMigrator {
 public:
  HashMigrator(Catalog* catalog, TransactionManager* txns,
               MigrationStatement stmt, LazyConfig config,
               std::vector<uint64_t> boundaries)
      : LazyMigrator(catalog, txns, std::move(stmt), config,
                     std::move(boundaries)),
        tracker_("hashmap:" + stmt_.name) {
    if (stmt_.IsJoin()) {
      key_columns_ = {JoinColumn(0), JoinColumn(1)};
    } else {
      key_columns_ = {InputColumns(0, stmt_.group_key_columns)};
    }
  }

  Result<uint64_t> MigrateBackgroundChunk(uint64_t max_units,
                                          bool* done) override {
    *done = sweep_done_.load(std::memory_order_acquire);
    if (*done) return uint64_t{0};
    if (!config_.maintain_tracker) {
      return Status::Unsupported(
          "background migration requires tracking data structures");
    }
    BF_ASSIGN_OR_RETURN(Table * input, InputTable(0));
    const uint64_t boundary = boundaries_[0];

    // Claim a scan window. Multiple background threads each claim disjoint
    // windows; pass-completion bookkeeping runs under the same claim.
    static constexpr uint64_t kScanWindow = 4096;
    const uint64_t start =
        sweep_pos_.fetch_add(kScanWindow, std::memory_order_acq_rel);
    if (start >= boundary) {
      // A pass is over. If the pass found nothing unmigrated and a full
      // clean scan confirms it, we are done; otherwise start another pass.
      if (!found_in_pass_.exchange(false, std::memory_order_acq_rel)) {
        bool all = true;
        input->ScanRange(0, boundary, [&](RowId, const Tuple& row) {
          all = tracker_.IsMigrated(KeyOf(row, key_columns_[0]));
          return all;
        });
        if (all) {
          sweep_done_.store(true, std::memory_order_release);
          *done = true;
          return uint64_t{0};
        }
      }
      sweep_pos_.store(0, std::memory_order_release);
      return uint64_t{0};
    }

    TupleSet keys;
    const uint64_t end = std::min<uint64_t>(start + kScanWindow, boundary);
    input->ScanRange(start, end, [&](RowId, const Tuple& row) {
      Tuple key = KeyOf(row, key_columns_[0]);
      if (!tracker_.IsMigrated(key)) keys.insert(std::move(key));
      return keys.size() < max_units;
    });
    if (keys.empty()) return uint64_t{0};
    found_in_pass_.store(true, std::memory_order_release);
    const auto n = static_cast<uint64_t>(keys.size());
    BF_RETURN_NOT_OK(MigrateKeys({keys.begin(), keys.end()},
                                 /*wait_for_skipped=*/false));
    return n;
  }

  bool IsComplete() const override {
    return sweep_done_.load(std::memory_order_acquire);
  }
  MigrationTracker* tracker() override { return &tracker_; }
  double Progress() const override {
    if (IsComplete() || boundaries_[0] == 0) return 1.0;
    const uint64_t pos = sweep_pos_.load(std::memory_order_acquire);
    return std::min(1.0, static_cast<double>(pos) /
                             static_cast<double>(boundaries_[0]));
  }

 protected:
  Status MigrateCandidates(const RewrittenPredicates& preds) override {
    // A join class is relevant only if it has BOTH left rows matching the
    // left-pushed filters and right rows matching the right-pushed ones,
    // so either side's matching classes form a valid superset. Use the
    // left (output-determining) side whenever it has a filter — its
    // candidate sets are much tighter for typical requests (e.g. a
    // quantity filter on the right side alone would select thousands of
    // classes). With no pushable filter at all, every class containing
    // left rows is a candidate (§2.4 worst case).
    const ExprPtr& left_pred = preds.per_table.at(stmt_.input_tables[0]);
    if (stmt_.IsJoin() && left_pred == nullptr) {
      const ExprPtr& right_pred = preds.per_table.at(stmt_.input_tables[1]);
      if (right_pred != nullptr) return MigrateKeysOf(1, right_pred);
    }
    return MigrateKeysOf(0, left_pred);
  }

 private:
  Status MigrateKeys(std::vector<Tuple> keys, bool wait_for_skipped) {
    return RunAlgorithm1(
        tracker_, std::move(keys), wait_for_skipped,
        [this](const Batch& batch, const Tuple& key) {
          uint64_t rows_read = 0;
          BF_RETURN_NOT_OK(Emit(
              batch, UnitTargets(
                         stmt_,
                         [&](size_t i, const Tuple& k, const RowFn& fn) {
                           ForEachRowWithKey(*batch.inputs[i],
                                             key_columns_[i], k,
                                             boundaries_[i], fn);
                         },
                         key, &rows_read)));
          stats_.rows_migrated.fetch_add(rows_read, std::memory_order_relaxed);
          return Status::OK();
        });
  }

  /// Client path: migrates the keys of the rows of input `input` that
  /// match `pred`.
  Status MigrateKeysOf(size_t input, const ExprPtr& pred) {
    TupleSet keys;
    BF_RETURN_NOT_OK(ScanInput(input, pred, [&](RowId, const Tuple& row) {
      keys.insert(KeyOf(row, key_columns_[input]));
    }));
    return MigrateKeys({keys.begin(), keys.end()}, /*wait_for_skipped=*/true);
  }

  std::vector<std::vector<size_t>> key_columns_;
  HashTracker tracker_;
  std::atomic<uint64_t> sweep_pos_{0};
  std::atomic<bool> sweep_done_{false};
  std::atomic<bool> found_in_pass_{false};
};

/// 1:1 / 1:n projection statements (§3.3): one bitmap over the input.
class ProjectionMigrator final : public BitmapMigrator {
 public:
  using BitmapMigrator::BitmapMigrator;

 protected:
  Status MigrateCandidates(const RewrittenPredicates& preds) override {
    GranuleSet granules;
    BF_RETURN_NOT_OK(ScanInput(0, preds.per_table.at(stmt_.input_tables[0]),
                               AddGranuleTo(&granules)));
    return MigrateCandidateGranules(granules);
  }

  Status MigrateRow(const Batch& batch, const Tuple& row) override {
    return Emit(batch, stmt_.row_transform(row));
  }
};

/// Joins under a bitmap policy (§3.6): kTrackForeignSideOnly tracks the
/// left (FKIT) rows, kMigrateAllSiblings the right (PKIT) rows; a tracked
/// row migrates together with every matching row of the other side.
class JoinRowMigrator final : public BitmapMigrator {
 public:
  JoinRowMigrator(Catalog* catalog, TransactionManager* txns,
                  MigrationStatement stmt, LazyConfig config,
                  std::vector<uint64_t> boundaries, size_t tracked_input)
      : BitmapMigrator(catalog, txns, std::move(stmt), config,
                       std::move(boundaries), tracked_input),
        other_input_(1 - tracked_input),
        tracked_key_(JoinColumn(tracked_input)),
        other_key_(JoinColumn(other_input_)) {}

 protected:
  Status MigrateCandidates(const RewrittenPredicates& preds) override {
    const ExprPtr& tracked_pred =
        preds.per_table.at(stmt_.input_tables[tracked_input_]);
    const ExprPtr& other_pred =
        preds.per_table.at(stmt_.input_tables[other_input_]);
    GranuleSet granules;
    if (other_pred == nullptr || tracked_pred != nullptr) {
      BF_RETURN_NOT_OK(
          ScanInput(tracked_input_, tracked_pred, AddGranuleTo(&granules)));
      return MigrateCandidateGranules(granules);
    }
    // A filter pushed only to the untracked side narrows via the join key:
    // find matching untracked rows, then the tracked rows sharing their key.
    TupleSet keys;
    BF_RETURN_NOT_OK(ScanInput(other_input_, other_pred,
                               [&](RowId, const Tuple& row) {
                                 keys.insert(KeyOf(row, other_key_));
                               }));
    BF_ASSIGN_OR_RETURN(Table * tracked, InputTable(tracked_input_));
    for (const Tuple& key : keys) {
      ForEachRowWithKey(*tracked, tracked_key_, key,
                        boundaries_[tracked_input_], AddGranuleTo(&granules));
    }
    return MigrateCandidateGranules(granules);
  }

  Status MigrateRow(const Batch& batch, const Tuple& row) override {
    std::vector<Tuple> matches;
    ForEachRowWithKey(*batch.inputs[other_input_], other_key_,
                      KeyOf(row, tracked_key_), boundaries_[other_input_],
                      [&](RowId, const Tuple& m) { matches.push_back(m); });
    for (const Tuple& m : matches) {
      BF_RETURN_NOT_OK(Emit(batch, tracked_input_ == 0
                                       ? stmt_.join_transform(row, m)
                                       : stmt_.join_transform(m, row)));
    }
    return Status::OK();
  }

 private:
  const size_t other_input_;
  const std::vector<size_t> tracked_key_;
  const std::vector<size_t> other_key_;
};

}  // namespace

Result<std::vector<TargetRow>> UnitTargets(const MigrationStatement& stmt,
                                           const UnitRows& rows,
                                           const Tuple& key,
                                           uint64_t* rows_read) {
  auto collect = [&](size_t input) {
    std::vector<Tuple> out;
    rows(input, key, [&](RowId, const Tuple& row) { out.push_back(row); });
    return out;
  };
  const std::vector<Tuple> lefts = collect(0);
  *rows_read += lefts.size();
  if (stmt.IsAggregate()) {
    if (lefts.empty()) return std::vector<TargetRow>{};
    return stmt.group_transform(key, lefts);
  }
  const std::vector<Tuple> rights = collect(1);
  std::vector<TargetRow> targets;
  for (const Tuple& l : lefts) {
    for (const Tuple& r : rights) {
      BF_ASSIGN_OR_RETURN(std::vector<TargetRow> pair,
                          stmt.join_transform(l, r));
      for (TargetRow& t : pair) targets.push_back(std::move(t));
    }
  }
  return targets;
}

Result<std::unique_ptr<StatementMigrator>> MakeStatementMigrator(
    Catalog* catalog, TransactionManager* txns, MigrationStatement stmt,
    const LazyConfig& config) {
  if (stmt.input_tables.empty() || stmt.output_tables.empty()) {
    return Status::InvalidArgument("statement '" + stmt.name +
                                   "' needs input and output tables");
  }
  if (stmt.IsJoin() && stmt.input_tables.size() != 2) {
    return Status::InvalidArgument("join statement '" + stmt.name +
                                   "' needs exactly two input tables");
  }
  if (!stmt.IsJoin() && !stmt.IsAggregate() && !stmt.IsProjection()) {
    return Status::InvalidArgument("statement '" + stmt.name +
                                   "' has no transform");
  }
  std::vector<uint64_t> boundaries;
  for (const std::string& name : stmt.input_tables) {
    BF_ASSIGN_OR_RETURN(Table * t, catalog->RequireReadable(name));
    boundaries.push_back(t->NumAllocatedRows());
  }
  if (stmt.IsAggregate() ||
      (stmt.IsJoin() && stmt.join_policy == JoinPolicy::kHashJoinKey)) {
    return std::unique_ptr<StatementMigrator>(new HashMigrator(
        catalog, txns, std::move(stmt), config, std::move(boundaries)));
  }
  if (stmt.IsJoin()) {
    const size_t tracked =
        stmt.join_policy == JoinPolicy::kMigrateAllSiblings ? 1 : 0;
    return std::unique_ptr<StatementMigrator>(
        new JoinRowMigrator(catalog, txns, std::move(stmt), config,
                            std::move(boundaries), tracked));
  }
  return std::unique_ptr<StatementMigrator>(new ProjectionMigrator(
      catalog, txns, std::move(stmt), config, std::move(boundaries),
      /*tracked_input=*/0));
}

}  // namespace bullfrog
