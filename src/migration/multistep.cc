#include "migration/multistep.h"

#include <algorithm>
#include <mutex>
#include <optional>
#include <unordered_set>

#include "common/clock.h"
#include "migration/statement_migrator.h"
#include "migration/upsert.h"
#include "query/scan.h"

namespace bullfrog {

namespace {

using RowFn = std::function<void(RowId, const Tuple&)>;

}  // namespace

MultiStepCopier::MultiStepCopier(Catalog* catalog, TransactionManager* txns,
                                 const MigrationPlan* plan, Options options,
                                 std::function<Status()> cutover)
    : txns_(txns), options_(options), cutover_(std::move(cutover)) {
  for (const MigrationStatement& stmt : plan->statements) {
    auto state = std::make_unique<StmtState>();
    state->stmt = &stmt;
    for (const std::string& name : stmt.input_tables) {
      state->inputs.push_back(catalog->FindTable(name));
    }
    for (const std::string& name : stmt.output_tables) {
      state->outputs.push_back(catalog->FindTable(name));
    }
    auto columns = [&](size_t input, const std::vector<std::string>& names) {
      std::vector<size_t> out;
      for (const std::string& c : names) {
        auto idx = state->inputs[input]->schema().ColumnIndex(c);
        if (idx) out.push_back(*idx);
      }
      return out;
    };
    if (stmt.IsAggregate()) {
      state->key_columns = {columns(0, stmt.group_key_columns)};
    }
    if (stmt.IsJoin()) {
      state->key_columns = {columns(0, {stmt.left_join_column}),
                            columns(1, {stmt.right_join_column})};
    }
    if (stmt.IsAggregate() || stmt.IsJoin()) {
      state->copied = std::make_unique<HashTracker>("copied:" + stmt.name);
      state->unit_locks = std::make_unique<StripedLatch<SpinLatch>>(256);
    }
    states_.push_back(std::move(state));
  }
}

MultiStepCopier::~MultiStepCopier() { Stop(); }

void MultiStepCopier::Start() {
  if (launched_.exchange(true)) return;
  const int n = std::max(1, options_.threads);
  threads_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) threads_.emplace_back([this] { Run(); });
}

void MultiStepCopier::Stop() {
  stop_.store(true, std::memory_order_release);
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
}

double MultiStepCopier::Progress() const {
  if (switched_.load(std::memory_order_acquire)) return 1.0;
  double total = 0;
  for (const auto& state : states_) {
    const uint64_t n = state->inputs[0]->NumAllocatedRows();
    const uint64_t w = state->watermark.load(std::memory_order_acquire);
    total += n == 0 ? 1.0 : std::min(1.0, static_cast<double>(w) /
                                              static_cast<double>(n));
  }
  return states_.empty() ? 1.0 : total / static_cast<double>(states_.size());
}

void MultiStepCopier::Run() {
  while (!stop_.load(std::memory_order_acquire) &&
         !switched_.load(std::memory_order_acquire)) {
    bool all_done = true;
    bool progress = false;
    for (auto& state : states_) {
      if (stop_.load(std::memory_order_acquire)) return;
      bool made = false;
      Status s = CopyBatch(state.get(), &made);
      (void)s;  // Transient failures are retried on the next pass.
      progress |= made;
      if (state->watermark.load(std::memory_order_acquire) <
          state->inputs[0]->NumAllocatedRows()) {
        all_done = false;
      }
    }
    if (all_done) {
      Status s = TryCutover();
      if (s.ok() && switched_.load(std::memory_order_acquire)) return;
    }
    // pause_us paces the copier (per pass), so the background copy does
    // not starve foreground transactions; idle loops always back off.
    if (options_.pause_us > 0) {
      Clock::SleepMicros(options_.pause_us);
    } else if (!progress) {
      Clock::SleepMicros(100);
    }
  }
}

Status MultiStepCopier::CopyBatch(StmtState* state, bool* made_progress) {
  *made_progress = false;
  const uint64_t allocated = state->inputs[0]->NumAllocatedRows();
  // Register as in-flight before claiming: once the watermark reaches the
  // end of the input, cutover only waits on this counter to know every
  // claimed batch has actually been copied.
  inflight_batches_.fetch_add(1, std::memory_order_acq_rel);
  const uint64_t begin =
      state->watermark.fetch_add(options_.batch, std::memory_order_acq_rel);
  if (begin >= allocated) {
    // Nothing claimed; pull the watermark back so Progress stays sane and
    // the tail (if rows appear) is re-claimed.
    state->watermark.store(std::min<uint64_t>(allocated, begin),
                           std::memory_order_release);
    inflight_batches_.fetch_sub(1, std::memory_order_release);
    return Status::OK();
  }
  const uint64_t end = std::min<uint64_t>(begin + options_.batch, allocated);
  *made_progress = true;
  // The claim is irrevocable (peers have advanced the watermark past it),
  // so a retryable failure — a wait-die collision with a dual write or a
  // peer batch — must be retried here; dropping it would silently lose
  // the claimed rows.
  Status s = CopyRange(state, begin, end);
  while (!s.ok() && s.IsRetryable() &&
         !stop_.load(std::memory_order_acquire)) {
    Clock::SleepMicros(100);
    s = CopyRange(state, begin, end);
  }
  inflight_batches_.fetch_sub(1, std::memory_order_release);
  return s;
}

Status MultiStepCopier::CopyRange(StmtState* state, RowId begin, RowId end) {
  const MigrationStatement& stmt = *state->stmt;
  const Table& input = *state->inputs[0];
  Status s = Status::OK();
  if (!stmt.IsProjection()) {
    input.ScanRange(begin, end, [&](RowId, const Tuple& row) {
      s = CopyUnit(state, KeyOf(row, state->key_columns[0]),
                   /*force=*/false);
      return s.ok();
    });
    return s;
  }
  // Each source row is read under its row lock, held until the derived
  // rows commit: a delete or key change that commits first is seen here,
  // and one that comes later propagates onto the derived rows.
  auto txn = txns_->Begin();
  const RowId limit = std::min<RowId>(end, input.NumAllocatedRows());
  for (RowId rid = begin; s.ok() && rid < limit; ++rid) {
    Tuple row;
    s = txns_->Read(txn.get(), state->inputs[0], rid, &row,
                    /*for_update=*/true);
    if (s.IsNotFound()) {  // Deleted, or a slot never filled.
      s = Status::OK();
      continue;
    }
    if (!s.ok()) break;
    auto targets = stmt.row_transform(row);
    s = targets.status();
    for (size_t i = 0; s.ok() && i < targets->size(); ++i) {
      const TargetRow& t = (*targets)[i];
      // Insert-if-absent: a dual write may have upserted this row already.
      s = txns_->Insert(txn.get(), state->outputs[t.output_index], t.row,
                        OnConflict::kDoNothing)
              .status();
    }
  }
  if (!s.ok()) {
    (void)txns_->Abort(txn.get());
    return s;
  }
  return txns_->Commit(txn.get());
}

Status MultiStepCopier::CopyUnit(StmtState* state, const Tuple& key,
                                 bool force, const Write* write) {
  std::lock_guard unit_lock(state->unit_locks->ForHash(key.Hash()));
  if (!force && state->copied->IsMigrated(key)) return Status::OK();
  // The unit over the *current* contents of the old tables: they stay
  // live, and propagation re-derives the unit whenever it changes.
  const UnitRows live = [&](size_t i, const Tuple& k, const RowFn& fn) {
    ForEachRowWithKey(*state->inputs[i], state->key_columns[i], k,
                      kInvalidRowId, fn);
  };
  uint64_t rows_read = 0;
  std::vector<TargetRow> before;
  if (write != nullptr) {
    // Its rows before the write: the live rows, with the after-image
    // swapped back for the before-image.
    BF_ASSIGN_OR_RETURN(
        before,
        UnitTargets(
            *state->stmt,
            [&](size_t i, const Tuple& k, const RowFn& fn) {
              const bool written = i == write->input;
              live(i, k, [&](RowId rid, const Tuple& row) {
                if (!written || rid != write->rid) fn(rid, row);
              });
              if (written && write->before != nullptr &&
                  KeyOf(*write->before, state->key_columns[i]) == k) {
                fn(write->rid, *write->before);
              }
            },
            key, &rows_read));
  }
  BF_ASSIGN_OR_RETURN(std::vector<TargetRow> after,
                      UnitTargets(*state->stmt, live, key, &rows_read));
  auto txn = txns_->Begin();
  Status s = WriteTargets(*state, txn.get(), before, after);
  if (!s.ok()) {
    (void)txns_->Abort(txn.get());
    return s;
  }
  BF_RETURN_NOT_OK(txns_->Commit(txn.get()));
  state->copied->ForceMigrated(key);
  return Status::OK();
}

Status MultiStepCopier::Propagate(Transaction* txn, const std::string& table,
                                  RowId rid, const Tuple* before,
                                  const Tuple* after) {
  for (auto& state : states_) {
    const MigrationStatement& stmt = *state->stmt;
    for (size_t i = 0; i < stmt.input_tables.size(); ++i) {
      if (stmt.input_tables[i] != table) continue;
      const Write write{i, rid, before, after};
      if (stmt.IsJoin()) {
        BF_RETURN_NOT_OK(PropagateJoin(state.get(), txn, write));
      } else if (stmt.IsAggregate()) {
        // Recompute each group the write touches from the live table;
        // forcing also covers rows the copier's watermark skipped past
        // before they existed.
        std::vector<Tuple> keys;
        for (const Tuple* image : {before, after}) {
          if (image == nullptr) continue;
          Tuple key = KeyOf(*image, state->key_columns[i]);
          if (keys.empty() || !(keys[0] == key)) keys.push_back(key);
        }
        for (const Tuple& key : keys) {
          BF_RETURN_NOT_OK(CopyUnit(state.get(), key, /*force=*/true, &write));
        }
      } else if (rid < state->watermark.load(std::memory_order_acquire)) {
        // A projection row propagates once the copier has claimed it; one
        // it has not reached yet is left to it, and it copies the row's
        // final state.
        auto targets = [&](const Tuple* image) {
          return image == nullptr
                     ? Result<std::vector<TargetRow>>(std::vector<TargetRow>{})
                     : stmt.row_transform(*image);
        };
        BF_ASSIGN_OR_RETURN(std::vector<TargetRow> old_rows, targets(before));
        BF_ASSIGN_OR_RETURN(std::vector<TargetRow> new_rows, targets(after));
        BF_RETURN_NOT_OK(WriteTargets(*state, txn, old_rows, new_rows));
      }
    }
  }
  return Status::OK();
}

Status MultiStepCopier::PropagateJoin(StmtState* state, Transaction* txn,
                                      const Write& w) {
  // A write to one input row changes only the pairs containing that row,
  // so re-derive just those (re-deriving the whole join-key class per
  // write would make the dual-write baseline quadratic). An image's pairs
  // count only once its class is copied; until then the copier picks the
  // class up from the live rows. The copier marks classes, not rows, so a
  // left row its sweep already passed gets its class copied here.
  const size_t other = 1 - w.input;
  std::optional<Tuple> others_key;
  std::vector<Tuple> others;  // Looked up once when both images share it.
  auto pairs_of = [&](const Tuple* image) -> Result<std::vector<TargetRow>> {
    if (image == nullptr) return std::vector<TargetRow>{};
    const Tuple key = KeyOf(*image, state->key_columns[w.input]);
    if (w.input == 0 &&
        w.rid < state->watermark.load(std::memory_order_acquire)) {
      BF_RETURN_NOT_OK(CopyUnit(state, key, /*force=*/false));
    }
    {
      std::lock_guard unit_lock(state->unit_locks->ForHash(key.Hash()));
      if (!state->copied->IsMigrated(key)) return std::vector<TargetRow>{};
    }
    if (!others_key || !(*others_key == key)) {
      others.clear();
      ForEachRowWithKey(
          *state->inputs[other], state->key_columns[other], key,
          kInvalidRowId,
          [&](RowId, const Tuple& row) { others.push_back(row); });
      others_key = key;
    }
    uint64_t rows_read = 0;
    return UnitTargets(
        *state->stmt,
        [&](size_t i, const Tuple&, const RowFn& fn) {
          if (i == w.input) {
            fn(w.rid, *image);
            return;
          }
          for (const Tuple& row : others) fn(kInvalidRowId, row);
        },
        key, &rows_read);
  };
  BF_ASSIGN_OR_RETURN(std::vector<TargetRow> before, pairs_of(w.before));
  BF_ASSIGN_OR_RETURN(std::vector<TargetRow> after, pairs_of(w.after));
  return WriteTargets(*state, txn, before, after);
}

Status MultiStepCopier::WriteTargets(const StmtState& state, Transaction* txn,
                                     const std::vector<TargetRow>& before,
                                     const std::vector<TargetRow>& after) {
  if (!before.empty()) {
    // The primary keys `after` produces, per output.
    std::vector<std::vector<size_t>> pks;
    for (Table* out : state.outputs) {
      pks.push_back(out->schema().PrimaryKeyIndices());
    }
    std::vector<std::unordered_set<Tuple, TupleHasher>> kept(pks.size());
    for (const TargetRow& t : after) {
      kept[t.output_index].insert(KeyOf(t.row, pks[t.output_index]));
    }
    for (const TargetRow& old : before) {
      const size_t out = old.output_index;
      if (kept[out].count(KeyOf(old.row, pks[out])) == 0) {
        BF_RETURN_NOT_OK(DeleteByPk(txns_, txn, state.outputs[out], old.row));
      }
    }
  }
  for (const TargetRow& t : after) {
    BF_RETURN_NOT_OK(
        UpsertByPk(txns_, txn, state.outputs[t.output_index], t.row));
  }
  return Status::OK();
}

Status MultiStepCopier::TryCutover() {
  std::lock_guard once(cutover_mu_);
  if (switched_.load(std::memory_order_acquire)) return Status::OK();
  std::unique_lock gate(write_gate_);
  // A finished watermark only proves the trailing batches were *claimed*;
  // wait for their copies to commit before trusting it. (Batch copies
  // never take the write gate or cutover_mu_, so this cannot deadlock.)
  while (inflight_batches_.load(std::memory_order_acquire) > 0) {
    Clock::SleepMicros(50);
  }
  // With writers quiesced, copy any tail that appeared after the
  // watermarks were declared done.
  for (auto& state : states_) {
    const uint64_t allocated = state->inputs[0]->NumAllocatedRows();
    const uint64_t w = state->watermark.load(std::memory_order_acquire);
    if (w < allocated) BF_RETURN_NOT_OK(CopyRange(state.get(), w, allocated));
    state->watermark.store(allocated, std::memory_order_release);
  }
  BF_RETURN_NOT_OK(cutover_());
  switched_.store(true, std::memory_order_release);
  return Status::OK();
}

}  // namespace bullfrog
