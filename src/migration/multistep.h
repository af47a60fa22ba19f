#ifndef BULLFROG_MIGRATION_MULTISTEP_H_
#define BULLFROG_MIGRATION_MULTISTEP_H_

#include <atomic>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "catalog/catalog.h"
#include "common/latch.h"
#include "common/status.h"
#include "migration/hash_tracker.h"
#include "migration/spec.h"
#include "txn/txn_manager.h"

namespace bullfrog {

/// The multi-step baseline of §4: "a schema change is registered with the
/// system ahead of time, and the system copies data into the new schema in
/// a background process. Reads are served from the old schema, while
/// writes go to both schemas."
///
/// The old schema stays active during the copy. Copier threads sweep each
/// statement's input table(s) by RowId watermark, deriving new-schema rows;
/// client writes to the input tables must be propagated through
/// Propagate(), which re-derives the affected new-schema rows when the
/// copier has already passed them (the "dual write"). This mirrors the
/// trigger/log-shipping propagation of the tools surveyed in §5 — and
/// reproduces their cost curve: as the copied fraction grows, an
/// increasing share of writes pay the double-write penalty, which is why
/// multi-step throughput decays through the migration (Fig 3).
///
/// When every watermark reaches the end of its input, the copier attempts
/// cutover: it takes `write_gate()` exclusively (writers hold it shared),
/// copies any tail that appeared meanwhile, invokes the cutover callback
/// (which retires the old tables), and reports SwitchedOver().
///
/// Known simplification: propagation recomputes affected units from the
/// live old tables without snapshotting, so a concurrent abort of the
/// originating client transaction can leave the shadow copy momentarily
/// ahead; the next propagation or the cutover tail pass reconciles it.
class MultiStepCopier {
 public:
  struct Options {
    int threads = 2;
    uint64_t batch = 512;
    int64_t pause_us = 100;
  };

  /// Every input and output table of `plan` must exist; they are resolved
  /// here, once. `cutover` runs exactly once, under the exclusive write
  /// gate, after the tail is copied. It should retire the old tables and
  /// flip the active schema. Returning an error aborts the cutover
  /// (retried later).
  MultiStepCopier(Catalog* catalog, TransactionManager* txns,
                  const MigrationPlan* plan, Options options,
                  std::function<Status()> cutover);
  ~MultiStepCopier();

  MultiStepCopier(const MultiStepCopier&) = delete;
  MultiStepCopier& operator=(const MultiStepCopier&) = delete;

  void Start();
  void Stop();

  bool SwitchedOver() const {
    return switched_.load(std::memory_order_acquire);
  }

  /// Fraction of the (initial) input rows the copier has passed.
  double Progress() const;

  /// Writers to old-schema input tables hold this shared for the duration
  /// of their transaction's writes; cutover takes it exclusively.
  WriterPriorityGate& write_gate() { return write_gate_; }

  /// Dual-write propagation, called inside the client transaction after
  /// the write has been applied to the old-schema `table`. `before` and
  /// `after` are row `rid`'s images around the write: `before` is null
  /// for an insert, `after` for a delete. Every unit either image belongs
  /// to is re-derived, and a row the unit derived before the write is
  /// deleted when the re-derivation no longer produces its primary key.
  Status Propagate(Transaction* txn, const std::string& table, RowId rid,
                   const Tuple* before, const Tuple* after);

 private:
  /// A client write to input `input` of a statement (see Propagate).
  struct Write {
    size_t input;
    RowId rid;
    const Tuple* before;
    const Tuple* after;
  };

  struct StmtState {
    const MigrationStatement* stmt;
    std::vector<Table*> inputs;
    std::vector<Table*> outputs;
    /// Per input, the columns that key its units: the group-key columns
    /// (aggregate) or the join column (join).
    std::vector<std::vector<size_t>> key_columns;
    /// Copy watermark over input 0 (joins sweep the left input).
    std::atomic<uint64_t> watermark{0};
    /// Copied groups / join-key classes (aggregate & join statements).
    std::unique_ptr<HashTracker> copied;
    /// Serializes compute+upsert per unit between copier and propagation.
    std::unique_ptr<StripedLatch<SpinLatch>> unit_locks;
  };

  void Run();
  Status CopyBatch(StmtState* state, bool* made_progress);
  /// Copies input 0's rows in [begin, end): a projection inserts each
  /// row's targets, an aggregate or a join copies each row's unit.
  Status CopyRange(StmtState* state, RowId begin, RowId end);
  /// Copies unit `key` (a group or a join-key class) in its own
  /// transaction unless it is copied already (`force` re-derives it
  /// anyway), then marks it copied. With `write`, the rows the unit
  /// derived before that write are replaced.
  Status CopyUnit(StmtState* state, const Tuple& key, bool force,
                  const Write* write = nullptr);
  /// Join propagation: re-derives only the pairs containing the written
  /// row, in the client's transaction.
  Status PropagateJoin(StmtState* state, Transaction* txn, const Write& w);
  /// The one target writer: deletes each row of `before` whose primary key
  /// `after` does not produce, then upserts every row of `after`.
  Status WriteTargets(const StmtState& state, Transaction* txn,
                      const std::vector<TargetRow>& before,
                      const std::vector<TargetRow>& after);
  Status TryCutover();

  TransactionManager* txns_;
  Options options_;
  std::function<Status()> cutover_;

  std::vector<std::unique_ptr<StmtState>> states_;
  std::vector<std::thread> threads_;
  WriterPriorityGate write_gate_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> launched_{false};
  std::atomic<bool> switched_{false};
  /// Batches claimed (watermark advanced) but not yet copied. Cutover must
  /// drain this to zero: a watermark at the end of the input only proves
  /// the rows were claimed by some thread, not that their copy committed.
  std::atomic<uint64_t> inflight_batches_{0};
  std::mutex cutover_mu_;
};

}  // namespace bullfrog

#endif  // BULLFROG_MIGRATION_MULTISTEP_H_
