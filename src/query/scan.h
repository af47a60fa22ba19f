#ifndef BULLFROG_QUERY_SCAN_H_
#define BULLFROG_QUERY_SCAN_H_

#include <functional>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "mvcc/version.h"
#include "query/expr.h"
#include "storage/table.h"

namespace bullfrog {

/// How a scan was (or would be) executed — surfaced for tests, EXPLAIN-style
/// diagnostics and the paper's discussion of predicate-driven laziness.
struct ScanPlan {
  /// The index probed, or null for a full heap scan.
  const Index* index = nullptr;
  /// Equality key used for the index probe, when index is set.
  Tuple probe_key;
  /// Residual predicate applied row-by-row (bound); may be null.
  ExprPtr residual;

  /// True if `row` satisfies the whole planned predicate: the probe key's
  /// equalities and the residual. Re-checks a row read later (under its
  /// lock, or at a snapshot) without binding the predicate again.
  bool Matches(const Tuple& row) const;
};

/// Plans a filtered scan of `table` for predicate `pred` (over the table's
/// own schema, unbound). Picks the most selective index fully covered by
/// the predicate's top-level `column = constant` conjuncts, falling back
/// to a full scan. `pred` may be null (scan everything).
Result<ScanPlan> PlanScan(const Table& table, const ExprPtr& pred);

/// Executes a filtered scan: invokes fn(rid, row) for each matching row,
/// stopping early if fn returns false. Returns the plan used.
Result<ScanPlan> ScanWhere(
    const Table& table, const ExprPtr& pred,
    const std::function<bool(RowId, const Tuple&)>& fn);

/// Collects matching rows. The residual runs against each candidate in
/// place (Table::ReadIf), so each matching row is copied exactly once,
/// straight into the result, and a rejected one not at all.
Result<std::vector<std::pair<RowId, Tuple>>> CollectWhere(const Table& table,
                                                          const ExprPtr& pred);

/// Collects the rids of the rows `plan` matches without copying any row —
/// the scan half of UPDATE/DELETE and SELECT ... FOR UPDATE, which re-read
/// each row under its exclusive lock anyway (and re-check it with
/// plan.Matches).
std::vector<RowId> CollectRids(const Table& table, const ScanPlan& plan);

/// Snapshot variant of CollectWhere: rows are resolved against `view`
/// instead of the latest version. Index probes still run against the
/// latest index state, so the *full* bound predicate is re-applied to each
/// resolved row (a probed rid's snapshot version may no longer match the
/// probe key). Caveat: index entries of rows deleted after view.ts are
/// gone, so an index-probed snapshot read can miss such rows; heap scans
/// (no usable index) are exact. This is the contract of every
/// non-FOR-UPDATE Database::Select (see DESIGN.md "MVCC & snapshot
/// reads").
Result<std::vector<std::pair<RowId, Tuple>>> CollectWhereAt(
    const Table& table, const ExprPtr& pred, const mvcc::ReadView& view);

}  // namespace bullfrog

#endif  // BULLFROG_QUERY_SCAN_H_
