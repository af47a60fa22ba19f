#include "query/scan.h"

#include <algorithm>

namespace bullfrog {

namespace {

/// Invokes fn(rid) for every rid the plan may match, in plan order: the
/// index probe's rids, or every allocated slot. Stops when fn returns
/// false.
template <typename Fn>
void ForEachCandidate(const Table& table, const ScanPlan& plan, Fn&& fn) {
  if (plan.index != nullptr) {
    std::vector<RowId> rids;
    plan.index->Lookup(plan.probe_key, &rids);
    for (RowId rid : rids) {
      if (!fn(rid)) return;
    }
    return;
  }
  const RowId limit = table.NumAllocatedRows();
  for (RowId rid = 0; rid < limit; ++rid) {
    if (!fn(rid)) return;
  }
}

/// A bound predicate as an in-place row filter (empty for "keep all").
Table::RowFilter FilterFor(const ExprPtr& check) {
  if (check == nullptr) return {};
  return [e = check.get()](const Tuple& row) { return e->Matches(row); };
}

}  // namespace

Result<ScanPlan> PlanScan(const Table& table, const ExprPtr& pred) {
  ScanPlan plan;
  if (pred == nullptr) return plan;

  // Match each `column = const` conjunct once, by reference.
  std::vector<ExprPtr> conjuncts;
  SplitConjuncts(pred, &conjuncts);
  struct Equality {
    size_t column;
    const Value* value;  // Points into `pred`, alive for the call.
  };
  constexpr size_t kNotEquality = ~size_t{0};
  std::vector<Equality> eq(conjuncts.size(), {kNotEquality, nullptr});
  std::vector<size_t> eq_columns;  // Distinct, first-seen order.
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    const Value* value = nullptr;
    const Expr* col = MatchEquality(*conjuncts[i], &value);
    if (col == nullptr) continue;
    auto idx = table.schema().ColumnIndex(col->column_name());
    if (!idx) {
      return Status::InvalidArgument("predicate references unknown column '" +
                                     col->column_name() + "' of table '" +
                                     table.name() + "'");
    }
    eq[i] = {*idx, value};
    if (std::find(eq_columns.begin(), eq_columns.end(), *idx) ==
        eq_columns.end()) {
      eq_columns.push_back(*idx);
    }
  }
  // The probe value of a column is its first equality's constant.
  auto probe_value = [&](size_t column) {
    for (const Equality& e : eq) {
      if (e.column == column) return e.value;
    }
    return static_cast<const Value*>(nullptr);
  };

  const Index* index =
      eq_columns.empty() ? nullptr : table.FindIndexCoveredBy(eq_columns);
  std::vector<ExprPtr> residual_conjuncts;
  if (index != nullptr) {
    plan.index = index;
    const std::vector<size_t>& keys = index->key_columns();
    plan.probe_key.reserve(keys.size());
    for (size_t kc : keys) plan.probe_key.push_back(*probe_value(kc));
    // Residual: every conjunct not an equality on an index key column.
    // A duplicate equality on the same column with a *different* value
    // (e.g. "b = 3 AND b = 0") is not covered by the probe and must stay
    // in the residual, where it correctly empties the result.
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      const bool covered =
          eq[i].column != kNotEquality &&
          std::find(keys.begin(), keys.end(), eq[i].column) != keys.end() &&
          probe_value(eq[i].column)->Compare(*eq[i].value) == 0;
      if (!covered) residual_conjuncts.push_back(std::move(conjuncts[i]));
    }
  } else {
    residual_conjuncts = std::move(conjuncts);
  }

  ExprPtr residual = JoinConjuncts(std::move(residual_conjuncts));
  if (residual != nullptr) {
    BF_ASSIGN_OR_RETURN(plan.residual, residual->Bind(table.schema()));
  }
  return plan;
}

bool ScanPlan::Matches(const Tuple& row) const {
  if (index != nullptr) {
    const std::vector<size_t>& keys = index->key_columns();
    for (size_t i = 0; i < keys.size(); ++i) {
      // Evaluated as the `column = constant` conjuncts it stands for:
      // a comparison with NULL is never true.
      const Value& cell = row[keys[i]];
      if (cell.is_null() || probe_key[i].is_null() ||
          cell.Compare(probe_key[i]) != 0) {
        return false;
      }
    }
  }
  return residual == nullptr || residual->Matches(row);
}

Result<ScanPlan> ScanWhere(const Table& table, const ExprPtr& pred,
                           const std::function<bool(RowId, const Tuple&)>& fn) {
  BF_ASSIGN_OR_RETURN(ScanPlan plan, PlanScan(table, pred));
  const Table::RowFilter keep = FilterFor(plan.residual);
  Tuple row;  // Reused across candidates; only matches are copied into it.
  ForEachCandidate(table, plan, [&](RowId rid) {
    return !table.ReadIf(rid, keep, &row) || fn(rid, row);
  });
  return plan;
}

Tuple KeyOf(const Tuple& row, const std::vector<size_t>& cols) {
  Tuple key;
  key.reserve(cols.size());
  for (size_t c : cols) key.push_back(row[c]);
  return key;
}

void ForEachRowWithKey(const Table& table, const std::vector<size_t>& cols,
                       const Tuple& key, uint64_t boundary,
                       const std::function<void(RowId, const Tuple&)>& fn) {
  Index* index = table.FindIndexCoveredBy(cols);
  if (index != nullptr && index->key_columns() == cols) {
    std::vector<RowId> rids;
    index->Lookup(key, &rids);
    table.ReadMany(rids, [&](RowId rid, const Tuple& row) {
      if (rid < boundary) fn(rid, row);
      return true;
    });
    return;
  }
  table.ScanRange(0, boundary, [&](RowId rid, const Tuple& row) {
    for (size_t i = 0; i < cols.size(); ++i) {
      if (row[cols[i]] != key[i]) return true;
    }
    fn(rid, row);
    return true;
  });
}

Result<std::vector<std::pair<RowId, Tuple>>> CollectWhere(const Table& table,
                                                          const ExprPtr& pred) {
  BF_ASSIGN_OR_RETURN(ScanPlan plan, PlanScan(table, pred));
  const Table::RowFilter keep = FilterFor(plan.residual);
  std::vector<std::pair<RowId, Tuple>> out;
  ForEachCandidate(table, plan, [&](RowId rid) {
    out.emplace_back(rid, Tuple());
    if (!table.ReadIf(rid, keep, &out.back().second)) out.pop_back();
    return true;
  });
  return out;
}

std::vector<RowId> CollectRids(const Table& table, const ScanPlan& plan) {
  const Table::RowFilter keep = FilterFor(plan.residual);
  std::vector<RowId> out;
  ForEachCandidate(table, plan, [&](RowId rid) {
    if (table.ReadIf(rid, keep, nullptr)) out.push_back(rid);
    return true;
  });
  return out;
}

Result<std::vector<std::pair<RowId, Tuple>>> CollectWhereAt(
    const Table& table, const ExprPtr& pred, const mvcc::ReadView& view) {
  BF_ASSIGN_OR_RETURN(ScanPlan plan, PlanScan(table, pred));
  // An index probe is planned against the latest index state, but the
  // rows we hand out come from the version chain at view.ts — the
  // version visible there may not satisfy the probe's equality keys
  // anymore. Re-apply the full predicate, not just the residual.
  const Table::RowFilter keep = [&plan](const Tuple& row) {
    return plan.Matches(row);
  };
  std::vector<std::pair<RowId, Tuple>> out;
  ForEachCandidate(table, plan, [&](RowId rid) {
    out.emplace_back(rid, Tuple());
    if (!table.ReadIfAt(rid, view, keep, &out.back().second)) out.pop_back();
    return true;
  });
  return out;
}

}  // namespace bullfrog
