#include "storage/table.h"

#include <algorithm>

namespace bullfrog {

namespace {

/// Frees a chain starting at `v` (exclusive of nothing — frees v too).
uint64_t FreeChain(mvcc::RowVersion* v) {
  uint64_t freed = 0;
  while (v != nullptr) {
    mvcc::RowVersion* next = v->older;
    delete v;
    v = next;
    ++freed;
  }
  return freed;
}

bool HeadLive(const mvcc::RowVersion* head) {
  return head != nullptr && !head->deleted;
}

}  // namespace

Table::Table(TableSchema schema)
    : schema_(std::move(schema)), segments_(kMaxSegments) {
  // The primary key, if declared, is backed by a unique hash index so that
  // point lookups and uniqueness enforcement are O(1).
  if (!schema_.primary_key().empty()) {
    Status s = CreateIndex("pk_" + schema_.name(), schema_.primary_key(),
                           /*unique=*/true, IndexKind::kHash);
    (void)s;  // Cannot fail on an empty table with valid PK columns.
  }
  for (const UniqueConstraint& u : schema_.unique_constraints()) {
    (void)CreateIndex(u.name, u.columns, /*unique=*/true, IndexKind::kHash);
  }
}

Table::~Table() {
  const uint64_t limit = NumAllocatedRows();
  for (RowId rid = 0; rid < limit; ++rid) {
    RowSlot* slot = SlotFor(rid);
    if (slot != nullptr) FreeChain(slot->head);
  }
  for (auto& seg : segments_) {
    delete seg.load(std::memory_order_acquire);
  }
}

Status Table::CreateIndex(const std::string& name,
                          const std::vector<std::string>& columns, bool unique,
                          IndexKind kind) {
  if (FindIndex(name) != nullptr) {
    return Status::AlreadyExists("index '" + name + "' already exists on '" +
                                 schema_.name() + "'");
  }
  std::vector<size_t> cols;
  cols.reserve(columns.size());
  for (const std::string& c : columns) {
    BF_ASSIGN_OR_RETURN(size_t idx, schema_.RequireColumn(c));
    cols.push_back(idx);
  }
  std::unique_ptr<Index> index;
  if (kind == IndexKind::kHash) {
    index = std::make_unique<HashIndex>(name, cols, unique);
  } else {
    index = std::make_unique<OrderedIndex>(name, cols, unique);
  }
  // Backfill from live rows.
  Status backfill = Status::OK();
  Scan([&](RowId rid, const Tuple& row) {
    Status s = index->Insert(index->KeyFor(row), rid);
    if (!s.ok()) {
      backfill = Status::ConstraintViolation(
          "index backfill failed on '" + name + "': " + s.message());
      return false;
    }
    return true;
  });
  BF_RETURN_NOT_OK(backfill);
  indexes_.push_back(std::move(index));
  return Status::OK();
}

Index* Table::FindIndex(const std::string& name) const {
  for (const auto& idx : indexes_) {
    if (idx->name() == name) return idx.get();
  }
  return nullptr;
}

Index* Table::FindIndexOn(const std::vector<std::string>& columns) const {
  std::vector<size_t> cols;
  for (const std::string& c : columns) {
    auto idx = schema_.ColumnIndex(c);
    if (!idx) return nullptr;
    cols.push_back(*idx);
  }
  for (const auto& index : indexes_) {
    if (index->key_columns() == cols) return index.get();
  }
  return nullptr;
}

Index* Table::FindIndexCoveredBy(const std::vector<size_t>& eq_columns) const {
  Index* best = nullptr;
  for (const auto& index : indexes_) {
    bool covered = true;
    for (size_t kc : index->key_columns()) {
      if (std::find(eq_columns.begin(), eq_columns.end(), kc) ==
          eq_columns.end()) {
        covered = false;
        break;
      }
    }
    if (!covered) continue;
    // Prefer the index with the most key columns (most selective), and
    // unique over non-unique on ties.
    if (best == nullptr ||
        index->key_columns().size() > best->key_columns().size() ||
        (index->key_columns().size() == best->key_columns().size() &&
         index->unique() && !best->unique())) {
      best = index.get();
    }
  }
  return best;
}

Table::RowSlot* Table::SlotFor(RowId rid) const {
  const size_t seg = rid >> kSegmentBits;
  const size_t off = rid & (kSegmentSize - 1);
  if (seg >= kMaxSegments) return nullptr;
  Segment* s = segments_[seg].load(std::memory_order_acquire);
  if (s == nullptr) return nullptr;
  return &s->slots[off];
}

std::pair<RowId, Table::RowSlot*> Table::AllocateSlot() {
  const RowId rid = next_rid_.fetch_add(1, std::memory_order_acq_rel);
  const size_t seg = rid >> kSegmentBits;
  const size_t off = rid & (kSegmentSize - 1);
  Segment* s = segments_[seg].load(std::memory_order_acquire);
  if (s == nullptr) {
    std::lock_guard lock(grow_mu_);
    s = segments_[seg].load(std::memory_order_acquire);
    if (s == nullptr) {
      auto fresh = std::make_unique<Segment>();
      s = fresh.release();
      segments_[seg].store(s, std::memory_order_release);
    }
  }
  return {rid, &s->slots[off]};
}

mvcc::RowVersion* Table::InstallLocked(RowSlot* slot, Tuple data, bool deleted,
                                       uint64_t writer_txn, bool* queue) {
  auto* v = new mvcc::RowVersion;
  v->writer_txn = writer_txn;
  v->deleted = deleted;
  v->data = std::move(data);
  v->older = slot->head;
  if (writer_txn == 0) {
    // Non-transactional install: committed immediately. Inherit the
    // head's timestamp when it is newer than kBootstrapTs so the chain
    // stays ordered newest-ts-first (replay and bulk-load contexts only).
    uint64_t ts = mvcc::kBootstrapTs;
    if (slot->head != nullptr) {
      const uint64_t head_ts =
          slot->head->commit_ts.load(std::memory_order_acquire);
      if (head_ts != mvcc::kPendingTs) ts = std::max(ts, head_ts);
    }
    v->commit_ts.store(ts, std::memory_order_release);
  }
  slot->head = v;
  if (watermark_source_ != nullptr) {
    PruneChainLocked(slot,
                     watermark_source_->load(std::memory_order_acquire));
  }
  // Chains only grow here, so queueing here is what lets the sweeper
  // visit just the written rows.
  *queue = !slot->gc_pending && slot->head != nullptr &&
           slot->head->older != nullptr;
  if (*queue) slot->gc_pending = true;
  return v;
}

void Table::QueueForGc(RowId rid) {
  std::lock_guard lock(gc_mu_);
  gc_dirty_.push_back(rid);
}

uint64_t Table::PruneChainLocked(RowSlot* slot, uint64_t watermark,
                                 uint64_t* chain_len) {
  // Find the newest committed version at or below the watermark: every
  // snapshot still allowed to exist resolves to it or to something newer,
  // so everything strictly older is dead. If that boundary version is
  // itself a tombstone, it too is dead — a reader that would resolve to
  // it sees "no row", which is exactly what an empty chain says.
  mvcc::RowVersion* prev = nullptr;
  mvcc::RowVersion* v = slot->head;
  uint64_t len = 0;
  while (v != nullptr) {
    ++len;
    const uint64_t ts = v->commit_ts.load(std::memory_order_acquire);
    if (ts != mvcc::kPendingTs && ts <= watermark) break;
    prev = v;
    v = v->older;
  }
  if (chain_len != nullptr) {
    uint64_t total = len;
    for (mvcc::RowVersion* r = v == nullptr ? nullptr : v->older; r != nullptr;
         r = r->older) {
      ++total;
    }
    *chain_len = total;
  }
  uint64_t freed = 0;
  if (v == nullptr) return 0;
  if (v->deleted) {
    // Cut the boundary tombstone out as well.
    if (prev == nullptr) {
      slot->head = nullptr;
    } else {
      prev->older = nullptr;
    }
    freed = FreeChain(v);
  } else if (v->older != nullptr) {
    freed = FreeChain(v->older);
    v->older = nullptr;
  }
  return freed;
}

Table::PruneStats Table::PruneVersions(uint64_t watermark) {
  std::vector<RowId> batch;
  {
    std::lock_guard lock(gc_mu_);
    batch.swap(gc_dirty_);
  }
  PruneStats stats;
  stats.visited = batch.size();
  // Slots still multi-version (a snapshot pins a shadowed version) keep
  // their flag and are compacted to the front of `batch` for requeueing.
  size_t kept = 0;
  for (RowId rid : batch) {
    RowSlot* slot = SlotFor(rid);
    uint64_t len = 0;
    std::lock_guard latch(slot->latch);
    stats.freed += PruneChainLocked(slot, watermark, &len);
    stats.max_chain = std::max(stats.max_chain, len);
    if (slot->head != nullptr && slot->head->older != nullptr) {
      batch[kept++] = rid;
    } else {
      slot->gc_pending = false;
    }
  }
  if (kept > 0) {
    std::lock_guard lock(gc_mu_);
    gc_dirty_.insert(gc_dirty_.end(), batch.begin(), batch.begin() + kept);
  }
  if (NumLiveRows() > 0) {
    stats.max_chain = std::max<uint64_t>(stats.max_chain, 1);
  }
  return stats;
}

Status Table::InsertIndexEntries(const Tuple& row, RowId rid,
                                 OnConflict policy, bool* conflicted,
                                 RowId* existing_rid) {
  *conflicted = false;
  // Indexes are filled in creation order, so concurrent inserters reserve
  // unique keys in the same order and cannot deadlock; on a unique
  // conflict the entries of every earlier index are rolled back.
  for (size_t i = 0; i < indexes_.size(); ++i) {
    Index* index = indexes_[i].get();
    if (index->unique()) {
      RowId existing = kInvalidRowId;
      auto reserved = index->TryReserve(index->KeyFor(row), rid, &existing);
      if (!reserved.ok()) return reserved.status();
      if (!*reserved) {
        for (size_t j = 0; j < i; ++j) {
          indexes_[j]->Erase(indexes_[j]->KeyFor(row), rid);
        }
        *conflicted = true;
        if (existing_rid != nullptr) *existing_rid = existing;
        if (policy == OnConflict::kDoNothing) return Status::OK();
        return Status::AlreadyExists(
            "duplicate key " + index->KeyFor(row).ToString() +
            " in unique index '" + index->name() + "' of table '" +
            schema_.name() + "'");
      }
    } else {
      BF_RETURN_NOT_OK(index->Insert(index->KeyFor(row), rid));
    }
  }
  return Status::OK();
}

void Table::EraseIndexEntries(const Tuple& row, RowId rid) {
  for (const auto& index : indexes_) {
    index->Erase(index->KeyFor(row), rid);
  }
}

Result<InsertOutcome> Table::Insert(const Tuple& row, OnConflict policy,
                                    uint64_t writer_txn,
                                    mvcc::RowVersion** installed) {
  BF_RETURN_NOT_OK(schema_.ValidateTuple(row));

  // Reserve the slot first so unique-index reservations can point at it.
  auto [rid, slot] = AllocateSlot();
  bool conflicted = false;
  RowId existing = kInvalidRowId;
  Status s = InsertIndexEntries(row, rid, policy, &conflicted, &existing);
  if (!s.ok()) return s;
  if (conflicted) {
    // kDoNothing path: the allocated slot stays a tombstone forever; this
    // wastes one bitmap position, which is harmless (tombstones are
    // trivially "migrated").
    return InsertOutcome{existing, false};
  }
  bool queue = false;
  {
    std::lock_guard latch(slot->latch);
    mvcc::RowVersion* v = InstallLocked(slot, row, /*deleted=*/false,
                                        writer_txn, &queue);
    if (installed != nullptr) *installed = v;
  }
  if (queue) QueueForGc(rid);
  live_rows_.fetch_add(1, std::memory_order_relaxed);
  return InsertOutcome{rid, true};
}

Status Table::Read(RowId rid, Tuple* out) const {
  RowSlot* slot = SlotFor(rid);
  if (slot == nullptr) {
    return Status::NotFound("rid " + std::to_string(rid) +
                            " out of range in '" + schema_.name() + "'");
  }
  std::lock_guard latch(slot->latch);
  if (!HeadLive(slot->head)) {
    return Status::NotFound("rid " + std::to_string(rid) + " deleted in '" +
                            schema_.name() + "'");
  }
  *out = slot->head->data;
  return Status::OK();
}

Status Table::ReadAt(RowId rid, const mvcc::ReadView& view, Tuple* out) const {
  RowSlot* slot = SlotFor(rid);
  if (slot == nullptr) {
    return Status::NotFound("rid " + std::to_string(rid) +
                            " out of range in '" + schema_.name() + "'");
  }
  std::lock_guard latch(slot->latch);
  const mvcc::RowVersion* v = mvcc::VisibleVersion(slot->head, view);
  if (v == nullptr || v->deleted) {
    return Status::NotFound("rid " + std::to_string(rid) +
                            " not visible at ts " + std::to_string(view.ts) +
                            " in '" + schema_.name() + "'");
  }
  *out = v->data;
  return Status::OK();
}

Status Table::Update(RowId rid, Tuple new_row, Tuple* before,
                     uint64_t writer_txn, mvcc::RowVersion** installed) {
  BF_RETURN_NOT_OK(schema_.ValidateTuple(new_row));
  RowSlot* slot = SlotFor(rid);
  if (slot == nullptr) {
    return Status::NotFound("rid out of range in '" + schema_.name() + "'");
  }
  // Indexes whose key changes, each with the key to retire. Decided by
  // comparing key cells against the head in place: an update that moves
  // no key (the common case) copies nothing and touches no index.
  std::vector<std::pair<Index*, Tuple>> moved;
  {
    std::lock_guard latch(slot->latch);
    if (!HeadLive(slot->head)) {
      return Status::NotFound("rid " + std::to_string(rid) + " deleted in '" +
                              schema_.name() + "'");
    }
    const Tuple& old_row = slot->head->data;
    for (const auto& index : indexes_) {
      if (!index->SameKey(old_row, new_row)) {
        moved.emplace_back(index.get(), index->KeyFor(old_row));
      }
    }
  }
  // Reserve new unique keys before erasing old ones so a concurrent
  // duplicate cannot slip in.
  for (const auto& [index, old_key] : moved) {
    if (index->unique()) {
      RowId existing = kInvalidRowId;
      auto reserved = index->TryReserve(index->KeyFor(new_row), rid, &existing);
      if (!reserved.ok()) return reserved.status();
      if (!*reserved) {
        return Status::AlreadyExists("update would duplicate key " +
                                     index->KeyFor(new_row).ToString() +
                                     " in '" + index->name() + "'");
      }
    } else {
      BF_RETURN_NOT_OK(index->Insert(index->KeyFor(new_row), rid));
    }
    index->Erase(old_key, rid);
  }
  bool queue = false;
  {
    std::lock_guard latch(slot->latch);
    if (before != nullptr && slot->head != nullptr) *before = slot->head->data;
    mvcc::RowVersion* v = InstallLocked(slot, std::move(new_row),
                                        /*deleted=*/false, writer_txn, &queue);
    if (installed != nullptr) *installed = v;
  }
  if (queue) QueueForGc(rid);
  return Status::OK();
}

Status Table::Delete(RowId rid, Tuple* before, uint64_t writer_txn,
                     mvcc::RowVersion** installed) {
  RowSlot* slot = SlotFor(rid);
  if (slot == nullptr) {
    return Status::NotFound("rid out of range in '" + schema_.name() + "'");
  }
  Tuple old_row;
  bool queue = false;
  {
    std::lock_guard latch(slot->latch);
    if (!HeadLive(slot->head)) {
      return Status::NotFound("rid " + std::to_string(rid) + " deleted in '" +
                              schema_.name() + "'");
    }
    old_row = slot->head->data;
    mvcc::RowVersion* v = InstallLocked(slot, Tuple{}, /*deleted=*/true,
                                        writer_txn, &queue);
    if (installed != nullptr) *installed = v;
  }
  if (queue) QueueForGc(rid);
  EraseIndexEntries(old_row, rid);
  live_rows_.fetch_sub(1, std::memory_order_relaxed);
  if (before != nullptr) *before = old_row;
  return Status::OK();
}

Status Table::Restore(RowId rid, const Tuple& row) {
  RowSlot* slot = SlotFor(rid);
  if (slot == nullptr) {
    return Status::NotFound("rid out of range in '" + schema_.name() + "'");
  }
  bool queue = false;
  {
    std::lock_guard latch(slot->latch);
    if (HeadLive(slot->head)) {
      return Status::AlreadyExists("rid " + std::to_string(rid) +
                                   " is live in '" + schema_.name() + "'");
    }
    InstallLocked(slot, row, /*deleted=*/false, /*writer_txn=*/0, &queue);
  }
  if (queue) QueueForGc(rid);
  for (const auto& index : indexes_) {
    (void)index->Insert(index->KeyFor(row), rid);
  }
  live_rows_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status Table::ForceApply(RowId rid, const Tuple& row) {
  ReserveRows(rid + 1);
  RowSlot* slot = SlotFor(rid);
  if (slot == nullptr) {
    return Status::NotFound("rid out of range in '" + schema_.name() + "'");
  }
  bool live;
  {
    std::lock_guard latch(slot->latch);
    live = HeadLive(slot->head);
  }
  return live ? Update(rid, row, nullptr) : Restore(rid, row);
}

Status Table::UndoInstall(RowId rid, mvcc::RowVersion* v) {
  RowSlot* slot = SlotFor(rid);
  if (slot == nullptr || v == nullptr) {
    return Status::Internal("undo of unknown version in '" + schema_.name() +
                            "'");
  }
  {
    std::lock_guard latch(slot->latch);
    if (slot->head != v) {
      // Strict 2PL means nobody stacks a version on an uncommitted one;
      // hitting this indicates a lock-discipline bug upstream.
      return Status::Internal("undo of non-head version in '" +
                              schema_.name() + "'");
    }
    slot->head = v->older;
  }
  if (v->deleted) {
    // Undo of a delete: the shadowed version becomes live again.
    if (v->older != nullptr) {
      for (const auto& index : indexes_) {
        (void)index->Insert(index->KeyFor(v->older->data), rid);
      }
    }
    live_rows_.fetch_add(1, std::memory_order_relaxed);
  } else if (v->older == nullptr || v->older->deleted) {
    // Undo of an insert (fresh slot or insert-over-tombstone).
    EraseIndexEntries(v->data, rid);
    live_rows_.fetch_sub(1, std::memory_order_relaxed);
  } else {
    // Undo of an update: swap index keys back where they changed.
    // Reservations are best-effort, matching the historical rollback
    // path: the row was exclusively locked, so a lost reservation means
    // a concurrent insert took the key in the meantime.
    const Tuple& undone = v->data;
    const Tuple& restored = v->older->data;
    for (const auto& index : indexes_) {
      if (index->SameKey(undone, restored)) continue;
      index->Erase(index->KeyFor(undone), rid);
      (void)index->Insert(index->KeyFor(restored), rid);
    }
  }
  delete v;
  return Status::OK();
}

void Table::ReserveRows(uint64_t n) {
  if (n == 0) return;
  const size_t last_seg = (n - 1) >> kSegmentBits;
  std::lock_guard lock(grow_mu_);
  for (size_t seg = 0; seg <= last_seg && seg < kMaxSegments; ++seg) {
    if (segments_[seg].load(std::memory_order_acquire) == nullptr) {
      auto fresh = std::make_unique<Segment>();
      segments_[seg].store(fresh.release(), std::memory_order_release);
    }
  }
  uint64_t cur = next_rid_.load(std::memory_order_acquire);
  while (cur < n &&
         !next_rid_.compare_exchange_weak(cur, n, std::memory_order_acq_rel)) {
  }
}

Status Table::RestoreAt(RowId rid, const Tuple& row) {
  ReserveRows(rid + 1);
  return Restore(rid, row);
}

void Table::Scan(const std::function<bool(RowId, const Tuple&)>& fn) const {
  ScanRange(0, NumAllocatedRows(), fn);
}

void Table::ScanRange(
    RowId begin, RowId end,
    const std::function<bool(RowId, const Tuple&)>& fn) const {
  const RowId limit = std::min<RowId>(end, NumAllocatedRows());
  for (RowId rid = begin; rid < limit; ++rid) {
    RowSlot* slot = SlotFor(rid);
    if (slot == nullptr) return;
    Tuple copy;
    bool live;
    {
      std::lock_guard latch(slot->latch);
      live = HeadLive(slot->head);
      if (live) copy = slot->head->data;
    }
    if (live && !fn(rid, copy)) return;
  }
}

void Table::ReadMany(
    const std::vector<RowId>& rids,
    const std::function<bool(RowId, const Tuple&)>& fn) const {
  for (RowId rid : rids) {
    Tuple row;
    if (Read(rid, &row).ok()) {
      if (!fn(rid, row)) return;
    }
  }
}

bool Table::ReadIf(RowId rid, const RowFilter& keep, Tuple* out) const {
  RowSlot* slot = SlotFor(rid);
  if (slot == nullptr) return false;
  std::lock_guard latch(slot->latch);
  if (!HeadLive(slot->head)) return false;
  if (keep && !keep(slot->head->data)) return false;
  if (out != nullptr) *out = slot->head->data;
  return true;
}

bool Table::ReadIfAt(RowId rid, const mvcc::ReadView& view,
                     const RowFilter& keep, Tuple* out) const {
  RowSlot* slot = SlotFor(rid);
  if (slot == nullptr) return false;
  std::lock_guard latch(slot->latch);
  const mvcc::RowVersion* v = mvcc::VisibleVersion(slot->head, view);
  if (v == nullptr || v->deleted) return false;
  if (keep && !keep(v->data)) return false;
  if (out != nullptr) *out = v->data;
  return true;
}

void Table::ScanAt(const mvcc::ReadView& view,
                   const std::function<bool(RowId, const Tuple&)>& fn) const {
  ScanRangeAt(view, 0, NumAllocatedRows(), fn);
}

void Table::ScanRangeAt(
    const mvcc::ReadView& view, RowId begin, RowId end,
    const std::function<bool(RowId, const Tuple&)>& fn) const {
  const RowId limit = std::min<RowId>(end, NumAllocatedRows());
  for (RowId rid = begin; rid < limit; ++rid) {
    RowSlot* slot = SlotFor(rid);
    if (slot == nullptr) return;
    Tuple copy;
    bool visible;
    {
      std::lock_guard latch(slot->latch);
      const mvcc::RowVersion* v = mvcc::VisibleVersion(slot->head, view);
      visible = v != nullptr && !v->deleted;
      if (visible) copy = v->data;
    }
    if (visible && !fn(rid, copy)) return;
  }
}

}  // namespace bullfrog
