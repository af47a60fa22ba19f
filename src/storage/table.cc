#include "storage/table.h"

#include <algorithm>
#include <cassert>

namespace bullfrog {

namespace {

/// Frees a chain starting at `v` (exclusive of nothing — frees v too).
uint64_t FreeChain(mvcc::RowVersion* v) {
  uint64_t freed = 0;
  while (v != nullptr) {
    mvcc::RowVersion* next = v->older.load(std::memory_order_relaxed);
    delete v;
    v = next;
    ++freed;
  }
  return freed;
}

bool HeadLive(const mvcc::RowVersion* head) {
  return head != nullptr && !head->deleted;
}

/// A transactional write may not stack on another transaction's pending
/// version. The only one its row lock does not exclude is a fresh insert
/// that the inserter has not locked yet (TransactionManager::Insert locks
/// after the install): stacking on it would make the inserter's undo miss
/// its head and leave the key doubly live.
Status CheckNotPendingOther(const mvcc::RowVersion* head, uint64_t writer_txn,
                            const std::string& table) {
  if (writer_txn != 0 &&
      head->commit_ts.load(std::memory_order_acquire) == mvcc::kPendingTs &&
      head->writer_txn != writer_txn) {
    return Status::TxnConflict("row in '" + table +
                               "' holds another transaction's pending insert");
  }
  return Status::OK();
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
    if (slot != nullptr) FreeChain(slot->locked_head());
  }
  for (auto& seg : segments_) {
    delete seg.load(std::memory_order_acquire);
  }
  for (const RetiredEntry& entry : retired_) entry.Free();
}

uint64_t Table::RetiredEntry::Free() const {
  if (!alone) return FreeChain(v);
  delete v;
  return 1;
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

const mvcc::RowVersion* Table::VisibleAt(const RowSlot* slot,
                                         const mvcc::ReadView& view) const {
  // The walk's contract (mvcc::VisibleVersion): a pin at or below view.ts,
  // which the watermark never passes.
  assert(view.ts != mvcc::kPendingTs);
  assert(snapshots_ == nullptr || snapshots_->watermark() <= view.ts);
  return mvcc::VisibleVersion(slot->head.load(std::memory_order_seq_cst),
                              view);
}

mvcc::RowVersion* Table::InstallLocked(RowSlot* slot, Tuple data, bool deleted,
                                       uint64_t writer_txn,
                                       Deferred* deferred) {
  mvcc::RowVersion* head = slot->locked_head();
  auto* v = new mvcc::RowVersion;
  v->writer_txn = writer_txn;
  v->deleted = deleted;
  v->data = std::move(data);
  v->older.store(head, std::memory_order_relaxed);
  if (writer_txn == 0) {
    // Non-transactional install: committed immediately. Inherit the
    // head's timestamp when it is newer than kBootstrapTs so the chain
    // stays ordered newest-ts-first (replay and bulk-load contexts only).
    uint64_t ts = mvcc::kBootstrapTs;
    if (head != nullptr) {
      const uint64_t head_ts = head->commit_ts.load(std::memory_order_acquire);
      if (head_ts != mvcc::kPendingTs) ts = std::max(ts, head_ts);
    }
    v->commit_ts.store(ts, std::memory_order_release);
  }
  // Release: a latch-free reader that loads v sees it whole. Seq_cst for
  // a non-transactional install, whose prune retires what it shadows
  // (see PruneChainLocked and Retire).
  slot->head.store(v, writer_txn == 0 ? std::memory_order_seq_cst
                                      : std::memory_order_release);
  if (snapshots_ != nullptr) {
    deferred->retired =
        PruneChainLocked(slot, snapshots_->watermark()).retired;
  }
  // Chains only grow here, so queueing here is what lets the sweeper
  // visit just the written rows.
  head = slot->locked_head();
  deferred->queue = !slot->gc_pending && head != nullptr &&
                    head->older.load(std::memory_order_relaxed) != nullptr;
  if (deferred->queue) slot->gc_pending = true;
  return v;
}

void Table::AfterLatch(RowId rid, const Deferred& deferred) {
  if (deferred.queue) QueueForGc(rid);
  if (deferred.retired != nullptr) Retire(deferred.retired, /*alone=*/false);
}

void Table::QueueForGc(RowId rid) {
  std::lock_guard lock(gc_mu_);
  gc_dirty_.push_back(rid);
}

void Table::Retire(mvcc::RowVersion* v, bool alone) {
  RetiredEntry entry{0, v, alone};
  if (snapshots_ == nullptr) {
    entry.Free();
    return;
  }
  // A reader that loaded v before its seq_cst unlink pinned at or below
  // this seq_cst clock reading (mvcc::VisibleVersion), so once the
  // watermark is above it, every such reader has unpinned.
  entry.stamp = snapshots_->visible();
  std::lock_guard lock(retire_mu_);
  retired_.push_back(entry);
}

Table::Pruned Table::PruneChainLocked(RowSlot* slot, uint64_t watermark) {
  // Find the newest committed version at or below the watermark: every
  // snapshot still allowed to exist resolves to it or to something newer,
  // so everything strictly older is dead, and no walk goes past it — as
  // long as the boundary was published through the commit clock. If that
  // boundary version is itself a tombstone, it too is dead — a reader
  // that would resolve to it sees "no row", which is exactly what an
  // empty chain says — but a reader may be standing on it, so it is
  // unlinked and handed back to be retired.
  Pruned out;
  mvcc::RowVersion* prev = nullptr;
  mvcc::RowVersion* v = slot->locked_head();
  while (v != nullptr) {
    ++out.chain;
    const uint64_t ts = v->commit_ts.load(std::memory_order_acquire);
    if (ts != mvcc::kPendingTs && ts <= watermark) break;
    prev = v;
    v = v->older.load(std::memory_order_relaxed);
  }
  if (v != nullptr) {
    mvcc::RowVersion* dead = v->older.load(std::memory_order_relaxed);
    // A non-transactional boundary (replica apply, replay) was never
    // published through the clock, so a walker that loaded the head
    // before it was installed may be below it: what it shadows is
    // retired with it, not freed.
    const bool published = v->writer_txn != 0;
    if (dead != nullptr && published) {
      v->older.store(nullptr, std::memory_order_relaxed);
      out.freed = FreeChain(dead);
      out.chain += out.freed;
    }
    if (v->deleted) {
      (prev == nullptr ? slot->head : prev->older)
          .store(nullptr, std::memory_order_seq_cst);
      out.retired = v;
    } else if (dead != nullptr && !published) {
      v->older.store(nullptr, std::memory_order_seq_cst);
      out.retired = dead;
    }
  }
  if (out.chain > max_chain_.load(std::memory_order_relaxed)) {
    max_chain_.store(out.chain, std::memory_order_relaxed);
  }
  return out;
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
    Pruned pruned;
    {
      std::lock_guard latch(slot->latch);
      pruned = PruneChainLocked(slot, watermark);
      mvcc::RowVersion* head = slot->locked_head();
      if (head != nullptr &&
          head->older.load(std::memory_order_relaxed) != nullptr) {
        batch[kept++] = rid;
      } else {
        slot->gc_pending = false;
      }
    }
    stats.freed += pruned.freed;
    stats.max_chain = std::max(stats.max_chain, pruned.chain);
    if (pruned.retired != nullptr) Retire(pruned.retired, /*alone=*/false);
  }
  if (kept > 0) {
    std::lock_guard lock(gc_mu_);
    gc_dirty_.insert(gc_dirty_.end(), batch.begin(), batch.begin() + kept);
  }
  // Free the retired versions the watermark has passed; requeue the rest.
  std::vector<RetiredEntry> retired;
  {
    std::lock_guard lock(retire_mu_);
    retired.swap(retired_);
  }
  kept = 0;
  for (const RetiredEntry& entry : retired) {
    if (entry.stamp < watermark) {
      stats.freed += entry.Free();
    } else {
      retired[kept++] = entry;
    }
  }
  if (kept > 0) {
    std::lock_guard lock(retire_mu_);
    retired_.insert(retired_.end(), retired.begin(), retired.begin() + kept);
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
  Deferred deferred;
  {
    std::lock_guard latch(slot->latch);
    mvcc::RowVersion* v = InstallLocked(slot, row, /*deleted=*/false,
                                        writer_txn, &deferred);
    if (installed != nullptr) *installed = v;
  }
  AfterLatch(rid, deferred);
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
  const mvcc::RowVersion* head = slot->locked_head();
  if (!HeadLive(head)) {
    return Status::NotFound("rid " + std::to_string(rid) + " deleted in '" +
                            schema_.name() + "'");
  }
  *out = head->data;
  return Status::OK();
}

Status Table::ReadAt(RowId rid, const mvcc::ReadView& view, Tuple* out) const {
  RowSlot* slot = SlotFor(rid);
  if (slot == nullptr) {
    return Status::NotFound("rid " + std::to_string(rid) +
                            " out of range in '" + schema_.name() + "'");
  }
  const mvcc::RowVersion* v = VisibleAt(slot, view);
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
    const mvcc::RowVersion* head = slot->locked_head();
    if (!HeadLive(head)) {
      return Status::NotFound("rid " + std::to_string(rid) + " deleted in '" +
                              schema_.name() + "'");
    }
    BF_RETURN_NOT_OK(CheckNotPendingOther(head, writer_txn, schema_.name()));
    const Tuple& old_row = head->data;
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
  Deferred deferred;
  {
    std::lock_guard latch(slot->latch);
    const mvcc::RowVersion* head = slot->locked_head();
    if (before != nullptr && head != nullptr) *before = head->data;
    mvcc::RowVersion* v = InstallLocked(slot, std::move(new_row),
                                        /*deleted=*/false, writer_txn,
                                        &deferred);
    if (installed != nullptr) *installed = v;
  }
  AfterLatch(rid, deferred);
  return Status::OK();
}

Status Table::Delete(RowId rid, Tuple* before, uint64_t writer_txn,
                     mvcc::RowVersion** installed) {
  RowSlot* slot = SlotFor(rid);
  if (slot == nullptr) {
    return Status::NotFound("rid out of range in '" + schema_.name() + "'");
  }
  Tuple old_row;
  Deferred deferred;
  {
    std::lock_guard latch(slot->latch);
    const mvcc::RowVersion* head = slot->locked_head();
    if (!HeadLive(head)) {
      return Status::NotFound("rid " + std::to_string(rid) + " deleted in '" +
                              schema_.name() + "'");
    }
    BF_RETURN_NOT_OK(CheckNotPendingOther(head, writer_txn, schema_.name()));
    old_row = head->data;
    mvcc::RowVersion* v = InstallLocked(slot, Tuple{}, /*deleted=*/true,
                                        writer_txn, &deferred);
    if (installed != nullptr) *installed = v;
  }
  AfterLatch(rid, deferred);
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
  Deferred deferred;
  {
    std::lock_guard latch(slot->latch);
    if (HeadLive(slot->locked_head())) {
      return Status::AlreadyExists("rid " + std::to_string(rid) +
                                   " is live in '" + schema_.name() + "'");
    }
    InstallLocked(slot, row, /*deleted=*/false, /*writer_txn=*/0, &deferred);
  }
  AfterLatch(rid, deferred);
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
    live = HeadLive(slot->locked_head());
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
    if (slot->locked_head() != v) {
      // Strict 2PL means nobody stacks a version on an uncommitted one;
      // hitting this indicates a lock-discipline bug upstream.
      return Status::Internal("undo of non-head version in '" +
                              schema_.name() + "'");
    }
    // Seq_cst: a snapshot reader may be standing on v (see Retire).
    slot->head.store(v->older.load(std::memory_order_relaxed),
                     std::memory_order_seq_cst);
  }
  const mvcc::RowVersion* older = v->older.load(std::memory_order_relaxed);
  if (v->deleted) {
    // Undo of a delete: the shadowed version becomes live again.
    if (older != nullptr) {
      for (const auto& index : indexes_) {
        (void)index->Insert(index->KeyFor(older->data), rid);
      }
    }
    live_rows_.fetch_add(1, std::memory_order_relaxed);
  } else if (older == nullptr || older->deleted) {
    // Undo of an insert (fresh slot or insert-over-tombstone).
    EraseIndexEntries(v->data, rid);
    live_rows_.fetch_sub(1, std::memory_order_relaxed);
  } else {
    // Undo of an update: swap index keys back where they changed.
    // Reservations are best-effort, matching the historical rollback
    // path: the row was exclusively locked, so a lost reservation means
    // a concurrent insert took the key in the meantime.
    const Tuple& undone = v->data;
    const Tuple& restored = older->data;
    for (const auto& index : indexes_) {
      if (index->SameKey(undone, restored)) continue;
      index->Erase(index->KeyFor(undone), rid);
      (void)index->Insert(index->KeyFor(restored), rid);
    }
  }
  Retire(v, /*alone=*/true);  // v->older is the row's live head again.
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
      const mvcc::RowVersion* head = slot->locked_head();
      live = HeadLive(head);
      if (live) copy = head->data;
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
  const mvcc::RowVersion* head = slot->locked_head();
  if (!HeadLive(head)) return false;
  if (keep && !keep(head->data)) return false;
  if (out != nullptr) *out = head->data;
  return true;
}

bool Table::ReadIfAt(RowId rid, const mvcc::ReadView& view,
                     const RowFilter& keep, Tuple* out) const {
  RowSlot* slot = SlotFor(rid);
  if (slot == nullptr) return false;
  const mvcc::RowVersion* v = VisibleAt(slot, view);
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
    const mvcc::RowVersion* v = VisibleAt(slot, view);
    if (v != nullptr && !v->deleted && !fn(rid, v->data)) return;
  }
}

}  // namespace bullfrog
