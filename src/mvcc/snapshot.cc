#include "mvcc/snapshot.h"

#include <algorithm>

namespace bullfrog::mvcc {

namespace {
// Index of the slot this thread claimed last, in whichever manager: a
// starting guess only, so it needs no per-manager keying.
thread_local size_t tl_slot_hint = 0;
}  // namespace

SnapshotManager::~SnapshotManager() {
  Chunk* chunk = head_.next.load(std::memory_order_acquire);
  while (chunk != nullptr) {
    Chunk* next = chunk->next.load(std::memory_order_relaxed);
    delete chunk;
    chunk = next;
  }
}

SnapshotManager::Slot* SnapshotManager::ClaimSlot() {
  auto try_claim = [](Slot* slot) {
    uint64_t expected = kSlotFree;
    return slot->ts.load(std::memory_order_relaxed) == kSlotFree &&
           slot->ts.compare_exchange_strong(expected, kSlotClaimed,
                                            std::memory_order_acquire,
                                            std::memory_order_relaxed);
  };
  auto claimed = [this](Slot* slot, size_t index) {
    tl_slot_hint = index;
    // Raise the high-water mark before the marker store (see the class
    // comment): a scan that misses the raise read the clock first.
    size_t used = slots_used_.load(std::memory_order_seq_cst);
    while (used <= index &&
           !slots_used_.compare_exchange_weak(used, index + 1,
                                              std::memory_order_seq_cst)) {
    }
    return slot;
  };
  // Fast path: this thread's previous slot, free unless this is a
  // nested pin.
  const size_t hint = tl_slot_hint;
  Chunk* chunk = &head_;
  for (size_t c = hint / kChunkSlots; c > 0 && chunk != nullptr; --c) {
    chunk = chunk->next.load(std::memory_order_acquire);
  }
  if (chunk != nullptr && try_claim(&chunk->slots[hint % kChunkSlots])) {
    return claimed(&chunk->slots[hint % kChunkSlots], hint);
  }
  // Slow path: the first free slot in the chain, growing it when full.
  size_t index = 0;
  for (chunk = &head_;;) {
    for (Slot& slot : chunk->slots) {
      if (try_claim(&slot)) return claimed(&slot, index);
      ++index;
    }
    Chunk* next = chunk->next.load(std::memory_order_acquire);
    if (next == nullptr) {
      auto* fresh = new Chunk();
      if (chunk->next.compare_exchange_strong(next, fresh,
                                              std::memory_order_acq_rel)) {
        next = fresh;
      } else {
        delete fresh;  // Another pinner linked one first; use it.
      }
    }
    chunk = next;
  }
}

SnapshotManager::PinHandle SnapshotManager::Pin() {
  Slot* slot = ClaimSlot();
  // The marker holds any concurrent AdvanceWatermark at or below the
  // clock value read next — see the class comment.
  slot->ts.store(kSlotPinning, std::memory_order_seq_cst);
  const uint64_t ts = visible_clock_.load(std::memory_order_seq_cst);
  if (pin_hook_ != nullptr) pin_hook_(pin_hook_arg_);
  slot->ts.store(ts, std::memory_order_seq_cst);
  return PinHandle{slot, ts};
}

void SnapshotManager::Unpin(PinHandle pin) {
  // Release: this pin's reads happen-before a scan that sees the slot
  // free and lets GC reclaim what they read.
  pin.slot->ts.store(kSlotFree, std::memory_order_release);
  // Rescan when this pin may have been holding the watermark and the
  // clock has moved past it, or when the clock has moved kScanEvery past
  // the last scan (one unpinner claims that scan). Otherwise a rescan
  // cannot raise it, or is not due: a read-only steady state never scans.
  const uint64_t clock = visible_clock_.load(std::memory_order_acquire);
  const uint64_t w = watermark_.load(std::memory_order_acquire);
  if (pin.ts <= w && clock > w) {
    AdvanceWatermark();
    return;
  }
  uint64_t last = last_scan_clock_.load(std::memory_order_relaxed);
  if (clock >= last + kScanEvery &&
      last_scan_clock_.compare_exchange_strong(last, clock,
                                               std::memory_order_relaxed)) {
    AdvanceWatermark();
  }
}

uint64_t SnapshotManager::AdvanceWatermark() {
  const uint64_t clock = visible_clock_.load(std::memory_order_seq_cst);
  uint64_t last = last_scan_clock_.load(std::memory_order_relaxed);
  while (last < clock &&
         !last_scan_clock_.compare_exchange_weak(last, clock,
                                                 std::memory_order_relaxed)) {
  }
  uint64_t low = clock;
  const size_t used = slots_used_.load(std::memory_order_seq_cst);
  const Chunk* chunk = &head_;
  for (size_t i = 0; i < used; ++i) {
    if (i > 0 && i % kChunkSlots == 0) {
      chunk = chunk->next.load(std::memory_order_acquire);
    }
    low = std::min(low,
                   chunk->slots[i % kChunkSlots].ts.load(
                       std::memory_order_seq_cst));
  }
  // Monotone: a concurrent scan may have stored a newer bound already.
  // Acquire on every path: the caller frees what the returned bound
  // allows, so it must see the unpins the storing scan saw.
  uint64_t cur = watermark_.load(std::memory_order_acquire);
  while (cur < low &&
         !watermark_.compare_exchange_weak(cur, low,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
  }
  return std::max(cur, low);
}

}  // namespace bullfrog::mvcc
