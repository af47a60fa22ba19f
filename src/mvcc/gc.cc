#include "mvcc/gc.h"

#include <algorithm>
#include <chrono>

namespace bullfrog::mvcc {

void VersionGC::Start(int64_t interval_ms) {
  std::lock_guard lock(mu_);
  if (thread_.joinable() || interval_ms <= 0) return;
  stop_ = false;
  thread_ = std::thread([this, interval_ms] { Loop(interval_ms); });
}

void VersionGC::Stop() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void VersionGC::Loop(int64_t interval_ms) {
  std::unique_lock lock(mu_);
  while (!stop_) {
    cv_.wait_for(lock, std::chrono::milliseconds(interval_ms),
                 [this] { return stop_; });
    if (stop_) break;
    lock.unlock();
    SweepOnce();
    lock.lock();
  }
}

void VersionGC::SweepOnce() {
  const uint64_t watermark = snapshots_->AdvanceWatermark();
  uint64_t freed = 0;
  uint64_t visited = 0;
  uint64_t pass_max_chain = 0;
  uint64_t max_chain = 0;  // Tables' high-water marks too.
  // Retired tables still serve lazy-migration and snapshot reads, so
  // their chains are swept too; dropped tables are frozen (no writers)
  // and were swept on the way out. The held view keeps every table it
  // names alive for the pass.
  const Catalog::ViewRef view = catalog_->view();
  for (const auto& [name, entry] : view->entries()) {
    if (entry.state == TableState::kDropped) continue;
    const Table::PruneStats stats = entry.table->PruneVersions(watermark);
    freed += stats.freed;
    visited += stats.visited;
    pass_max_chain = std::max(pass_max_chain, stats.max_chain);
    max_chain = std::max({max_chain, stats.max_chain,
                          entry.table->max_chain()});
  }
  versions_freed_.fetch_add(freed, std::memory_order_relaxed);
  slots_visited_.fetch_add(visited, std::memory_order_relaxed);
  last_max_chain_.store(pass_max_chain, std::memory_order_relaxed);
  if (max_chain > max_chain_.load(std::memory_order_relaxed)) {
    max_chain_.store(max_chain, std::memory_order_relaxed);
  }
  passes_.fetch_add(1, std::memory_order_relaxed);
}

void VersionGC::BindMetrics(obs::MetricsRegistry* registry) {
  registry->SetCallback("bullfrog_mvcc_versions_freed", "", [this] {
    return static_cast<double>(versions_freed());
  });
  registry->SetCallback("bullfrog_mvcc_gc_passes", "", [this] {
    return static_cast<double>(passes());
  });
  registry->SetCallback("bullfrog_mvcc_gc_slots_visited", "", [this] {
    return static_cast<double>(slots_visited());
  });
  registry->SetCallback("bullfrog_mvcc_max_chain", "", [this] {
    return static_cast<double>(max_chain());
  });
  registry->SetCallback("bullfrog_mvcc_watermark", "", [this] {
    return static_cast<double>(snapshots_->watermark());
  });
}

}  // namespace bullfrog::mvcc
