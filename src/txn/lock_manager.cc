#include "txn/lock_manager.h"

#include <chrono>
#include <optional>

#include "common/clock.h"
#include "obs/request_trace.h"

namespace bullfrog {

LockManager::LockManager(size_t shards) : shards_(shards) {}

void LockManager::BindMetrics(obs::MetricsRegistry* registry) {
  wait_hist_ = registry->GetHistogram("bullfrog_lock_wait_seconds", "",
                                      obs::MetricsRegistry::LatencyBounds());
  wait_die_kills_ = registry->GetCounter("bullfrog_lock_wait_die_kills_total");
}

Status LockManager::Acquire(uint64_t txn_id, const LockKey& key,
                            int64_t timeout_ms) {
  Shard& shard = ShardFor(key);
  std::unique_lock lock(shard.mu);
  // The deadline and the wait-time accounting both start only once the
  // request actually blocks; the uncontended grant path never reads the
  // clock. Both wait sinks — the histogram and the request's trace (if
  // any) — share one timer.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  obs::TraceContext* trace = obs::CurrentTrace();
  int64_t wait_start_ns = -1;
  auto record_wait = [&] {
    if (wait_start_ns >= 0) {
      int64_t waited = Clock::NowNanos() - wait_start_ns;
      if (wait_hist_ != nullptr) wait_hist_->ObserveNanos(waited);
      if (trace != nullptr) {
        trace->AddStage(obs::Stage::kLockWait, waited, 1);
      }
    }
  };

  for (;;) {
    LockState& state = shard.locks[key];
    if (state.holder == kNoHolder || state.holder == txn_id) {
      state.holder = txn_id;  // Fresh or re-entrant grant.
      record_wait();
      return Status::OK();
    }
    if (state.holder < txn_id) {
      // Wait-die: the requester is younger (larger id) than the holder ->
      // die immediately rather than risk deadlock.
      record_wait();
      if (wait_die_kills_ != nullptr) wait_die_kills_->Inc();
      return Status::TxnConflict("wait-die: younger txn dies");
    }

    // The requester is older than the holder: wait.
    if ((wait_hist_ != nullptr || trace != nullptr) && wait_start_ns < 0) {
      wait_start_ns = Clock::NowNanos();
    }
    if (!deadline) {
      deadline = std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(timeout_ms);
    }
    ++state.waiters;
    const bool ok = shard.cv.wait_until(lock, *deadline) !=
                    std::cv_status::timeout;
    // `state` may have been rehashed; re-find.
    auto it = shard.locks.find(key);
    if (it != shard.locks.end()) {
      --it->second.waiters;
      if (!ok && it->second.holder == kNoHolder &&
          it->second.waiters == 0) {
        shard.locks.erase(it);
      }
    }
    if (!ok && std::chrono::steady_clock::now() >= *deadline) {
      record_wait();
      return Status::TimedOut("lock wait timed out");
    }
  }
}

void LockManager::ReleaseAll(uint64_t txn_id,
                             const std::vector<LockKey>& keys) {
  for (const LockKey& key : keys) {
    Shard& shard = ShardFor(key);
    std::lock_guard lock(shard.mu);
    auto it = shard.locks.find(key);
    // A re-entrant grant lists the key twice; the second visit may find
    // it already released (and possibly re-granted to a waiter).
    if (it == shard.locks.end() || it->second.holder != txn_id) continue;
    it->second.holder = kNoHolder;
    // Only this key's waiters care about its release.
    if (it->second.waiters == 0) {
      shard.locks.erase(it);
    } else {
      shard.cv.notify_all();
    }
  }
}

bool LockManager::Holds(uint64_t txn_id, const LockKey& key) const {
  const Shard& shard = ShardFor(key);
  std::lock_guard lock(shard.mu);
  auto it = shard.locks.find(key);
  return it != shard.locks.end() && it->second.holder == txn_id;
}

}  // namespace bullfrog
