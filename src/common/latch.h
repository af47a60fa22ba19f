#ifndef BULLFROG_COMMON_LATCH_H_
#define BULLFROG_COMMON_LATCH_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <vector>

namespace bullfrog {

/// A tiny test-and-test-and-set spinlock for very short critical sections
/// (tracker chunk updates, per-row copies). Satisfies the C++ Lockable
/// requirements so it composes with std::lock_guard.
class SpinLatch {
 public:
  SpinLatch() = default;
  SpinLatch(const SpinLatch&) = delete;
  SpinLatch& operator=(const SpinLatch&) = delete;

  void lock() {
    for (int spins = 0;; ++spins) {
      if (!flag_.load(std::memory_order_relaxed) &&
          !flag_.exchange(true, std::memory_order_acquire)) {
        return;
      }
      if (spins > 256) {
        std::this_thread::yield();
        spins = 0;
      }
    }
  }

  bool try_lock() {
    return !flag_.load(std::memory_order_relaxed) &&
           !flag_.exchange(true, std::memory_order_acquire);
  }

  void unlock() { flag_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool> flag_{false};
};

/// A reader-writer gate that prioritizes writers: once a writer is
/// waiting, new readers block until it has been served. Used for the
/// schema-switch and eager-migration gates, where a continuous stream of
/// client requests (readers) must not starve the migration submit
/// (writer) — std::shared_mutex on glibc prefers readers and can delay
/// the logical switch indefinitely under saturation.
///
/// Satisfies the SharedMutex named requirements, so std::shared_lock /
/// std::unique_lock work.
class WriterPriorityGate {
 public:
  WriterPriorityGate() = default;
  WriterPriorityGate(const WriterPriorityGate&) = delete;
  WriterPriorityGate& operator=(const WriterPriorityGate&) = delete;

  void lock() {
    std::unique_lock lock(mu_);
    ++writers_waiting_;
    writer_cv_.wait(lock, [this] { return !writer_ && readers_ == 0; });
    --writers_waiting_;
    writer_ = true;
  }

  bool try_lock() {
    std::unique_lock lock(mu_);
    if (writer_ || readers_ != 0) return false;
    writer_ = true;
    return true;
  }

  void unlock() {
    {
      std::lock_guard lock(mu_);
      writer_ = false;
    }
    // Wake a waiting writer first; readers recheck writers_waiting_.
    writer_cv_.notify_one();
    reader_cv_.notify_all();
  }

  void lock_shared() {
    std::unique_lock lock(mu_);
    reader_cv_.wait(lock,
                    [this] { return !writer_ && writers_waiting_ == 0; });
    ++readers_;
  }

  bool try_lock_shared() {
    std::unique_lock lock(mu_);
    if (writer_ || writers_waiting_ != 0) return false;
    ++readers_;
    return true;
  }

  void unlock_shared() {
    bool wake;
    {
      std::lock_guard lock(mu_);
      wake = --readers_ == 0;
    }
    if (wake) writer_cv_.notify_one();
  }

 private:
  std::mutex mu_;
  std::condition_variable writer_cv_;
  std::condition_variable reader_cv_;
  int readers_ = 0;
  int writers_waiting_ = 0;
  bool writer_ = false;
};

/// A fixed array of latches indexed by hash, used to partition shared
/// structures (the paper partitions both the bitmap and the hash table to
/// reduce cross-worker latch contention, §3.3/§3.4).
template <typename Latch>
class StripedLatch {
 public:
  explicit StripedLatch(size_t stripes = 64) : latches_(stripes) {}

  Latch& ForHash(uint64_t h) { return latches_[Mix(h) % latches_.size()]; }
  Latch& ForIndex(size_t i) { return latches_[i % latches_.size()]; }
  size_t stripes() const { return latches_.size(); }

 private:
  static uint64_t Mix(uint64_t h) {
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return h;
  }

  std::vector<Latch> latches_;
};

}  // namespace bullfrog

#endif  // BULLFROG_COMMON_LATCH_H_
