#ifndef BULLFROG_COMMON_PUBLISHED_H_
#define BULLFROG_COMMON_PUBLISHED_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>

namespace bullfrog {

/// A small integer naming the calling thread, unique among live threads
/// and recycled when a thread exits.
size_t ThreadIndex();

/// An immutable value published copy-on-write to lock-free readers (the
/// catalog view, the migration routing view).
///
/// Writers build a new value and Publish it; every publication gets an id
/// unique across all Published<T> instances. A reader holds a Ref (id +
/// owning pointer) and keeps using it until Refresh sees the id move —
/// one acquire load, no lock, no shared reference count. Load hands out
/// the current Ref from a per-thread cache that this object owns: a hit
/// costs the id load plus one reference-count increment, and a miss (the
/// first load on a thread after a publication) takes the writer mutex
/// once. Cached Refs die with this object, so nothing it published
/// outlives its owner through a thread's cache.
template <typename T>
class Published {
 public:
  /// A held publication. `ptr` keeps the value (and whatever it owns)
  /// alive for as long as the Ref lives.
  struct Ref {
    uint64_t id = 0;
    std::shared_ptr<const T> ptr;
    const T* operator->() const { return ptr.get(); }
    const T& operator*() const { return *ptr; }
  };

  explicit Published(std::shared_ptr<const T> initial) {
    Publish(std::move(initial));
  }
  ~Published() {
    Chunk* chunk = head_.next.load(std::memory_order_acquire);
    while (chunk != nullptr) {
      Chunk* next = chunk->next.load(std::memory_order_relaxed);
      delete chunk;
      chunk = next;
    }
  }
  Published(const Published&) = delete;
  Published& operator=(const Published&) = delete;

  /// Makes `next` current. Readers holding an older Ref keep it.
  void Publish(std::shared_ptr<const T> next) {
    static std::atomic<uint64_t> next_id{1};
    std::lock_guard lock(mu_);
    current_.ptr = std::move(next);
    current_.id = next_id.fetch_add(1, std::memory_order_relaxed);
    id_.store(current_.id, std::memory_order_release);
  }

  /// Id of the current publication.
  uint64_t id() const { return id_.load(std::memory_order_acquire); }

  /// The current publication.
  Ref Load() const {
    Ref& cached = CacheFor(ThreadIndex());
    if (cached.id != id()) {
      std::lock_guard lock(mu_);
      cached = current_;
    }
    return cached;
  }

  /// Replaces *ref with the current publication if a newer one exists.
  void Refresh(Ref* ref) const {
    if (ref->id != id()) *ref = Load();
  }

 private:
  static constexpr size_t kChunkSlots = 64;
  struct alignas(64) Cached {
    Ref ref;
  };
  struct Chunk {
    Cached slots[kChunkSlots];
    std::atomic<Chunk*> next{nullptr};
  };

  /// The calling thread's cache slot (only that thread touches it while
  /// it lives; a recycled index inherits a Ref that the id check treats
  /// like any stale one).
  Ref& CacheFor(size_t index) const {
    Chunk* chunk = &head_;
    for (; index >= kChunkSlots; index -= kChunkSlots) {
      Chunk* next = chunk->next.load(std::memory_order_acquire);
      if (next == nullptr) {
        auto* fresh = new Chunk();
        if (chunk->next.compare_exchange_strong(next, fresh,
                                                std::memory_order_acq_rel)) {
          next = fresh;
        } else {
          delete fresh;
        }
      }
      chunk = next;
    }
    return chunk->slots[index].ref;
  }

  mutable std::mutex mu_;  // Serializes Publish and cache misses.
  Ref current_;            // Guarded by mu_.
  std::atomic<uint64_t> id_{0};
  mutable Chunk head_;
};

}  // namespace bullfrog

#endif  // BULLFROG_COMMON_PUBLISHED_H_
