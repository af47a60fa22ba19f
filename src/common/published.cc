#include "common/published.h"

#include <vector>

namespace bullfrog {

namespace {

struct IndexRegistry {
  std::mutex mu;
  std::vector<size_t> free;
  size_t next = 0;
};

// Leaked on purpose: threads may exit after static destruction begins.
IndexRegistry& Registry() {
  static auto* registry = new IndexRegistry();
  return *registry;
}

struct ThreadIndexHolder {
  size_t index;
  ThreadIndexHolder() {
    IndexRegistry& r = Registry();
    std::lock_guard lock(r.mu);
    if (r.free.empty()) {
      index = r.next++;
    } else {
      index = r.free.back();
      r.free.pop_back();
    }
  }
  ~ThreadIndexHolder() {
    IndexRegistry& r = Registry();
    std::lock_guard lock(r.mu);
    r.free.push_back(index);
  }
};

}  // namespace

size_t ThreadIndex() {
  thread_local ThreadIndexHolder holder;
  return holder.index;
}

}  // namespace bullfrog
