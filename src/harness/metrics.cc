#include "harness/metrics.h"

#include <cmath>

#include "obs/metrics.h"

namespace bullfrog {

std::vector<double> CdfLatencyBounds() {
  constexpr int kStepsPerDoubling = 16;
  constexpr int kDoublings = 31;  // 2^0 .. 2^31 microseconds.
  return obs::MetricsRegistry::ExponentialBounds(
      1e-6, std::exp2(1.0 / kStepsPerDoubling),
      kDoublings * kStepsPerDoubling + 1);
}

ThroughputTimeline::ThroughputTimeline(int max_seconds, double bucket_s)
    : bucket_s_(bucket_s <= 0 ? 1.0 : bucket_s),
      buckets_(static_cast<size_t>(max_seconds / bucket_s_) + 1) {
  Reset();
}

void ThroughputTimeline::Reset() {
  for (auto& s : buckets_) s.store(0, std::memory_order_relaxed);
  max_recorded_.store(-1, std::memory_order_relaxed);
}

void ThroughputTimeline::Record(double elapsed_s) {
  auto bucket = static_cast<int>(elapsed_s / bucket_s_);
  if (bucket < 0) bucket = 0;
  if (bucket >= static_cast<int>(buckets_.size())) {
    bucket = static_cast<int>(buckets_.size()) - 1;
  }
  buckets_[static_cast<size_t>(bucket)].fetch_add(1,
                                                  std::memory_order_relaxed);
  int prev = max_recorded_.load(std::memory_order_relaxed);
  while (prev < bucket && !max_recorded_.compare_exchange_weak(
                              prev, bucket, std::memory_order_relaxed)) {
  }
}

std::vector<uint64_t> ThroughputTimeline::Series() const {
  const int last = max_recorded_.load(std::memory_order_relaxed);
  std::vector<uint64_t> out;
  for (int s = 0; s <= last; ++s) {
    out.push_back(buckets_[static_cast<size_t>(s)].load(
        std::memory_order_relaxed));
  }
  return out;
}

}  // namespace bullfrog
