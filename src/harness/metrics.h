#ifndef BULLFROG_HARNESS_METRICS_H_
#define BULLFROG_HARNESS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <vector>

namespace bullfrog {

/// Bucket upper bounds (seconds) for the benches' latency histograms
/// (obs::Histogram): 16 exponential steps per power of two from 1 us to
/// 2^31 us (~36 min) — the resolution behind the latency CDFs of the
/// paper's Figures 4/6/8, and fine enough that an interpolated quantile
/// lands within 1/16 of a power of two of the exact one.
std::vector<double> CdfLatencyBounds();

/// Commit counts per time bucket since Start — the throughput timelines
/// of Figures 3/5/7/9-12. The bucket width is configurable: the paper
/// plots per-second points at PostgreSQL speeds; this in-memory engine
/// migrates orders of magnitude faster, so sub-second buckets keep the
/// dip shapes visible. Thread-safe.
///
/// Deliberately separate from obs::TimeseriesSampler: this type counts
/// completions pushed into it by the driver's workers and owns no
/// thread, while the sampler polls registered callbacks on its own
/// thread into a bounded ring. One type serving both would branch on
/// which caller it serves.
class ThroughputTimeline {
 public:
  explicit ThroughputTimeline(int max_seconds = 3600,
                              double bucket_s = 1.0);

  double bucket_seconds() const { return bucket_s_; }

  /// Records one completed transaction at `elapsed_s` seconds from start.
  void Record(double elapsed_s);

  /// Commit counts per bucket, truncated to the last recorded bucket.
  std::vector<uint64_t> Series() const;

  void Reset();

 private:
  double bucket_s_;
  std::vector<std::atomic<uint64_t>> buckets_;
  std::atomic<int> max_recorded_{-1};
};

}  // namespace bullfrog

#endif  // BULLFROG_HARNESS_METRICS_H_
