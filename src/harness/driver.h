#ifndef BULLFROG_HARNESS_DRIVER_H_
#define BULLFROG_HARNESS_DRIVER_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "harness/metrics.h"
#include "obs/metrics.h"

namespace bullfrog {

/// An OLTP-Bench-style open-loop workload driver.
///
/// A ticker thread enqueues requests at a fixed rate; worker threads
/// dequeue and execute them. End-to-end latency is measured from enqueue
/// to completion, so queueing delay is included — which is how the
/// paper's latency figures surface eager migration's downtime (requests
/// submitted during the blocked window carry the whole wait).
///
/// With rate == 0 the driver runs closed-loop (workers execute
/// back-to-back), which is how maximum throughput is calibrated
/// ("increasing the rate that clients submit requests until the latency
/// starts to increase due to queuing delays", §4).
class OpenLoopDriver {
 public:
  struct Options {
    int threads = 8;
    /// Offered load in requests/second; 0 = closed loop.
    double rate_tps = 0;
    /// Give up retrying a request after this many retryable failures.
    int max_retries = 64;
    /// Throughput timeline bucket width (seconds).
    double timeline_bucket_s = 0.25;
    /// Labels for per-class latency reporting (e.g. TPC-C types).
    std::vector<std::string> labels;
  };

  /// Executes one request on behalf of `worker_id` and returns its label
  /// index (into Options::labels) plus the outcome status. Called
  /// repeatedly until Stop.
  using WorkFn = std::function<std::pair<int, Status>(int worker_id)>;

  OpenLoopDriver(Options options, WorkFn work);
  ~OpenLoopDriver();

  OpenLoopDriver(const OpenLoopDriver&) = delete;
  OpenLoopDriver& operator=(const OpenLoopDriver&) = delete;

  /// Launches ticker + workers. The clock for the throughput timeline
  /// starts now.
  void Start();

  /// Seconds since Start.
  double ElapsedSeconds() const { return since_start_.ElapsedSeconds(); }

  /// Current request-queue depth (0 in closed-loop mode).
  size_t QueueDepth() const;

  struct Report {
    /// Commit counts per timeline bucket (width = timeline_bucket_s).
    std::vector<uint64_t> per_second_commits;
    double timeline_bucket_s = 1.0;
    /// One histogram per label (same order as Options::labels), in
    /// seconds over CdfLatencyBounds().
    std::vector<std::unique_ptr<obs::Histogram>> latency;
    uint64_t committed = 0;
    uint64_t retries = 0;
    uint64_t failures = 0;  ///< Requests dropped after max_retries.
    /// First non-retryable failure observed (diagnostic).
    std::string sample_failure;
    uint64_t peak_queue = 0;
    double duration_s = 0;
    double throughput_tps = 0;
  };

  /// Stops the driver and returns the collected metrics.
  Report Stop();

 private:
  void TickerLoop();
  void WorkerLoop(int worker_id);
  /// Runs one request (with retry) and records metrics.
  void RunOne(int worker_id, int64_t enqueue_ns);

  Options options_;
  WorkFn work_;

  std::vector<std::thread> workers_;
  std::thread ticker_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> started_{false};
  Stopwatch since_start_;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<int64_t> queue_;  // Enqueue timestamps (ns).
  uint64_t peak_queue_ = 0;

  ThroughputTimeline timeline_{3600, 0.25};
  std::vector<std::unique_ptr<obs::Histogram>> latency_;
  std::atomic<uint64_t> committed_{0};
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> failures_{0};
  std::mutex failure_mu_;
  std::string sample_failure_;
};

}  // namespace bullfrog

#endif  // BULLFROG_HARNESS_DRIVER_H_
