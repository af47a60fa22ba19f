#include "harness/driver.h"

#include <algorithm>

namespace bullfrog {

OpenLoopDriver::OpenLoopDriver(Options options, WorkFn work)
    : options_(std::move(options)),
      work_(std::move(work)),
      timeline_(3600, options_.timeline_bucket_s) {
  if (options_.labels.empty()) options_.labels = {"all"};
  latency_.reserve(options_.labels.size());
  for (size_t i = 0; i < options_.labels.size(); ++i) {
    latency_.push_back(std::make_unique<obs::Histogram>(CdfLatencyBounds()));
  }
}

OpenLoopDriver::~OpenLoopDriver() {
  if (started_.load() && !stop_.load()) (void)Stop();
}

void OpenLoopDriver::Start() {
  if (started_.exchange(true)) return;
  since_start_.Restart();
  if (options_.rate_tps > 0) {
    ticker_ = std::thread([this] { TickerLoop(); });
  }
  workers_.reserve(static_cast<size_t>(options_.threads));
  for (int i = 0; i < options_.threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

size_t OpenLoopDriver::QueueDepth() const {
  std::lock_guard lock(queue_mu_);
  return queue_.size();
}

void OpenLoopDriver::TickerLoop() {
  const double interval_ns = 1e9 / options_.rate_tps;
  double next_ns = 0;
  Stopwatch sw;
  while (!stop_.load(std::memory_order_acquire)) {
    next_ns += interval_ns;
    const auto now_ns = static_cast<double>(sw.ElapsedNanos());
    if (now_ns < next_ns) {
      Clock::SleepMicros(static_cast<int64_t>((next_ns - now_ns) / 1000) + 1);
    }
    {
      std::lock_guard lock(queue_mu_);
      queue_.push_back(Clock::NowNanos());
      peak_queue_ = std::max(peak_queue_, queue_.size());
    }
    queue_cv_.notify_one();
  }
}

void OpenLoopDriver::WorkerLoop(int worker_id) {
  const bool open_loop = options_.rate_tps > 0;
  while (!stop_.load(std::memory_order_acquire)) {
    int64_t enqueue_ns;
    if (open_loop) {
      std::unique_lock lock(queue_mu_);
      queue_cv_.wait_for(lock, std::chrono::milliseconds(20), [this] {
        return !queue_.empty() || stop_.load(std::memory_order_acquire);
      });
      if (queue_.empty()) continue;
      enqueue_ns = queue_.front();
      queue_.pop_front();
    } else {
      enqueue_ns = Clock::NowNanos();
    }
    RunOne(worker_id, enqueue_ns);
  }
}

void OpenLoopDriver::RunOne(int worker_id, int64_t enqueue_ns) {
  int label = 0;
  for (int attempt = 0;; ++attempt) {
    auto [lbl, status] = work_(worker_id);
    label = lbl;
    if (status.ok()) break;
    if (!status.IsRetryable() || attempt >= options_.max_retries ||
        stop_.load(std::memory_order_acquire)) {
      failures_.fetch_add(1, std::memory_order_relaxed);
      {
        std::lock_guard lock(failure_mu_);
        if (sample_failure_.empty()) sample_failure_ = status.ToString();
      }
      return;
    }
    retries_.fetch_add(1, std::memory_order_relaxed);
  }
  const int64_t done_ns = Clock::NowNanos();
  committed_.fetch_add(1, std::memory_order_relaxed);
  if (label >= 0 && label < static_cast<int>(latency_.size())) {
    latency_[static_cast<size_t>(label)]->ObserveNanos(done_ns - enqueue_ns);
  }
  timeline_.Record(since_start_.ElapsedSeconds());
}

OpenLoopDriver::Report OpenLoopDriver::Stop() {
  Report report;
  stop_.store(true, std::memory_order_release);
  queue_cv_.notify_all();
  if (ticker_.joinable()) ticker_.join();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();

  report.duration_s = since_start_.ElapsedSeconds();
  report.per_second_commits = timeline_.Series();
  report.timeline_bucket_s = timeline_.bucket_seconds();
  report.latency = std::move(latency_);
  report.committed = committed_.load();
  report.retries = retries_.load();
  report.failures = failures_.load();
  {
    std::lock_guard lock(queue_mu_);
    report.peak_queue = peak_queue_;
  }
  {
    std::lock_guard lock(failure_mu_);
    report.sample_failure = sample_failure_;
  }
  report.throughput_tps =
      report.duration_s > 0
          ? static_cast<double>(report.committed) / report.duration_s
          : 0;
  return report;
}

}  // namespace bullfrog
