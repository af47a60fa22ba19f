#include <algorithm>
#include <atomic>
#include <cmath>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "harness/driver.h"
#include "harness/metrics.h"
#include "harness/reporter.h"
#include "obs/metrics.h"

namespace bullfrog {
namespace {

obs::Histogram CdfHistogram() { return obs::Histogram(CdfLatencyBounds()); }

TEST(CdfLatencyTest, QuantilesOrderedAndBracketing) {
  obs::Histogram h = CdfHistogram();
  // 1000 samples at ~1ms, 10 at ~100ms.
  for (int i = 0; i < 1000; ++i) h.ObserveNanos(1'000'000);
  for (int i = 0; i < 10; ++i) h.ObserveNanos(100'000'000);
  EXPECT_EQ(h.count(), 1010u);
  const double p50 = h.Quantile(0.5);
  const double p999 = h.Quantile(0.999);
  EXPECT_GT(p50, 0.0005);
  EXPECT_LT(p50, 0.002);
  EXPECT_GT(p999, 0.05);
  EXPECT_LE(p50, p999);
}

TEST(CdfLatencyTest, CdfIsMonotonicAndEndsAtOne) {
  obs::Histogram h = CdfHistogram();
  for (int i = 1; i <= 100; ++i) {
    h.ObserveNanos(static_cast<int64_t>(i) * 500'000);
  }
  testing::internal::CaptureStdout();
  PrintLatencyCdf("s", h);
  std::istringstream out(testing::internal::GetCapturedStdout());
  std::string line;
  std::getline(out, line);  // "# latency CDF: ..." header.
  std::vector<std::pair<double, double>> cdf;
  std::string name;
  double latency_s, fraction;
  while (out >> name >> latency_s >> fraction) {
    cdf.emplace_back(latency_s, fraction);
  }
  ASSERT_FALSE(cdf.empty());
  for (size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_LE(cdf[i - 1].second, cdf[i].second);
    EXPECT_LT(cdf[i - 1].first, cdf[i].first);
  }
  EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
}

TEST(CdfLatencyTest, ExtremeValuesClamped) {
  obs::Histogram h = CdfHistogram();
  h.ObserveNanos(1);                    // Below 1us.
  h.ObserveNanos(int64_t{1} << 62);     // Absurdly large.
  EXPECT_EQ(h.count(), 2u);
  EXPECT_GT(h.Quantile(0.99), 0.0);
}

// The layout keeps 16 bounds per power of two across 1 us .. >= 1000 s,
// so p50/p99/p99.9 of a sample spanning 10 us .. 100 ms land within
// 1/16 of a power of two of the exact order statistics.
TEST(CdfLatencyTest, QuantilesWithinASixteenthOfAPowerOfTwo) {
  const std::vector<double> bounds = CdfLatencyBounds();
  EXPECT_DOUBLE_EQ(bounds.front(), 1e-6);
  EXPECT_GE(bounds.back(), 1000.0);
  EXPECT_EQ(std::count_if(bounds.begin(), bounds.end(),
                          [](double b) { return b >= 1e-3 && b < 2e-3; }),
            16);

  obs::Histogram h(bounds);
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> exponent(-5.0, -1.0);
  std::vector<double> sample(20000);
  for (double& v : sample) {
    v = std::pow(10.0, exponent(rng));
    h.Observe(v);
  }
  std::sort(sample.begin(), sample.end());
  for (double q : {0.5, 0.99, 0.999}) {
    const double exact =
        sample[static_cast<size_t>(q * static_cast<double>(sample.size()))];
    EXPECT_LE(std::abs(std::log2(h.Quantile(q) / exact)), 1.0 / 16 + 1e-9)
        << "q=" << q << " exact=" << exact << " est=" << h.Quantile(q);
  }
}

TEST(ThroughputTimelineTest, BucketsBySecond) {
  ThroughputTimeline t(100);
  t.Record(0.1);
  t.Record(0.9);
  t.Record(2.5);
  auto series = t.Series();
  ASSERT_EQ(series.size(), 3u);
  EXPECT_EQ(series[0], 2u);
  EXPECT_EQ(series[1], 0u);
  EXPECT_EQ(series[2], 1u);
}

TEST(ThroughputTimelineTest, OutOfRangeClamped) {
  ThroughputTimeline t(10);
  t.Record(-1.0);
  t.Record(1e9);
  auto series = t.Series();
  ASSERT_FALSE(series.empty());
  EXPECT_EQ(series.front(), 1u);
  EXPECT_EQ(series.back(), 1u);
  uint64_t total = 0;
  for (uint64_t v : series) total += v;
  EXPECT_EQ(total, 2u);
}

TEST(ThroughputTimelineTest, SubSecondBuckets) {
  ThroughputTimeline t(10, 0.25);
  t.Record(0.1);
  t.Record(0.3);
  t.Record(0.35);
  auto series = t.Series();
  ASSERT_EQ(series.size(), 2u);
  EXPECT_EQ(series[0], 1u);
  EXPECT_EQ(series[1], 2u);
  EXPECT_DOUBLE_EQ(t.bucket_seconds(), 0.25);
}

TEST(OpenLoopDriverTest, ClosedLoopExecutesWork) {
  std::atomic<uint64_t> executed{0};
  OpenLoopDriver::Options opts;
  opts.threads = 4;
  opts.rate_tps = 0;  // Closed loop.
  opts.labels = {"work"};
  OpenLoopDriver driver(opts, [&](int) {
    executed.fetch_add(1);
    return std::make_pair(0, Status::OK());
  });
  driver.Start();
  Clock::SleepMillis(200);
  auto report = driver.Stop();
  EXPECT_GT(report.committed, 100u);
  EXPECT_EQ(report.committed, executed.load());
  EXPECT_EQ(report.failures, 0u);
  EXPECT_GT(report.throughput_tps, 0.0);
  ASSERT_EQ(report.latency.size(), 1u);
  EXPECT_EQ(report.latency[0]->count(), report.committed);
}

TEST(OpenLoopDriverTest, OpenLoopApproximatesOfferedRate) {
  OpenLoopDriver::Options opts;
  opts.threads = 4;
  opts.rate_tps = 500;
  OpenLoopDriver driver(opts, [&](int) {
    return std::make_pair(0, Status::OK());
  });
  driver.Start();
  Clock::SleepMillis(1000);
  auto report = driver.Stop();
  // Within a generous band of the offered 500 TPS.
  EXPECT_GT(report.committed, 300u);
  EXPECT_LT(report.committed, 700u);
}

TEST(OpenLoopDriverTest, RetriesRetryableFailures) {
  std::atomic<int> calls{0};
  OpenLoopDriver::Options opts;
  opts.threads = 1;
  opts.rate_tps = 0;
  OpenLoopDriver driver(opts, [&](int) {
    // Every third call succeeds.
    if (calls.fetch_add(1) % 3 != 2) {
      return std::make_pair(0, Status::TxnConflict("retry me"));
    }
    return std::make_pair(0, Status::OK());
  });
  driver.Start();
  Clock::SleepMillis(100);
  auto report = driver.Stop();
  EXPECT_GT(report.retries, 0u);
  EXPECT_GT(report.committed, 0u);
  // Stop() may cut one in-flight retry short per worker.
  EXPECT_LE(report.failures, 1u);
}

TEST(OpenLoopDriverTest, NonRetryableCountsAsFailure) {
  OpenLoopDriver::Options opts;
  opts.threads = 1;
  opts.rate_tps = 0;
  OpenLoopDriver driver(opts, [&](int) {
    return std::make_pair(0, Status::Internal("fatal"));
  });
  driver.Start();
  Clock::SleepMillis(50);
  auto report = driver.Stop();
  EXPECT_EQ(report.committed, 0u);
  EXPECT_GT(report.failures, 0u);
}

TEST(OpenLoopDriverTest, QueueBuildsWhenWorkersSaturated) {
  OpenLoopDriver::Options opts;
  opts.threads = 1;
  opts.rate_tps = 500;  // Each request takes ~5ms -> max ~200/s.
  OpenLoopDriver driver(opts, [&](int) {
    Clock::SleepMillis(5);
    return std::make_pair(0, Status::OK());
  });
  driver.Start();
  Clock::SleepMillis(500);
  const size_t depth = driver.QueueDepth();
  auto report = driver.Stop();
  EXPECT_GT(depth, 10u);  // Backlog accumulated.
  EXPECT_GT(report.peak_queue, 10u);
  // Queueing delay shows up in latency (paper's saturation behaviour).
  EXPECT_GT(report.latency[0]->Quantile(0.9), 0.05);
}

TEST(OpenLoopDriverTest, PerLabelLatencySeparated) {
  std::atomic<int> n{0};
  OpenLoopDriver::Options opts;
  opts.threads = 2;
  opts.rate_tps = 0;
  opts.labels = {"fast", "slow"};
  OpenLoopDriver driver(opts, [&](int) {
    const int i = n.fetch_add(1);
    if (i % 2 == 0) return std::make_pair(0, Status::OK());
    Clock::SleepMillis(2);
    return std::make_pair(1, Status::OK());
  });
  driver.Start();
  Clock::SleepMillis(200);
  auto report = driver.Stop();
  ASSERT_EQ(report.latency.size(), 2u);
  EXPECT_GT(report.latency[0]->count(), 0u);
  EXPECT_GT(report.latency[1]->count(), 0u);
  EXPECT_LT(report.latency[0]->Quantile(0.5),
            report.latency[1]->Quantile(0.5));
}

}  // namespace
}  // namespace bullfrog
