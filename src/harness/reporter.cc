#include "harness/reporter.h"

#include <algorithm>
#include <cstdio>

namespace bullfrog {

void PrintThroughputSeries(const std::string& series_name,
                           const std::vector<uint64_t>& per_bucket,
                           double bucket_s) {
  if (bucket_s <= 0) bucket_s = 1.0;
  std::printf("# throughput series: %s (seconds txns/sec)\n",
              series_name.c_str());
  for (size_t s = 0; s < per_bucket.size(); ++s) {
    std::printf("%s %.2f %.0f\n", series_name.c_str(),
                static_cast<double>(s) * bucket_s,
                static_cast<double>(per_bucket[s]) / bucket_s);
  }
}

void PrintMarker(const std::string& name, double seconds) {
  if (seconds < 0) {
    std::printf("# marker %s: (not reached)\n", name.c_str());
  } else {
    std::printf("# marker %s: %.2f s\n", name.c_str(), seconds);
  }
}

void PrintLatencyCdf(const std::string& series_name,
                     const obs::Histogram& histogram) {
  std::printf("# latency CDF: %s (latency_s cumulative_fraction)\n",
              series_name.c_str());
  const std::vector<double>& bounds = histogram.bounds();
  const uint64_t total = histogram.count();
  if (total == 0 || bounds.empty()) return;
  uint64_t cum = 0;
  for (size_t b = 0; b <= bounds.size(); ++b) {
    const uint64_t n = histogram.BucketCount(b);
    if (n == 0) continue;
    cum += n;
    std::printf("%s %.6f %.4f\n", series_name.c_str(),
                bounds[std::min(b, bounds.size() - 1)],
                static_cast<double>(cum) / static_cast<double>(total));
  }
}

void PrintSummary(const std::string& series_name,
                  const OpenLoopDriver::Report& report, int label_index) {
  double p50 = 0, p99 = 0;
  if (label_index >= 0 &&
      label_index < static_cast<int>(report.latency.size())) {
    const obs::Histogram& h = *report.latency[static_cast<size_t>(label_index)];
    p50 = h.Quantile(0.5);
    p99 = h.Quantile(0.99);
  }
  std::printf(
      "# summary %s: committed=%llu tps=%.1f retries=%llu failures=%llu "
      "peak_queue=%llu p50=%.4fs p99=%.4fs\n",
      series_name.c_str(), static_cast<unsigned long long>(report.committed),
      report.throughput_tps, static_cast<unsigned long long>(report.retries),
      static_cast<unsigned long long>(report.failures),
      static_cast<unsigned long long>(report.peak_queue), p50, p99);
  if (!report.sample_failure.empty()) {
    std::printf("# summary %s: sample_failure=%s\n", series_name.c_str(),
                report.sample_failure.c_str());
  }
}

std::string RenderLatencySummary(const std::string& label,
                                 const obs::Histogram& histogram) {
  char line[192];
  std::snprintf(line, sizeof(line),
                "%s: count=%llu p50=%.6fs p90=%.6fs p99=%.6fs", label.c_str(),
                static_cast<unsigned long long>(histogram.count()),
                histogram.Quantile(0.5),
                histogram.Quantile(0.9),
                histogram.Quantile(0.99));
  return line;
}

}  // namespace bullfrog
