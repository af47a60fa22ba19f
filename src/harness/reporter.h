#ifndef BULLFROG_HARNESS_REPORTER_H_
#define BULLFROG_HARNESS_REPORTER_H_

#include <string>
#include <vector>

#include "harness/driver.h"
#include "obs/metrics.h"

namespace bullfrog {

/// Plain-text emitters for the figure benches. Output format is one
/// gnuplot-friendly series per line group, with '#' comment markers for
/// the milestone circles the paper draws on its plots.

/// Prints "time tx/s" rows for a run, preceded by a header. `bucket_s`
/// is the timeline bucket width; counts are normalized to tx/s.
void PrintThroughputSeries(const std::string& series_name,
                           const std::vector<uint64_t>& per_bucket,
                           double bucket_s = 1.0);

/// Prints milestone markers (migration start, end, background start...).
void PrintMarker(const std::string& name, double seconds);

/// Prints a latency CDF: "latency_s cumulative_fraction" rows, one per
/// non-empty bucket at its upper bound (the +Inf bucket at the last
/// finite bound).
void PrintLatencyCdf(const std::string& series_name,
                     const obs::Histogram& histogram);

/// Prints the summary line (commits, tps, p50/p99) for a run.
void PrintSummary(const std::string& series_name,
                  const OpenLoopDriver::Report& report, int label_index = 0);

/// Renders "label: count=N p50=..s p90=..s p99=..s" for a histogram —
/// the per-opcode latency lines of the server's ADMIN report.
std::string RenderLatencySummary(const std::string& label,
                                 const obs::Histogram& histogram);

}  // namespace bullfrog

#endif  // BULLFROG_HARNESS_REPORTER_H_
