// Shared pieces of the BullFrog benchmark driver: run options, op
// samples and their window statistics, bench-side spans, the metric
// report, and readers for the counters the engine already exports.
//
// Every workload is a function from Options to Report (see workloads.h).
// The driver measures from its own files only: it times the public calls
// it makes and reads the engine's metric registries; nothing here is
// compiled into the engine.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"

namespace perfbench {

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  /// Tiny data sets and short windows: the benchmark's own tests.
  bool tiny = false;
  /// Scratch directory for WAL segments and span dumps (inside the
  /// checkout the benchmark runs from).
  std::string work_dir = ".";
  /// Offered rate (ops/s) for the open-loop workload; fixed per host in
  /// perfbench/rates.json, never calibrated inside a run.
  double rate = 0;
  /// Names one invariant to violate on purpose after the run, so a test
  /// can prove the checker rejects a corrupted state.
  std::string corrupt;
};

/// One committed operation: when it was due (open loop) or sent (closed
/// loop), and when it finished, both on the run clock (ns).
struct Sample {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// [begin, end) on the run clock, ns.
struct Window {
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
  double seconds() const {
    return static_cast<double>(end_ns - begin_ns) * 1e-9;
  }
  bool Contains(int64_t t) const { return t >= begin_ns && t < end_ns; }
};

/// Nearest-rank percentile of `v` (sorted in place), in the unit stored.
double Percentile(std::vector<double>* v, double p);
double Median(std::vector<double> v);

constexpr int64_t kMs = 1000000;
/// How long an op may keep re-resolving a table the big flip retired.
constexpr int64_t kSwitchDeadlineNs = 10000 * kMs;
/// Wait-die retries that yield before the client starts sleeping: on a
/// shared VM a sleeping thread can wait milliseconds to be woken, which
/// would swamp the txn being measured.
constexpr int kYieldRetries = 20;

/// One migration cycle of a run: the whole measured span, the steady
/// window before the submit, and the submit -> convergence window.
struct Cycle {
  Window measured;
  Window steady;
  Window migrating;
};

/// How a run of `seconds` splits into `cycles` equal cycles: the submit
/// comes 45% into each cycle, and the steady window skips a short
/// warm-up at the cycle start.
struct CyclePlan {
  int cycles = 1;
  int64_t cycle_ns = 0;
  int64_t pre_ns = 0;
  int64_t warm_ns = 0;
};
CyclePlan PlanCycles(double seconds, int cycles);

/// Window statistics over the committed samples of one run: the
/// end-to-end latency and throughput figures every workload reports.
/// ops_per_s, p50_ms and p99_ms pool every op of every cycle;
/// window_p99_ms pools the ops of every cycle's migration window;
/// window_tput_ratio is the median over cycles.
struct WindowStats {
  /// Committed ops started / completed inside the measured windows.
  uint64_t committed = 0;
  uint64_t completed = 0;
  double ops_per_s = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  uint64_t window_samples = 0;
  double window_p99_ms = 0;
  double window_tput_ratio = 0;
  /// Summed latency of the committed ops (s): the client-observed time.
  double op_seconds = 0;
};
WindowStats ComputeWindowStats(const std::vector<Sample>& samples,
                               const std::vector<Cycle>& cycles);

/// Runs `call` as the root of an engine request trace named `name`
/// (recorded into `profiles`) when `traced` is set and `sampler` picks
/// it; otherwise just runs it. This is how the embedded workloads stand
/// in for the server frame that roots traces on the wire path.
template <typename Fn>
auto TracedCall(bool traced, bullfrog::obs::TraceSampler& sampler,
                bullfrog::obs::ProfileStore& profiles, const char* name,
                Fn&& call) -> decltype(call()) {
  if (!traced || !sampler.Sample()) return call();
  auto trace = std::make_shared<bullfrog::obs::TraceContext>(
      bullfrog::obs::TraceSampler::NextTraceId(), name);
  decltype(call()) out;
  {
    bullfrog::obs::TraceBinding bind(trace.get());
    bullfrog::obs::ScopedSpan root(name, bullfrog::obs::Stage::kExecute);
    out = call();
  }
  trace->Finish();
  profiles.Record(std::move(trace));
  return out;
}

/// Engine time attributed below the benchmark's own root: every stage
/// except kExecute, which the root span (TracedCall or the server frame)
/// owns.
int64_t AttributedStageNanos(const bullfrog::obs::ProfileStore& profiles);

/// Bench-side spans around the public calls a workload makes. Each
/// thread appends to its own buffer; nothing leaves memory until Dump.
/// An op is one root span (depth 0) and its call spans (depth 1).
class SpanLog {
 public:
  struct Span {
    uint64_t op = 0;
    const char* name = "";  // Static string.
    int depth = 1;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };
  class Buffer {
   public:
    /// Keeps the first kMaxSpans spans of the thread, which bounds the
    /// traced run's memory and dump size; later spans are only counted.
    void Add(uint64_t op, const char* name, int depth, int64_t start_ns,
             int64_t end_ns) {
      if (spans_.size() >= kMaxSpans) {
        ++dropped_;
        return;
      }
      spans_.push_back(Span{op, name, depth, start_ns, end_ns});
    }

   private:
    friend class SpanLog;
    static constexpr size_t kMaxSpans = 250000;
    std::vector<Span> spans_;
    uint64_t dropped_ = 0;
  };

  /// A per-thread buffer; stable until the log is destroyed.
  Buffer* NewBuffer();

  /// Per-name totals: span count and summed duration (ns); for depth-0
  /// names also the self time (duration minus depth-1 children).
  struct Totals {
    uint64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };
  std::map<std::string, Totals> Aggregate() const;
  /// Durations (ms) of every span named `name`.
  std::vector<double> DurationsMs(const std::string& name) const;
  /// Spans not kept because their thread's buffer was full.
  uint64_t Dropped() const;
  /// Writes one tab-separated line per span: op, depth, name, start, end.
  bool Dump(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// Parses a Prometheus text exposition into series -> value, keyed by
/// the series text as rendered (`name` or `name{labels}`); histogram
/// buckets are skipped, their `_sum`/`_count` series kept.
std::map<std::string, double> ScrapeSeries(const std::string& text);
/// Sums one series over several registries' scrapes (e.g. one per shard).
double SumSeries(const std::vector<std::map<std::string, double>>& scrapes,
                 const std::string& series);

/// Quantile over several histograms with identical bounds (e.g. one per
/// shard), merged bucket by bucket and interpolated within the bucket.
double MergedQuantile(const std::vector<bullfrog::obs::Histogram*>& hists,
                      double q);

/// Peak resident set of this process (getrusage), MB.
double PeakRssMb();
/// User + system CPU time of this process so far (getrusage), seconds.
double ProcessCpuSeconds();

/// Named metrics of one run, printed in insertion order.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Gated end-to-end metrics (BENCHMARK.json), printed in the result.
  std::vector<Metric> end_to_end;
  /// End-to-end figures host phases move too far to gate; stderr only.
  std::vector<Metric> figures;
  std::vector<Metric> per_layer;
  /// Human-readable lines (checks, sample counts, per-cycle figures)
  /// for stderr.
  std::vector<std::string> notes;
  /// Failed invariant checks, by name.
  std::vector<std::string> failed_checks;
  /// Traced runs: the share of client-observed op time that the layers
  /// below the benchmark's calls account for in the engine's traces.
  double span_coverage = 0;

  void E2e(const std::string& name, double v, const std::string& unit) {
    end_to_end.push_back({name, v, unit});
  }
  void Figure(const std::string& name, double v, const std::string& unit) {
    figures.push_back({name, v, unit});
  }
  void Layer(const std::string& name, double v, const std::string& unit) {
    per_layer.push_back({name, v, unit});
  }
  /// Records an invariant check; a failure marks the run incorrect.
  void Check(const std::string& name, bool ok, const std::string& detail);
  void Note(const std::string& line) { notes.push_back(line); }
};

/// Adds the end-to-end metrics every workload shares: the gated ones
/// (ops_per_cpu_s, setup_s) and the figures printed on stderr.
/// `peak_rss_mb` is read when traffic stops, before the statistics pass
/// allocates; `cpu_s` is the process CPU time over the traffic.
void AddEndToEnd(Report* r, const WindowStats& w, double converge_s,
                 double setup_s, double peak_rss_mb, double cpu_s);

/// Run clock: ns since construction.
class RunClock {
 public:
  int64_t Now() const { return bullfrog::Clock::NowNanos() - origin_; }

 private:
  int64_t origin_ = bullfrog::Clock::NowNanos();
};

/// The migration cycles of one run, as driven by RunCycles.
struct CycleRun {
  bool ok = true;
  std::vector<Cycle> windows;
  std::vector<double> converge_s;
  double submit_ms_max = 0;
};

/// Drives `plan` against live traffic that started at `run_start`: each
/// cycle sleeps to its submit point, calls `submit`, polls `converged_s`
/// (seconds from submit to completion, or nullopt while in flight) every
/// millisecond, then sleeps to the cycle's end. A drain that overran its
/// cycle pushes the next one back, so measured windows never overlap.
/// Each cycle records the check `<check_prefix>.converged` in `r`; the
/// first failed cycle ends the run.
CycleRun RunCycles(const CyclePlan& plan, const RunClock& clock,
                   int64_t run_start,
                   const std::function<bullfrog::Status()>& submit,
                   const std::function<std::optional<double>()>& converged_s,
                   const std::string& check_prefix, Report* r);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
