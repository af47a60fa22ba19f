// bfbench: runs one benchmark workload and prints its metrics.
//
//   bfbench --workload tpcc_split|ycsb_zipf|wire_durable --seed N
//           --seconds S --trace 0|1 [--rate TPS] [--work-dir DIR]
//           [--tiny] [--corrupt CHECK] [--calibrate]
//
// The last stdout line is one JSON object: correct, attempted, failed and
// metrics. --trace 0 reports the gated end-to-end metrics of the named
// workload. --trace 1 runs the named workload untraced once (the
// overhead baseline), then every workload traced, and reports the
// per-layer metrics; bench-side spans are written to
// <work-dir>/spans-<workload>.tsv when the run ends. The ungated
// end-to-end figures (ops_per_s, latencies, migration window, memory),
// sample counts and invariant checks go to stderr. The exit code is 0
// only when every check passed. perfbench/run.py builds this binary and
// pins its environment; use that rather than calling it directly.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "common.h"
#include "workloads.h"

namespace perfbench {
namespace {

using WorkloadFn = std::function<Report(const Options&, SpanLog*)>;

constexpr double kTracedPassSeconds = 10.0;

const std::vector<std::pair<std::string, WorkloadFn>>& Workloads() {
  static const std::vector<std::pair<std::string, WorkloadFn>> kAll = {
      {"tpcc_split", RunTpccSplit},
      {"ycsb_zipf", RunYcsbZipf},
      {"wire_durable", RunWireDurable},
  };
  return kAll;
}

const WorkloadFn* Find(const std::string& name) {
  for (const auto& [n, fn] : Workloads()) {
    if (n == name) return &fn;
  }
  return nullptr;
}

double ValueOf(const std::vector<Metric>& metrics, const std::string& name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return m.value;
  }
  return 0;
}

/// Folds one traced workload's per-layer metrics into `into`. Metrics
/// that several workloads report combine: switch retries add up, the
/// submit stall keeps the worst workload's value.
void MergeLayers(const std::vector<Metric>& from, std::vector<Metric>* into) {
  for (const Metric& m : from) {
    Metric* seen = nullptr;
    for (Metric& e : *into) {
      if (e.name == m.name) seen = &e;
    }
    if (seen == nullptr) {
      into->push_back(m);
    } else if (m.name == "bullfrog.switch_retries") {
      seen->value += m.value;
    } else {
      seen->value = std::max(seen->value, m.value);
    }
  }
}

void PrintNotes(const std::string& workload, const Report& r) {
  for (const Metric& m : r.figures) {
    std::fprintf(stderr, "[%s] figure %s %.17g %s\n", workload.c_str(),
                 m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& n : r.notes) {
    std::fprintf(stderr, "[%s] %s\n", workload.c_str(), n.c_str());
  }
  for (const std::string& c : r.failed_checks) {
    std::fprintf(stderr, "[%s] CHECK FAILED: %s\n", workload.c_str(),
                 c.c_str());
  }
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int Usage() {
  std::fprintf(stderr,
               "usage: bfbench --workload tpcc_split|ycsb_zipf|wire_durable "
               "--seed N --seconds S --trace 0|1 [--rate TPS] "
               "[--work-dir DIR] [--tiny] [--corrupt CHECK] [--calibrate]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Options opts;
  bool trace = false;
  bool calibrate = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      opts.tiny = true;
      continue;
    }
    if (flag == "--calibrate") {
      calibrate = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const char* v = argv[++i];
    if (flag == "--workload") {
      opts.workload = v;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::atof(v);
    } else if (flag == "--trace") {
      trace = std::atoi(v) != 0;
    } else if (flag == "--rate") {
      opts.rate = std::atof(v);
    } else if (flag == "--work-dir") {
      opts.work_dir = v;
    } else if (flag == "--corrupt") {
      opts.corrupt = v;
    } else {
      return Usage();
    }
  }
  const WorkloadFn* primary = Find(opts.workload);
  if (primary == nullptr || opts.seconds <= 0) return Usage();
  if (calibrate) {
    std::printf("capacity_tps %.1f\n", CalibrateTpcc(opts));
    return 0;
  }
  // tpcc_split runs when named and in every traced run.
  if (opts.rate <= 0 && (trace || opts.workload == "tpcc_split")) {
    std::fprintf(stderr, "tpcc_split needs --rate (see rates.json)\n");
    return 2;
  }

  if (!trace) {
    Report r = (*primary)(opts, nullptr);
    PrintNotes(opts.workload, r);
    PrintJson(r.correct, r.attempted, r.failed, r.end_to_end);
    return r.correct ? 0 : 1;
  }

  // Traced: the named workload untraced once as the overhead baseline,
  // then every workload traced (each layer is loaded by one of them).
  // Four workload passes must fit one run's time limit, so each pass is
  // capped; per-layer figures need far fewer samples than the gate.
  opts.seconds = std::min(opts.seconds, kTracedPassSeconds);
  Report base = (*primary)(opts, nullptr);
  PrintNotes(opts.workload + "/untraced", base);
  bool correct = base.correct;
  uint64_t attempted = 0, failed = 0;
  std::vector<Metric> layers;
  double overhead = 0, coverage = 0;
  for (const auto& [name, fn] : Workloads()) {
    Options o = opts;
    o.workload = name;
    SpanLog spans;
    Report t = fn(o, &spans);
    PrintNotes(name + "/traced", t);
    for (const auto& [span, totals] : spans.Aggregate()) {
      std::fprintf(stderr, "[%s/traced] span %-22s count=%llu total_ms=%.1f "
                   "self_ms=%.1f\n", name.c_str(), span.c_str(),
                   static_cast<unsigned long long>(totals.count),
                   static_cast<double>(totals.total_ns) * 1e-6,
                   static_cast<double>(totals.self_ns) * 1e-6);
    }
    const std::string path = opts.work_dir + "/spans-" + name + ".tsv";
    if (!spans.Dump(path)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
    }
    std::fprintf(stderr, "[%s/traced] spans written to %s (%llu dropped)\n",
                 name.c_str(), path.c_str(),
                 static_cast<unsigned long long>(spans.Dropped()));
    correct = correct && t.correct;
    attempted += t.attempted;
    failed += t.failed;
    MergeLayers(t.per_layer, &layers);
    if (name == opts.workload) {
      // Median latency, not throughput: the open loop fixes tpcc's
      // ops/s, and on the contended closed loop tracing lowers the
      // abort rate, so CPU per op can even drop.
      const double base_p50 = ValueOf(base.figures, "p50_ms");
      overhead = base_p50 > 0
                     ? ValueOf(t.figures, "p50_ms") / base_p50 - 1.0
                     : 0;
      coverage = t.span_coverage;
    }
  }
  layers.push_back({"obs.trace_overhead_frac", overhead, "ratio"});
  layers.push_back({"obs.span_coverage", coverage, "ratio"});
  PrintJson(correct, attempted, failed, layers);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
