#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <thread>

namespace perfbench {

double Percentile(std::vector<double>* v, double p) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  size_t rank = static_cast<size_t>(p * static_cast<double>(v->size()));
  if (rank >= v->size()) rank = v->size() - 1;
  return (*v)[rank];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

CyclePlan PlanCycles(double seconds, int cycles) {
  CyclePlan p;
  p.cycles = std::max(1, cycles);
  p.cycle_ns = static_cast<int64_t>(seconds / p.cycles * 1e9);
  p.pre_ns = p.cycle_ns * 45 / 100;
  p.warm_ns = std::min<int64_t>(200 * kMs, p.pre_ns / 4);
  return p;
}

WindowStats ComputeWindowStats(const std::vector<Sample>& samples,
                               const std::vector<Cycle>& cycles) {
  struct PerCycle {
    uint64_t steady_done = 0, window_done = 0;
  };
  std::vector<PerCycle> per(cycles.size());
  std::vector<double> all_ms, window_ms;
  uint64_t done = 0;
  double measured_s = 0, op_seconds = 0;
  for (const Cycle& c : cycles) measured_s += c.measured.seconds();
  for (const Sample& s : samples) {
    // Throughput counts completions; latency windows use the start (due
    // or send) time, so a stall shows up on the ops it delayed.
    const double ms = static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
    for (size_t i = 0; i < cycles.size(); ++i) {
      const Cycle& c = cycles[i];
      if (c.measured.Contains(s.end_ns)) ++done;
      if (c.measured.Contains(s.start_ns)) {
        all_ms.push_back(ms);
        op_seconds += ms * 1e-3;
      }
      if (c.steady.Contains(s.end_ns)) ++per[i].steady_done;
      if (c.migrating.Contains(s.end_ns)) ++per[i].window_done;
      if (c.migrating.Contains(s.start_ns)) window_ms.push_back(ms);
    }
  }
  WindowStats out;
  out.committed = all_ms.size();
  out.completed = done;
  out.op_seconds = op_seconds;
  out.ops_per_s = static_cast<double>(done) / measured_s;
  out.p50_ms = Percentile(&all_ms, 0.50);
  out.p99_ms = Percentile(&all_ms, 0.99);
  out.window_samples = window_ms.size();
  out.window_p99_ms = Percentile(&window_ms, 0.99);
  std::vector<double> ratios;
  for (size_t i = 0; i < cycles.size(); ++i) {
    const double steady_rate = static_cast<double>(per[i].steady_done) /
                               cycles[i].steady.seconds();
    const double window_rate = static_cast<double>(per[i].window_done) /
                               cycles[i].migrating.seconds();
    ratios.push_back(steady_rate > 0 ? window_rate / steady_rate : 0);
  }
  out.window_tput_ratio = Median(ratios);
  return out;
}

CycleRun RunCycles(const CyclePlan& plan, const RunClock& clock,
                   int64_t run_start,
                   const std::function<bullfrog::Status()>& submit,
                   const std::function<std::optional<double>()>& converged_s,
                   const std::string& check_prefix, Report* r) {
  CycleRun run;
  for (int cycle = 0; cycle < plan.cycles; ++cycle) {
    const int64_t prev_end =
        run.windows.empty() ? run_start : run.windows.back().measured.end_ns;
    const int64_t cycle_start =
        std::max(run_start + cycle * plan.cycle_ns, prev_end);
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(cycle_start + plan.pre_ns - clock.Now()));
    const int64_t submit_ns = clock.Now();
    const bullfrog::Stopwatch sw;
    const bullfrog::Status st = submit();
    run.submit_ms_max = std::max(run.submit_ms_max, sw.ElapsedSeconds() * 1e3);
    std::optional<double> done;
    while (st.ok() && !(done = converged_s()) &&
           clock.Now() - submit_ns < 120000 * kMs) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    run.ok = st.ok() && done.has_value() && *done > 0;
    r->Check(check_prefix + ".converged", run.ok,
             st.ok() ? "cycle " + std::to_string(cycle)
                     : "submit: " + st.ToString());
    if (!run.ok) break;
    const int64_t cycle_end =
        std::max(cycle_start + plan.cycle_ns, clock.Now() + 100 * kMs);
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(cycle_end - clock.Now()));
    run.windows.push_back(
        {{cycle_start, cycle_end},
         {cycle_start + plan.warm_ns, submit_ns},
         {submit_ns, submit_ns + static_cast<int64_t>(*done * 1e9)}});
    run.converge_s.push_back(*done);
  }
  return run;
}

int64_t AttributedStageNanos(const bullfrog::obs::ProfileStore& profiles) {
  int64_t ns = 0;
  for (int s = 0; s < static_cast<int>(bullfrog::obs::Stage::kNumStages);
       ++s) {
    const auto stage = static_cast<bullfrog::obs::Stage>(s);
    if (stage != bullfrog::obs::Stage::kExecute) {
      ns += profiles.AggregateStageNanos(stage);
    }
  }
  return ns;
}

SpanLog::Buffer* SpanLog::NewBuffer() {
  std::lock_guard lock(mu_);
  buffers_.push_back(std::make_unique<Buffer>());
  return buffers_.back().get();
}

std::map<std::string, SpanLog::Totals> SpanLog::Aggregate() const {
  std::lock_guard lock(mu_);
  std::map<std::string, Totals> out;
  // An op's spans all sit in the buffer of the thread that ran it.
  struct OpTime {
    const char* root = nullptr;
    int64_t child_ns = 0;
  };
  for (const auto& b : buffers_) {
    std::map<uint64_t, OpTime> ops;
    for (const Span& s : b->spans_) {
      const int64_t ns = s.end_ns - s.start_ns;
      Totals& t = out[s.name];
      ++t.count;
      t.total_ns += ns;
      if (s.depth == 0) {
        ops[s.op].root = s.name;
        t.self_ns += ns;
      } else {
        ops[s.op].child_ns += ns;
        t.self_ns += ns;  // Call spans are leaves.
      }
    }
    for (const auto& [op, time] : ops) {
      if (time.root != nullptr) out[time.root].self_ns -= time.child_ns;
    }
  }
  return out;
}

std::vector<double> SpanLog::DurationsMs(const std::string& name) const {
  std::lock_guard lock(mu_);
  std::vector<double> out;
  for (const auto& b : buffers_) {
    for (const Span& s : b->spans_) {
      if (name == s.name) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
      }
    }
  }
  return out;
}

uint64_t SpanLog::Dropped() const {
  std::lock_guard lock(mu_);
  uint64_t n = 0;
  for (const auto& b : buffers_) n += b->dropped_;
  return n;
}

bool SpanLog::Dump(const std::string& path) const {
  std::lock_guard lock(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "op\tdepth\tname\tstart_ns\tend_ns\n");
  for (const auto& b : buffers_) {
    for (const Span& s : b->spans_) {
      std::fprintf(f, "%llu\t%d\t%s\t%lld\t%lld\n",
                   static_cast<unsigned long long>(s.op), s.depth, s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

std::map<std::string, double> ScrapeSeries(const std::string& text) {
  std::map<std::string, double> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    const std::string series = line.substr(0, space);
    if (series.find("_bucket{") != std::string::npos) continue;
    out[series] = std::strtod(line.c_str() + space + 1, nullptr);
  }
  return out;
}

double SumSeries(const std::vector<std::map<std::string, double>>& scrapes,
                 const std::string& series) {
  double v = 0;
  for (const auto& s : scrapes) {
    auto it = s.find(series);
    if (it != s.end()) v += it->second;
  }
  return v;
}

double MergedQuantile(const std::vector<bullfrog::obs::Histogram*>& hists,
                      double q) {
  if (hists.empty()) return 0;
  const std::vector<double>& bounds = hists[0]->bounds();
  uint64_t total = 0;
  for (const auto* h : hists) total += h->count();
  if (total == 0) return 0;
  const double target = q * static_cast<double>(total);
  double cum = 0;
  for (size_t i = 0; i <= bounds.size(); ++i) {
    double c = 0;
    for (const auto* h : hists) c += static_cast<double>(h->BucketCount(i));
    if (c > 0 && cum + c >= target) {
      const double lo = i == 0 ? 0 : bounds[i - 1];
      const double hi = i < bounds.size() ? bounds[i] : bounds.back();
      return lo + (hi - lo) * (target - cum) / c;
    }
    cum += c;
  }
  return bounds.back();
}

double ProcessCpuSeconds() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux.
}

void Report::Check(const std::string& name, bool ok,
                   const std::string& detail) {
  Note(std::string("check ") + name + ": " + (ok ? "ok" : "FAILED") +
       " (" + detail + ")");
  if (!ok) {
    correct = false;
    failed_checks.push_back(name);
  }
}

void AddEndToEnd(Report* r, const WindowStats& w, double converge_s,
                 double setup_s, double peak_rss_mb, double cpu_s) {
  r->E2e("ops_per_cpu_s",
         cpu_s > 0 ? static_cast<double>(w.completed) / cpu_s : 0,
         "ops/cpu_s");
  r->E2e("setup_s", setup_s, "s");
  r->Figure("ops_per_s", w.ops_per_s, "ops/s");
  r->Figure("p50_ms", w.p50_ms, "ms");
  r->Figure("p99_ms", w.p99_ms, "ms");
  r->Figure("window_p99_ms", w.window_p99_ms, "ms");
  r->Figure("window_tput_ratio", w.window_tput_ratio, "ratio");
  r->Figure("converge_s", converge_s, "s");
  r->Figure("failed_frac",
            r->attempted > 0 ? static_cast<double>(r->failed) /
                                   static_cast<double>(r->attempted)
                             : 0,
            "ratio");
  r->Figure("peak_rss_mb", peak_rss_mb, "MB");
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "samples: p50_ms/p99_ms over %llu committed ops, "
                "window_p99_ms over %llu; %.2f CPU-seconds",
                static_cast<unsigned long long>(w.committed),
                static_cast<unsigned long long>(w.window_samples), cpu_s);
  r->Note(buf);
}

}  // namespace perfbench
