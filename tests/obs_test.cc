// Unit tests for the observability layer (src/obs): metrics registry
// semantics, histogram bucketing/quantiles, Prometheus rendering, the
// migration tracer's bounded ring — plus an integration test that drives
// a real lazy migration through a Database and checks the per-mode
// granule counters (lazy / background / forced) reconcile exactly with
// the migrated-unit total and with controller Progress().

#include <cmath>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bullfrog/database.h"
#include "common/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sql/engine.h"

namespace bullfrog {
namespace {

using obs::MetricsRegistry;
using obs::MigrationTracer;
using obs::TraceEventKind;

/// First sample value for the exact series name (family + label body);
/// -1 when absent.
double MetricValue(const std::string& scrape, const std::string& series) {
  const std::string text = "\n" + scrape;
  const std::string needle = "\n" + series + " ";
  const size_t pos = text.find(needle);
  if (pos == std::string::npos) return -1.0;
  return std::strtod(text.c_str() + pos + needle.size(), nullptr);
}

TEST(MetricsRegistryTest, CounterAndGaugeHandlesAreStable) {
  MetricsRegistry reg;
  obs::Counter* c = reg.GetCounter("frog_hops_total");
  EXPECT_EQ(c, reg.GetCounter("frog_hops_total"));
  c->Inc();
  c->Inc(41);
  EXPECT_EQ(c->value(), 42u);

  obs::Gauge* g = reg.GetGauge("frog_pond_depth");
  EXPECT_EQ(g, reg.GetGauge("frog_pond_depth"));
  g->Set(7);
  g->Add(5);
  g->Sub(2);
  EXPECT_EQ(g->value(), 10);

  // Distinct label bodies are distinct series within one family.
  obs::Counter* a = reg.GetCounter("frog_croaks_total", "kind=\"loud\"");
  obs::Counter* b = reg.GetCounter("frog_croaks_total", "kind=\"soft\"");
  EXPECT_NE(a, b);
  a->Inc(3);
  b->Inc(1);

  const std::string out = reg.RenderPrometheus();
  EXPECT_NE(out.find("# TYPE frog_hops_total counter"), std::string::npos);
  EXPECT_NE(out.find("# TYPE frog_pond_depth gauge"), std::string::npos);
  EXPECT_DOUBLE_EQ(MetricValue(out, "frog_hops_total"), 42.0);
  EXPECT_DOUBLE_EQ(MetricValue(out, "frog_pond_depth"), 10.0);
  EXPECT_DOUBLE_EQ(MetricValue(out, "frog_croaks_total{kind=\"loud\"}"), 3.0);
  EXPECT_DOUBLE_EQ(MetricValue(out, "frog_croaks_total{kind=\"soft\"}"), 1.0);
}

TEST(MetricsRegistryTest, HistogramBucketsSumCountAndQuantiles) {
  MetricsRegistry reg;
  obs::Histogram* h =
      reg.GetHistogram("lat_seconds", "", {0.001, 0.01, 0.1, 1.0});
  // 10 observations: 4 in (..0.001], 3 in (0.001..0.01], 2 in
  // (0.01..0.1], 1 overflowing into +Inf.
  for (int i = 0; i < 4; ++i) h->Observe(0.0005);
  for (int i = 0; i < 3; ++i) h->Observe(0.005);
  for (int i = 0; i < 2; ++i) h->Observe(0.05);
  h->Observe(5.0);

  EXPECT_EQ(h->count(), 10u);
  EXPECT_NEAR(h->sum(), 4 * 0.0005 + 3 * 0.005 + 2 * 0.05 + 5.0, 1e-9);
  EXPECT_EQ(h->BucketCount(0), 4u);
  EXPECT_EQ(h->BucketCount(1), 3u);
  EXPECT_EQ(h->BucketCount(2), 2u);
  EXPECT_EQ(h->BucketCount(3), 0u);
  EXPECT_EQ(h->BucketCount(4), 1u);  // +Inf.

  // Quantiles are monotone and land in the right buckets.
  const double p10 = h->Quantile(0.10);
  const double p50 = h->Quantile(0.50);
  const double p90 = h->Quantile(0.90);
  EXPECT_LE(p10, p50);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p10, 0.001);
  EXPECT_GT(p50, 0.001);
  EXPECT_LE(p50, 0.01);
  // The overflow observation clamps to the last finite bound.
  EXPECT_DOUBLE_EQ(h->Quantile(1.0), 1.0);
  // Empty histogram quantile is 0.
  obs::Histogram* empty = reg.GetHistogram("empty_seconds", "", {1.0});
  EXPECT_DOUBLE_EQ(empty->Quantile(0.99), 0.0);

  // Rendering: cumulative buckets ending in +Inf == _count.
  const std::string out = reg.RenderPrometheus();
  EXPECT_NE(out.find("# TYPE lat_seconds histogram"), std::string::npos);
  EXPECT_DOUBLE_EQ(MetricValue(out, "lat_seconds_bucket{le=\"0.001\"}"), 4.0);
  EXPECT_DOUBLE_EQ(MetricValue(out, "lat_seconds_bucket{le=\"0.01\"}"), 7.0);
  EXPECT_DOUBLE_EQ(MetricValue(out, "lat_seconds_bucket{le=\"0.1\"}"), 9.0);
  EXPECT_DOUBLE_EQ(MetricValue(out, "lat_seconds_bucket{le=\"1\"}"), 9.0);
  EXPECT_DOUBLE_EQ(MetricValue(out, "lat_seconds_bucket{le=\"+Inf\"}"), 10.0);
  EXPECT_DOUBLE_EQ(MetricValue(out, "lat_seconds_count"), 10.0);
}

TEST(MetricsRegistryTest, QuantileClampsAtInfBucketToLastFiniteBound) {
  // Satellite pin: when the requested mass lands in the implicit +Inf
  // bucket, Quantile has no finite upper edge to interpolate toward and
  // must clamp to bounds().back() rather than extrapolate or return Inf.
  MetricsRegistry reg;
  obs::Histogram* h = reg.GetHistogram("inf_seconds", "", {0.01, 0.1});
  h->Observe(50.0);  // Everything overflows into +Inf.
  h->Observe(90.0);
  EXPECT_DOUBLE_EQ(h->Quantile(0.5), 0.1);
  EXPECT_DOUBLE_EQ(h->Quantile(0.99), 0.1);
  EXPECT_DOUBLE_EQ(h->Quantile(1.0), 0.1);
  EXPECT_FALSE(std::isinf(h->Quantile(0.999)));
}

TEST(MetricsRegistryTest, LabelValueEscaping) {
  // Backslash first, then quote and newline — the render must stay one
  // well-formed sample line even for hostile table names.
  EXPECT_EQ(obs::EscapeLabelValue("plain"), "plain");
  EXPECT_EQ(obs::EscapeLabelValue("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::EscapeLabelValue("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::EscapeLabelValue("a\nb"), "a\\nb");
  EXPECT_EQ(obs::EscapeLabelValue("\\\"\n"), "\\\\\\\"\\n");
  EXPECT_EQ(obs::LabelPair("table", "ord\"ers"),
            "table=\"ord\\\"ers\"");
}

TEST(MetricsRegistryTest, HostileTableNameRendersAsOneSampleLine) {
  MetricsRegistry reg;
  const std::string hostile = "acc\"ts\\v2\nDROP";
  obs::Counter* c =
      reg.GetCounter("frog_pulls_total", obs::LabelPair("table", hostile));
  c->Inc(3);
  const std::string out = reg.RenderPrometheus();
  // The raw newline must not appear inside the rendered series.
  EXPECT_NE(out.find("table=\"acc\\\"ts\\\\v2\\nDROP\""), std::string::npos)
      << out;
  // Every line still parses: exactly one space separating name and value.
  size_t lines = 0;
  size_t start = 0;
  while (start < out.size()) {
    size_t end = out.find('\n', start);
    if (end == std::string::npos) end = out.size();
    const std::string line = out.substr(start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;
    ++lines;
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    char* parse_end = nullptr;
    (void)std::strtod(line.c_str() + space + 1, &parse_end);
    EXPECT_EQ(*parse_end, '\0') << "unparseable value: " << line;
  }
  EXPECT_GT(lines, 0u);
}

TEST(MetricsRegistryTest, CallbacksRenderAtScrapeTime) {
  MetricsRegistry reg;
  double live = 1.5;
  reg.SetCallback("water_level", "", [&live] { return live; });
  EXPECT_DOUBLE_EQ(MetricValue(reg.RenderPrometheus(), "water_level"), 1.5);
  live = 2.25;  // No re-registration needed; the scrape sees the update.
  EXPECT_DOUBLE_EQ(MetricValue(reg.RenderPrometheus(), "water_level"), 2.25);
}

TEST(MetricsRegistryTest, ExponentialBoundsAreSortedAndSized) {
  const std::vector<double> b = MetricsRegistry::ExponentialBounds(1e-6, 2.0, 22);
  ASSERT_EQ(b.size(), 22u);
  EXPECT_DOUBLE_EQ(b[0], 1e-6);
  for (size_t i = 1; i < b.size(); ++i) {
    EXPECT_DOUBLE_EQ(b[i], b[i - 1] * 2.0);
  }
}

TEST(MetricsRegistryTest, WalGroupCommitFamiliesRender) {
  // The redo log's group-commit instrumentation: one batch-size and one
  // sync-latency observation per sink call, one ack per released commit.
  MetricsRegistry reg;
  mvcc::SnapshotManager clock;
  RedoLog log(&clock);
  log.BindMetrics(&reg);
  log.SetSink(
      [](const std::vector<LogRecord>&) { return Status::OK(); });
  LogRecord r;
  r.op = LogOp::kInsert;
  r.table = "t";
  ASSERT_TRUE(log.AppendCommitted(1, {r}).ok());
  ASSERT_TRUE(log.AppendCommitted(2, {r}).ok());

  const std::string out = reg.RenderPrometheus();
  EXPECT_NE(out.find("# TYPE bullfrog_wal_group_commit_batch_size histogram"),
            std::string::npos);
  EXPECT_NE(out.find("# TYPE bullfrog_wal_sync_seconds histogram"),
            std::string::npos);
  EXPECT_DOUBLE_EQ(MetricValue(out, "bullfrog_wal_acks_released_total"), 2.0);
  // Two sequential commits -> two sink batches, each observed once.
  EXPECT_DOUBLE_EQ(
      MetricValue(out, "bullfrog_wal_group_commit_batch_size_count"), 2.0);
  EXPECT_DOUBLE_EQ(MetricValue(out, "bullfrog_wal_sync_seconds_count"), 2.0);
}

TEST(MigrationTracerTest, RecordsOldestFirstAndRenders) {
  MigrationTracer tracer(/*capacity=*/8);
  tracer.Record(TraceEventKind::kSubmit, "users_v2", "strategy=lazy");
  tracer.Record(TraceEventKind::kSwitch, "users_v2");
  tracer.Record(TraceEventKind::kComplete, "users_v2", "elapsed_s=0.1");

  const auto events = tracer.Events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, TraceEventKind::kSubmit);
  EXPECT_EQ(events[2].kind, TraceEventKind::kComplete);
  EXPECT_LE(events[0].t_seconds, events[2].t_seconds);
  EXPECT_EQ(events[0].migration, "users_v2");
  EXPECT_EQ(tracer.dropped(), 0u);

  const std::string text = tracer.Render();
  EXPECT_NE(text.find("submit"), std::string::npos);
  EXPECT_NE(text.find("complete"), std::string::npos);
  EXPECT_NE(text.find("users_v2"), std::string::npos);
  EXPECT_NE(text.find("strategy=lazy"), std::string::npos);
}

TEST(MigrationTracerTest, RingDropsOldestBeyondCapacity) {
  MigrationTracer tracer(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    tracer.Record(TraceEventKind::kChunk, "m", "n=" + std::to_string(i));
  }
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
  const auto events = tracer.Events();
  ASSERT_EQ(events.size(), 4u);
  // The survivors are the newest four, oldest-first.
  EXPECT_EQ(events[0].detail, "n=6");
  EXPECT_EQ(events[3].detail, "n=9");
  // Render announces the drop and honours max_events.
  const std::string text = tracer.Render(/*max_events=*/2);
  EXPECT_NE(text.find("dropped"), std::string::npos);
  EXPECT_EQ(text.find("n=7"), std::string::npos);
  EXPECT_NE(text.find("n=9"), std::string::npos);

  tracer.Reset();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(MetricsRegistryTest, ConcurrentObservationIsConsistent) {
  MetricsRegistry reg;
  obs::Counter* c = reg.GetCounter("spins_total");
  obs::Histogram* h =
      reg.GetHistogram("spin_seconds", "", MetricsRegistry::LatencyBounds());
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        c->Inc();
        h->Observe(1e-5);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c->value(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h->count(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_NEAR(h->sum(), kThreads * kPerThread * 1e-5, 1e-6);
}

// Integration: a real lazy migration's granule counters, split by mode,
// must reconcile with the total and with Progress() — every migrated
// unit is attributed to exactly one of lazy (client pull), background
// (sweep chunk), or forced (ON CONFLICT).
TEST(ObservabilityIntegrationTest, LazyAndBackgroundUnitsReconcile) {
  Database db;
  sql::SqlEngine engine(&db);
  ASSERT_TRUE(engine
                  .Execute("CREATE TABLE accts (id INT PRIMARY KEY, "
                           "bal INT)")
                  .ok());
  for (int base = 0; base < 400;) {
    std::string sql = "INSERT INTO accts VALUES ";
    for (int i = 0; i < 100; ++i, ++base) {
      if (i > 0) sql += ", ";
      sql += "(" + std::to_string(base) + ", " + std::to_string(base % 7) +
             ")";
    }
    ASSERT_TRUE(engine.Execute(sql).ok());
  }

  MigrationController::SubmitOptions opts;
  opts.strategy = MigrationStrategy::kLazy;
  opts.lazy.background_start_delay_ms = 100;
  opts.lazy.background_batch = 8;
  opts.lazy.background_pause_us = 100;
  ASSERT_TRUE(engine
                  .SubmitMigrationScript(
                      "CREATE TABLE accts_v2 PRIMARY KEY (id) AS "
                      "SELECT id, bal * 2 AS dbl FROM accts;\n"
                      "DROP TABLE accts;",
                      opts)
                  .ok());

  // Lazy pulls before the background sweep starts: point reads migrate
  // just the granules they touch.
  for (int id = 0; id < 40; id += 4) {
    auto r = engine.Execute("SELECT dbl FROM accts_v2 WHERE id = " +
                            std::to_string(id));
    ASSERT_TRUE(r.ok()) << r.status();
  }
  const std::string mid = db.metrics().RenderPrometheus();
  const double mid_lazy =
      MetricValue(mid, "bullfrog_migration_units_migrated{mode=\"lazy\"}");
  EXPECT_GT(mid_lazy, 0.0) << mid;

  // Let the background sweep finish the rest.
  Stopwatch waited;
  while (!db.controller().IsComplete()) {
    ASSERT_LT(waited.ElapsedSeconds(), 30.0) << "migration never completed";
    Clock::SleepMillis(10);
  }
  EXPECT_DOUBLE_EQ(db.controller().Progress(), 1.0);

  const std::string out = db.metrics().RenderPrometheus();
  const double total = MetricValue(out, "bullfrog_migration_units_migrated");
  const double lazy =
      MetricValue(out, "bullfrog_migration_units_migrated{mode=\"lazy\"}");
  const double background = MetricValue(
      out, "bullfrog_migration_units_migrated{mode=\"background\"}");
  const double forced =
      MetricValue(out, "bullfrog_migration_units_migrated{mode=\"forced\"}");
  EXPECT_GT(total, 0.0) << out;
  EXPECT_GT(lazy, 0.0) << out;
  EXPECT_GT(background, 0.0) << out;
  EXPECT_DOUBLE_EQ(forced, 0.0) << out;  // No ON CONFLICT in this plan.
  EXPECT_DOUBLE_EQ(lazy + background + forced, total) << out;

  // Txn-layer callbacks and the lifecycle trace rode along.
  EXPECT_GT(MetricValue(out, "bullfrog_txn_commits"), 0.0) << out;
  EXPECT_DOUBLE_EQ(MetricValue(out, "bullfrog_migration_complete"), 1.0)
      << out;
  const std::string trace = db.tracer().Render();
  EXPECT_NE(trace.find("submit"), std::string::npos) << trace;
  EXPECT_NE(trace.find("switch"), std::string::npos) << trace;
  EXPECT_NE(trace.find("first_lazy_pull"), std::string::npos) << trace;
  EXPECT_NE(trace.find("background_start"), std::string::npos) << trace;
  EXPECT_NE(trace.find("complete"), std::string::npos) << trace;
}

}  // namespace
}  // namespace bullfrog
