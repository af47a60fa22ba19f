// Unit tests for request tracing (src/obs/request_trace.h) and the
// timeseries sampler, plus engine-level integration: span trees, stage
// attribution, thread-local propagation, the profile/slowlog stores, and
// the migrate-pull first-touch/warm-read contract through a real lazy
// migration.

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bullfrog/database.h"
#include "common/clock.h"
#include "obs/request_trace.h"
#include "obs/timeseries.h"
#include "sql/engine.h"

namespace bullfrog {
namespace {

using obs::ProfileStore;
using obs::ScopedSpan;
using obs::Stage;
using obs::TraceBinding;
using obs::TraceContext;
using obs::TraceSampler;

TEST(TraceContextTest, StageAccumulationSeparatesTimeAndCount) {
  TraceContext t(42, "SELECT 1");
  t.AddStage(Stage::kMigratePull, 0, 7);       // Count-only (migrator).
  t.AddStage(Stage::kMigratePull, 1000000, 0); // Time-only (clock owner).
  t.AddStage(Stage::kLockWait, 500, 1);
  EXPECT_EQ(t.StageCount(Stage::kMigratePull), 7u);
  EXPECT_EQ(t.StageNanos(Stage::kMigratePull), 1000000);
  EXPECT_EQ(t.StageCount(Stage::kLockWait), 1u);
  EXPECT_EQ(t.StageNanos(Stage::kWalSync), 0);
}

TEST(TraceContextTest, FinishIsIdempotentAndTotalIsLiveBefore) {
  TraceContext t(1);
  EXPECT_FALSE(t.finished());
  const int64_t live = t.total_ns();
  EXPECT_GE(live, 0);
  t.Finish();
  ASSERT_TRUE(t.finished());
  const int64_t total = t.total_ns();
  Clock::SleepMillis(5);
  t.Finish();  // No-op.
  EXPECT_EQ(t.total_ns(), total);
}

TEST(TraceContextTest, RenderShowsIdStagesAndIndentedSpans) {
  TraceContext t(0xabcdef, "SELECT * FROM frogs");
  const int64_t base = t.start_ns();
  t.RecordSpan("execute", base, 4000000, "", 1);
  t.RecordSpan("migrate_pull", base + 1000000, 2000000,
               "table=frogs units=3", 2);
  t.AddStage(Stage::kMigratePull, 2000000, 3);
  t.Finish();
  const std::string out = t.Render();
  EXPECT_NE(out.find("trace id=0x0000000000abcdef"), std::string::npos) << out;
  EXPECT_NE(out.find("sql=\"SELECT * FROM frogs\""), std::string::npos) << out;
  EXPECT_NE(out.find("migrate_pull=2.000ms(3)"), std::string::npos) << out;
  // Children are indented twice the depth.
  EXPECT_NE(out.find("\n  [+"), std::string::npos) << out;
  EXPECT_NE(out.find("\n    [+"), std::string::npos) << out;
  EXPECT_NE(out.find("table=frogs units=3"), std::string::npos) << out;
}

TEST(TraceContextTest, AccountedNanosSumsOnlyDepthOneSpans) {
  TraceContext t(5);
  const int64_t base = t.start_ns();
  t.RecordSpan("a", base, 100, "", 1);
  t.RecordSpan("b", base + 100, 200, "", 1);
  t.RecordSpan("a.child", base + 10, 50, "", 2);  // Not double counted.
  EXPECT_EQ(t.AccountedNanos(), 300);
}

TEST(ScopedSpanTest, NoOpWithoutBindingRecordsWithBinding) {
  {
    ScopedSpan span("orphan", Stage::kExecute);  // No trace bound: no-op.
    EXPECT_FALSE(span.active());
  }
  TraceContext t(7);
  {
    TraceBinding bind(&t);
    EXPECT_EQ(obs::CurrentTrace(), &t);
    ScopedSpan outer("outer", Stage::kExecute);
    EXPECT_TRUE(outer.active());
    {
      ScopedSpan inner("inner");
      Clock::SleepMicros(200);
    }
  }
  EXPECT_EQ(obs::CurrentTrace(), nullptr);
  t.Finish();
  EXPECT_GT(t.StageNanos(Stage::kExecute), 0);
  EXPECT_EQ(t.StageCount(Stage::kExecute), 1u);
  const std::string out = t.Render();
  EXPECT_NE(out.find("] outer"), std::string::npos) << out;
  EXPECT_NE(out.find("] inner"), std::string::npos) << out;
  // AccountedNanos == the single depth-1 span.
  EXPECT_EQ(t.AccountedNanos(), t.StageNanos(Stage::kExecute));
}

TEST(ScopedSpanTest, CrossThreadFanOutAccumulatesIntoOneTrace) {
  TraceContext t(9);
  std::vector<std::thread> workers;
  {
    TraceBinding bind(&t);
    ScopedSpan fanout("fanout", Stage::kShardWait);
    const int depth = obs::CurrentTraceDepth();
    for (int i = 0; i < 4; ++i) {
      workers.emplace_back([&t, depth, i] {
        TraceBinding worker_bind(&t, depth + 1);
        ScopedSpan shard("shard");
        shard.SetDetail("shard=" + std::to_string(i));
        t.AddStage(Stage::kMigratePull, 0, 1);
        Clock::SleepMicros(100);
      });
    }
    for (auto& w : workers) w.join();
  }
  t.Finish();
  EXPECT_EQ(t.StageCount(Stage::kMigratePull), 4u);
  const std::string out = t.Render();
  EXPECT_NE(out.find("] fanout"), std::string::npos) << out;
  EXPECT_NE(out.find("shard=0"), std::string::npos) << out;
  EXPECT_NE(out.find("shard=3"), std::string::npos) << out;
}

TEST(TraceSamplerTest, EverySemantics) {
  TraceSampler off(0);
  EXPECT_FALSE(off.Sample());
  TraceSampler always(1);
  EXPECT_TRUE(always.Sample());
  EXPECT_TRUE(always.Sample());
  TraceSampler third(3);
  int hits = 0;
  for (int i = 0; i < 9; ++i) {
    if (third.Sample()) ++hits;
  }
  EXPECT_EQ(hits, 3);
}

TEST(TraceSamplerTest, NextTraceIdIsUniqueAndNonZero) {
  uint64_t a = TraceSampler::NextTraceId();
  uint64_t b = TraceSampler::NextTraceId();
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
}

std::shared_ptr<const TraceContext> MakeFinished(uint64_t id, int64_t busy_us,
                                                 const std::string& sql) {
  auto t = std::make_shared<TraceContext>(id, sql);
  t->AddStage(Stage::kExecute, busy_us * 1000, 1);
  Clock::SleepMicros(busy_us);
  t->Finish();
  return t;
}

TEST(ProfileStoreTest, SlowlogKeepsKSlowestInOrder) {
  ProfileStore store(/*recent_capacity=*/4, /*slow_k=*/2);
  std::vector<std::shared_ptr<const TraceContext>> traces = {
      MakeFinished(1, 100, "fast"), MakeFinished(2, 5000, "slowest"),
      MakeFinished(3, 2000, "second"), MakeFinished(4, 50, "fastest")};
  for (const auto& t : traces) store.Record(t);
  // The slowlog ranks by measured wall time, which the sleeps only
  // suggest (a loaded host can stretch any of them), so the expected
  // ranking comes from the recorded totals. Ties keep record order.
  std::stable_sort(traces.begin(), traces.end(),
                   [](const auto& a, const auto& b) {
                     return a->total_ns() > b->total_ns();
                   });
  const std::string slowlog = store.RenderSlowlog();
  auto line_of = [&](size_t i) {
    return slowlog.find("| " + traces[i]->sql() + "\n");
  };
  const size_t first = line_of(0);
  const size_t second = line_of(1);
  EXPECT_NE(first, std::string::npos) << slowlog;
  EXPECT_NE(second, std::string::npos) << slowlog;
  EXPECT_LT(first, second) << slowlog;  // Descending by total.
  for (size_t i = 2; i < traces.size(); ++i) {
    EXPECT_EQ(line_of(i), std::string::npos) << slowlog;
  }
}

TEST(ProfileStoreTest, RecentRingIsBoundedAndSearchableById) {
  ProfileStore store(/*recent_capacity=*/3, /*slow_k=*/1);
  std::vector<std::shared_ptr<const TraceContext>> traces;
  for (uint64_t id = 1; id <= 5; ++id) {
    traces.push_back(MakeFinished(id, 50 * static_cast<int64_t>(id),
                                  "q" + std::to_string(id)));
    store.Record(traces.back());
  }
  EXPECT_EQ(store.recent_size(), 3u);
  // Newest without an id.
  EXPECT_NE(store.RenderProfile().find("q5"), std::string::npos);
  // Specific id still in the ring.
  EXPECT_NE(store.RenderProfile(4).find("q4"), std::string::npos);
  // Id 1 is evicted from recents; the single slowlog slot holds the
  // first trace with the largest measured total, which the growing
  // sleeps make q5 unless a loaded host stretched an earlier one.
  const auto slowest = std::max_element(
      traces.begin(), traces.end(), [](const auto& a, const auto& b) {
        return a->total_ns() < b->total_ns();
      });
  EXPECT_EQ(store.RenderProfile(1).find("no trace with id") ==
                std::string::npos,
            (*slowest)->id() == 1);
  EXPECT_NE(store.RenderProfile(999).find("no trace with id"),
            std::string::npos);
}

TEST(ProfileStoreTest, EmptyStoreRenders) {
  ProfileStore store(4, 4);
  EXPECT_EQ(store.RenderProfile(), "no traces recorded\n");
  EXPECT_EQ(store.RenderSlowlog(), "slowlog empty\n");
}

TEST(ProfileStoreTest, AggregatesAccumulateAcrossAllRecords) {
  ProfileStore store(/*recent_capacity=*/1, /*slow_k=*/1);
  for (uint64_t id = 1; id <= 10; ++id) {
    auto t = std::make_shared<TraceContext>(id);
    t->AddStage(Stage::kWalSync, 1000, 1);
    t->Finish();
    store.Record(std::move(t));
  }
  // Rings are bounded at 1, but the aggregates saw all 10.
  EXPECT_EQ(store.aggregate_requests(), 10u);
  EXPECT_EQ(store.AggregateStageNanos(Stage::kWalSync), 10000);
  EXPECT_EQ(store.AggregateStageCount(Stage::kWalSync), 10u);
  EXPECT_GT(store.aggregate_total_ns(), 0);
  const std::string attribution = store.RenderAttribution("# ");
  EXPECT_NE(attribution.find("# attribution requests=10"), std::string::npos)
      << attribution;
  EXPECT_NE(attribution.find("stage=wal_sync"), std::string::npos)
      << attribution;
}

TEST(TimeseriesSamplerTest, SamplesSourcesIntoBoundedRing) {
  obs::TimeseriesSampler sampler(/*interval_ms=*/5, /*capacity=*/4);
  std::atomic<int64_t> ticks{0};
  sampler.AddSource("ticks", [&] {
    return static_cast<double>(ticks.fetch_add(1) + 1);
  });
  sampler.Start();
  Clock::SleepMillis(80);
  sampler.Stop();
  const std::string out = sampler.Render();
  EXPECT_NE(out.find("# timeseries interval_ms=5"), std::string::npos) << out;
  EXPECT_NE(out.find("t_ms ticks"), std::string::npos) << out;
  // Bounded: at most 4 rows survive even though ~16 sampling periods ran.
  size_t rows = 0;
  for (size_t pos = out.find('\n'); pos != std::string::npos;
       pos = out.find('\n', pos + 1)) {
    ++rows;
  }
  EXPECT_LE(rows, 2u + 4u) << out;  // Header + column line + <=4 rows.
  EXPECT_GT(ticks.load(), 4);       // It really kept sampling.
}

TEST(TimeseriesSamplerTest, StartWithoutSourcesIsANoOp) {
  obs::TimeseriesSampler sampler(5, 4);
  sampler.Start();  // No sources: must not spawn/crash.
  sampler.Stop();
  EXPECT_NE(sampler.Render().find("rows=0"), std::string::npos);
}

// --- Engine integration: the migrate-pull attribution contract. ---

class TraceEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = std::make_unique<sql::SqlEngine>(&db_);
    db_.trace_sampler().set_every(1);
    ASSERT_TRUE(
        engine_->Execute("CREATE TABLE accts (id INT PRIMARY KEY, bal INT)")
            .ok());
    std::string sql = "INSERT INTO accts VALUES ";
    for (int i = 0; i < 400; ++i) {
      if (i > 0) sql += ", ";
      sql += "(" + std::to_string(i) + ", " + std::to_string(i % 7) + ")";
    }
    ASSERT_TRUE(engine_->Execute(sql).ok());
  }

  /// The newest recorded trace's render.
  std::string LastProfile() { return db_.profiles().RenderProfile(); }

  Database db_;
  std::unique_ptr<sql::SqlEngine> engine_;
};

TEST_F(TraceEngineTest, StatementTraceHasParseAndExecuteSpans) {
  ASSERT_TRUE(engine_->Execute("SELECT * FROM accts WHERE id = 1").ok());
  const std::string out = LastProfile();
  EXPECT_NE(out.find("] parse"), std::string::npos) << out;
  EXPECT_NE(out.find("] execute"), std::string::npos) << out;
  EXPECT_NE(out.find("sql=\"SELECT * FROM accts WHERE id = 1\""),
            std::string::npos)
      << out;
}

TEST_F(TraceEngineTest, MigratePullAttributedOnFirstTouchZeroOnWarmRead) {
  // Lazy migration, background held off so only client pulls migrate.
  MigrationController::SubmitOptions opts;
  opts.strategy = MigrationStrategy::kLazy;
  opts.lazy.background_start_delay_ms = 60000;
  ASSERT_TRUE(engine_
                  ->SubmitMigrationScript(
                      "CREATE TABLE accts_v2 PRIMARY KEY (id) AS "
                      "SELECT id, bal, bal + 1 AS nxt FROM accts;\n"
                      "DROP TABLE accts;",
                      opts)
                  .ok());

  // First touch: the SELECT pulls its granules and the trace says so.
  ASSERT_TRUE(
      engine_->Execute("SELECT * FROM accts_v2 WHERE id = 123").ok());
  const std::string first = LastProfile();
  EXPECT_NE(first.find("migrate_pull"), std::string::npos) << first;
  EXPECT_NE(first.find("table=accts_v2 units="), std::string::npos) << first;

  // Warm re-read of the same row: zero pulls, no migrate_pull anywhere.
  ASSERT_TRUE(
      engine_->Execute("SELECT * FROM accts_v2 WHERE id = 123").ok());
  const std::string warm = LastProfile();
  EXPECT_NE(warm.find("sql=\"SELECT * FROM accts_v2 WHERE id = 123\""),
            std::string::npos)
      << warm;
  EXPECT_EQ(warm.find("migrate_pull"), std::string::npos) << warm;
}

TEST_F(TraceEngineTest, AccountedWithinTenPercentOfTotal) {
  ASSERT_TRUE(engine_->Execute("SELECT * FROM accts").ok());
  std::shared_ptr<const TraceContext> trace;
  {
    // Fish the trace back out via the render (the store owns it); parse
    // total_ns / accounted_ns off the machine-readable first line.
    const std::string out = LastProfile();
    const size_t tpos = out.find("total_ns=");
    const size_t apos = out.find("accounted_ns=");
    ASSERT_NE(tpos, std::string::npos) << out;
    ASSERT_NE(apos, std::string::npos) << out;
    const int64_t total = std::strtoll(out.c_str() + tpos + 9, nullptr, 10);
    const int64_t accounted =
        std::strtoll(out.c_str() + apos + 13, nullptr, 10);
    ASSERT_GT(total, 0) << out;
    // parse + execute are rooted directly under the statement, so the
    // depth-1 sum explains (nearly) all of the end-to-end time.
    EXPECT_GE(accounted, total * 9 / 10) << out;
    EXPECT_LE(accounted, total + total / 10) << out;
  }
}

TEST_F(TraceEngineTest, NoSinkWriteTracesItsCommitAsWalSync) {
  // No sink is attached, so the committer runs the redo log's ordering
  // section itself; its wait for and hold of that section is the wal_sync
  // span, as the group-commit wait is with a sink.
  ASSERT_TRUE(
      engine_->Execute("UPDATE accts SET bal = bal + 1 WHERE id = 3").ok());
  const std::string out = LastProfile();
  EXPECT_NE(out.find("] wal_sync"), std::string::npos) << out;
  EXPECT_NE(out.find(" wal_sync="), std::string::npos) << out;
}

TEST_F(TraceEngineTest, SamplerOffRecordsNothing) {
  const size_t before = db_.profiles().recent_size();
  db_.trace_sampler().set_every(0);
  ASSERT_TRUE(engine_->Execute("SELECT * FROM accts WHERE id = 2").ok());
  EXPECT_EQ(db_.profiles().recent_size(), before);
}

}  // namespace
}  // namespace bullfrog
