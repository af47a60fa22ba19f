#include <atomic>

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "common/clock.h"
#include "migration/background.h"
#include "migration/statement_migrator.h"
#include "txn/txn_manager.h"

namespace bullfrog {
namespace {

class BackgroundTest : public ::testing::Test {
 protected:
  static constexpr int kRows = 400;

  void SetUp() override {
    auto src = catalog_.CreateTable(SchemaBuilder("src")
                                        .AddColumn("id", ValueType::kInt64,
                                                   false)
                                        .AddColumn("v", ValueType::kInt64)
                                        .SetPrimaryKey({"id"})
                                        .Build());
    ASSERT_TRUE(src.ok());
    for (int i = 0; i < kRows; ++i) {
      ASSERT_TRUE(
          (*src)->Insert(Tuple{Value::Int(i), Value::Int(i)}).ok());
    }
    ASSERT_TRUE(catalog_.CreateTable(SchemaBuilder("dst")
                                         .AddColumn("id", ValueType::kInt64,
                                                    false)
                                         .AddColumn("v", ValueType::kInt64)
                                         .SetPrimaryKey({"id"})
                                         .Build())
                    .ok());
  }

  std::unique_ptr<StatementMigrator> MakeCopy(LazyConfig config) {
    MigrationStatement stmt;
    stmt.name = "copy";
    stmt.category = MigrationCategory::kOneToOne;
    stmt.input_tables = {"src"};
    stmt.output_tables = {"dst"};
    stmt.provenance.AddPassThrough("id", "src", "id");
    stmt.provenance.AddPassThrough("v", "src", "v");
    stmt.row_transform =
        [](const Tuple& in) -> Result<std::vector<TargetRow>> {
      return std::vector<TargetRow>{TargetRow{0, in}};
    };
    auto m = MakeStatementMigrator(&catalog_, &txns_, std::move(stmt),
                                   config);
    EXPECT_TRUE(m.ok());
    return std::move(*m);
  }

  Catalog catalog_;
  TransactionManager txns_;
};

TEST_F(BackgroundTest, CompletesAndFiresCallbackOnce) {
  LazyConfig config;
  config.background_start_delay_ms = 10;
  config.background_pause_us = 0;
  config.background_threads = 3;
  auto migrator = MakeCopy(config);
  std::atomic<int> completions{0};
  BackgroundMigrator bg({migrator.get()}, config,
                        [&] { completions.fetch_add(1); });
  bg.Start();
  Stopwatch sw;
  while (!bg.finished() && sw.ElapsedMillis() < 10000) Clock::SleepMillis(5);
  EXPECT_TRUE(bg.finished());
  EXPECT_EQ(completions.load(), 1);
  EXPECT_TRUE(migrator->IsComplete());
  EXPECT_EQ(catalog_.FindTable("dst")->NumLiveRows(),
            static_cast<uint64_t>(kRows));
  EXPECT_GE(bg.work_start_seconds(), 0.0);
  EXPECT_GE(bg.finish_seconds(), bg.work_start_seconds());
}

TEST_F(BackgroundTest, RespectsStartDelay) {
  LazyConfig config;
  config.background_start_delay_ms = 300;
  auto migrator = MakeCopy(config);
  BackgroundMigrator bg({migrator.get()}, config);
  bg.Start();
  Clock::SleepMillis(100);
  EXPECT_FALSE(bg.started_working());
  EXPECT_EQ(catalog_.FindTable("dst")->NumLiveRows(), 0u);
  bg.Stop();
}

TEST_F(BackgroundTest, StopDuringDelayIsClean) {
  LazyConfig config;
  config.background_start_delay_ms = 10000;
  auto migrator = MakeCopy(config);
  BackgroundMigrator bg({migrator.get()}, config);
  bg.Start();
  Clock::SleepMillis(20);
  bg.Stop();  // Must not hang or crash.
  EXPECT_FALSE(bg.finished());
}

TEST_F(BackgroundTest, StartIsIdempotent) {
  LazyConfig config;
  config.background_start_delay_ms = 10;
  config.background_pause_us = 0;
  auto migrator = MakeCopy(config);
  BackgroundMigrator bg({migrator.get()}, config);
  bg.Start();
  bg.Start();  // No double thread spawn.
  Stopwatch sw;
  while (!bg.finished() && sw.ElapsedMillis() < 10000) Clock::SleepMillis(5);
  EXPECT_TRUE(bg.finished());
  // Exactly-once despite (attempted) duplicate Start: the PK on dst
  // would reject duplicates.
  EXPECT_EQ(catalog_.FindTable("dst")->NumLiveRows(),
            static_cast<uint64_t>(kRows));
}

TEST_F(BackgroundTest, DrivesMultipleStatements) {
  ASSERT_TRUE(catalog_.CreateTable(SchemaBuilder("dst2")
                                       .AddColumn("id", ValueType::kInt64,
                                                  false)
                                       .SetPrimaryKey({"id"})
                                       .Build())
                  .ok());
  LazyConfig config;
  config.background_start_delay_ms = 10;
  config.background_pause_us = 0;
  auto m1 = MakeCopy(config);
  MigrationStatement stmt2;
  stmt2.name = "ids";
  stmt2.category = MigrationCategory::kOneToOne;
  stmt2.input_tables = {"src"};
  stmt2.output_tables = {"dst2"};
  stmt2.provenance.AddPassThrough("id", "src", "id");
  stmt2.row_transform =
      [](const Tuple& in) -> Result<std::vector<TargetRow>> {
    return std::vector<TargetRow>{TargetRow{0, Tuple{in[0]}}};
  };
  auto m2 = MakeStatementMigrator(&catalog_, &txns_, std::move(stmt2),
                                  config);
  ASSERT_TRUE(m2.ok());
  BackgroundMigrator bg({m1.get(), m2->get()}, config);
  bg.Start();
  Stopwatch sw;
  while (!bg.finished() && sw.ElapsedMillis() < 10000) Clock::SleepMillis(5);
  EXPECT_TRUE(bg.finished());
  EXPECT_EQ(catalog_.FindTable("dst")->NumLiveRows(),
            static_cast<uint64_t>(kRows));
  EXPECT_EQ(catalog_.FindTable("dst2")->NumLiveRows(),
            static_cast<uint64_t>(kRows));
}

/// A migrator whose background chunks always fail — models a statement
/// with a persistently broken transform / dead input.
class FailingMigrator final : public StatementMigrator {
 public:
  explicit FailingMigrator(MigrationStatement stmt)
      : StatementMigrator(nullptr, nullptr, std::move(stmt), LazyConfig{}) {}

  Result<uint64_t> MigrateBackgroundChunk(uint64_t, bool* done) override {
    calls.fetch_add(1, std::memory_order_acq_rel);
    *done = false;
    return Status(StatusCode::kInternal, "transform keeps failing");
  }
  bool IsComplete() const override { return false; }
  MigrationTracker* tracker() override { return nullptr; }
  double Progress() const override { return 0.0; }

  std::atomic<int> calls{0};

 protected:
  Status MigrateCandidates(const RewrittenPredicates&) override {
    return Status::OK();
  }
};

MigrationStatement FailingStmt() {
  MigrationStatement stmt;
  stmt.name = "failing";
  stmt.category = MigrationCategory::kOneToOne;
  stmt.input_tables = {"src"};
  stmt.output_tables = {"dst"};
  return stmt;
}

TEST_F(BackgroundTest, PersistentErrorIsRecordedAndRetiresStatement) {
  LazyConfig config;
  config.background_start_delay_ms = 0;
  config.background_pause_us = 0;
  config.background_threads = 2;
  FailingMigrator failing(FailingStmt());
  std::atomic<int> completions{0};
  BackgroundMigrator bg({&failing}, config,
                        [&] { completions.fetch_add(1); });
  bg.Start();
  // The threads must give up (statement abandoned after
  // kMaxConsecutiveFailures), not spin forever.
  Stopwatch sw;
  while (!bg.gave_up() && sw.ElapsedMillis() < 10000) Clock::SleepMillis(5);
  EXPECT_TRUE(bg.gave_up());
  bg.Stop();

  // First error is sticky and surfaced.
  EXPECT_FALSE(bg.last_error().ok());
  EXPECT_EQ(bg.last_error().code(), StatusCode::kInternal);
  // An abandoned statement means the migration is NOT complete.
  EXPECT_FALSE(bg.finished());
  EXPECT_EQ(completions.load(), 0);
  // Retries are bounded: each thread stops at the abandonment threshold
  // (plus at most one in-flight chunk per thread).
  EXPECT_LE(failing.calls.load(),
            config.background_threads *
                (BackgroundMigrator::kMaxConsecutiveFailures + 1));
}

TEST_F(BackgroundTest, ErrorBacksOffInsteadOfBusySpinning) {
  LazyConfig config;
  config.background_start_delay_ms = 0;
  config.background_pause_us = 0;
  config.background_threads = 1;
  FailingMigrator failing(FailingStmt());
  BackgroundMigrator bg({&failing}, config);
  bg.Start();
  Stopwatch sw;
  while (!bg.gave_up() && sw.ElapsedMillis() < 10000) Clock::SleepMillis(5);
  bg.Stop();
  // Exponential backoff between failing rounds: reaching the threshold
  // takes at least the sum of the first few backoff sleeps (2+4+8+... ms),
  // so well over a couple of milliseconds of wall clock — a busy spin
  // would burn through the threshold in microseconds.
  EXPECT_GE(sw.ElapsedMillis(), 2);
  EXPECT_EQ(failing.calls.load(),
            BackgroundMigrator::kMaxConsecutiveFailures);
}

TEST_F(BackgroundTest, ConcurrentStartStopIsSafe) {
  // Start() and Stop() from different threads must not race on the
  // thread vector (TSan locks this in).
  for (int round = 0; round < 20; ++round) {
    LazyConfig config;
    config.background_start_delay_ms = 1000;  // Threads park in the delay.
    FailingMigrator failing(FailingStmt());
    BackgroundMigrator bg({&failing}, config);
    std::thread starter([&] { bg.Start(); });
    std::thread stopper([&] { bg.Stop(); });
    starter.join();
    stopper.join();
    bg.Stop();  // Idempotent; joins whatever Start launched.
    EXPECT_FALSE(bg.finished());
  }
}

TEST_F(BackgroundTest, CooperatesWithForegroundWorkers) {
  LazyConfig config;
  config.background_start_delay_ms = 0;
  config.background_pause_us = 0;
  auto migrator = MakeCopy(config);
  BackgroundMigrator bg({migrator.get()}, config);
  bg.Start();
  // Foreground lazy requests race the background sweep.
  for (int i = 0; i < kRows; i += 3) {
    ASSERT_TRUE(
        migrator->MigrateForPredicate(Eq(Col("id"), LitInt(i))).ok());
  }
  Stopwatch sw;
  while (!bg.finished() && sw.ElapsedMillis() < 10000) Clock::SleepMillis(5);
  EXPECT_EQ(catalog_.FindTable("dst")->NumLiveRows(),
            static_cast<uint64_t>(kRows));
}

}  // namespace
}  // namespace bullfrog
