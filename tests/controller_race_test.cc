// Stress tests for MigrationController state lifetime under concurrency.
//
// The scenario that used to be a use-after-free: worker threads in the
// middle of PrepareRead / PrepareInsert / Progress / timeline while a
// driver thread submits the *next* migration, which tears down and
// replaces the controller's per-migration state. With the shared-pointer
// snapshot scheme every reader keeps the state it started with alive;
// ThreadSanitizer (BULLFROG_SANITIZE=thread) verifies there is no window
// left.

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bullfrog/database.h"
#include "catalog/catalog.h"
#include "common/clock.h"
#include "migration/controller.h"
#include "query/expr.h"
#include "replication/applier.h"
#include "sql/engine.h"
#include "txn/txn_manager.h"

namespace bullfrog {
namespace {

constexpr int kRows = 64;

std::string SrcName(int round) { return "src_" + std::to_string(round); }
std::string DstName(int round) { return "dst_" + std::to_string(round); }

/// 1:1 copy plan src_<round> -> dst_<round>.
MigrationPlan CopyPlan(int round) {
  MigrationPlan plan;
  plan.name = "copy_" + std::to_string(round);
  plan.new_tables = {SchemaBuilder(DstName(round))
                         .AddColumn("id", ValueType::kInt64, false)
                         .AddColumn("v", ValueType::kInt64)
                         .SetPrimaryKey({"id"})
                         .Build()};
  plan.retire_tables = {SrcName(round)};
  MigrationStatement stmt;
  stmt.name = plan.name;
  stmt.category = MigrationCategory::kOneToOne;
  stmt.input_tables = {SrcName(round)};
  stmt.output_tables = {DstName(round)};
  stmt.provenance.AddPassThrough("id", SrcName(round), "id");
  stmt.provenance.AddPassThrough("v", SrcName(round), "v");
  stmt.row_transform =
      [](const Tuple& in) -> Result<std::vector<TargetRow>> {
    return std::vector<TargetRow>{TargetRow{0, in}};
  };
  plan.statements.push_back(std::move(stmt));
  return plan;
}

void LoadSource(Catalog* catalog, int round) {
  auto src = catalog->CreateTable(SchemaBuilder(SrcName(round))
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
}

MigrationController::SubmitOptions FastLazyOpts() {
  MigrationController::SubmitOptions opts;
  opts.strategy = MigrationStrategy::kLazy;
  opts.enable_background = true;
  opts.lazy.background_start_delay_ms = 0;
  opts.lazy.background_pause_us = 0;
  opts.lazy.background_threads = 2;
  return opts;
}

void WaitComplete(MigrationController* controller) {
  Stopwatch sw;
  while (!controller->IsComplete() && sw.ElapsedMillis() < 60000) {
    Clock::SleepMillis(1);
  }
  ASSERT_TRUE(controller->IsComplete());
}

/// N worker threads hammer every reader entry point while the driver
/// repeatedly submits lazy migrations, waits for completion, and submits
/// the next one (destroying the previous migration's state each time).
TEST(ControllerRaceTest, ReadersSurviveRepeatedSubmits) {
  Catalog catalog;
  TransactionManager txns;
  MigrationController controller(&catalog, &txns);

  constexpr int kRounds = 10;
  constexpr int kReaders = 4;

  std::atomic<bool> done{false};
  std::atomic<int> round{-1};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      uint64_t rng = 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(r + 1);
      while (!done.load(std::memory_order_acquire)) {
        const int cur = round.load(std::memory_order_acquire);
        if (cur < 0) {
          std::this_thread::yield();
          continue;
        }
        rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
        const auto key = static_cast<int64_t>(rng % kRows);
        const std::string dst = DstName(cur);
        // Statuses are intentionally ignored: a reader may race the end
        // of a round (table gone, migration complete) — the point is
        // that no call touches freed state.
        (void)controller.PrepareRead(dst, Eq(Col("id"), LitInt(key)));
        (void)controller.PrepareInsert(
            dst, Tuple{Value::Int(key + kRows), Value::Int(0)});
        (void)controller.Progress();
        (void)controller.timeline();
        (void)controller.IsComplete();
        (void)controller.MultiStepActive();
        (void)controller.UsesNewSchema();
        { auto guard = controller.MultiStepWriteGuard(); }
        (void)controller.migrators();
        (void)controller.FindMigratorForOutput(dst);
        (void)controller.background_error();
      }
    });
  }

  for (int i = 0; i < kRounds; ++i) {
    LoadSource(&catalog, i);
    round.store(i, std::memory_order_release);
    ASSERT_TRUE(controller.Submit(CopyPlan(i), FastLazyOpts()).ok());
    WaitComplete(&controller);
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  // Every round's data landed in full.
  for (int i = 0; i < kRounds; ++i) {
    Table* t = catalog.FindTable(DstName(i));
    ASSERT_NE(t, nullptr) << DstName(i);
    EXPECT_EQ(t->NumLiveRows(), static_cast<uint64_t>(kRows)) << DstName(i);
  }
  EXPECT_TRUE(controller.background_error().ok());
}

/// A restarted primary takes over a replayed mid-flight migration while
/// readers hammer the statement and status paths. The handoff flips the
/// published state's replay flag in place and starts its background
/// worker; the migration then completes with every row exactly once.
TEST(ControllerRaceTest, OwnershipHandoffUnderReaders) {
  Database a;
  sql::SqlEngine engine(&a);
  ASSERT_TRUE(
      engine.Execute("CREATE TABLE src (id INT PRIMARY KEY, v INT)").ok());
  for (int i = 0; i < kRows; ++i) {
    ASSERT_TRUE(engine
                    .Execute("INSERT INTO src VALUES (" + std::to_string(i) +
                             ", " + std::to_string(i) + ")")
                    .ok());
  }
  MigrationController::SubmitOptions opts;
  opts.enable_background = false;
  ASSERT_TRUE(engine
                  .SubmitMigrationScript(
                      "CREATE TABLE dst PRIMARY KEY (id) AS "
                      "SELECT id, v FROM src; DROP TABLE src;",
                      opts)
                  .ok());
  // Pull every fourth row on the primary so the replay carries marks.
  for (int k = 0; k < kRows; k += 4) {
    ASSERT_TRUE(
        a.controller().PrepareRead("dst", Eq(Col("id"), LitInt(k))).ok());
  }

  // Restart: replay the primary's log into a fresh node, mid-migration.
  Database b;
  std::vector<LogRecord> records;
  a.txns().redo_log().ReadFrom(0, SIZE_MAX, &records);
  replication::LogApplier applier(&b, /*append_to_local_log=*/true);
  ASSERT_TRUE(applier.Apply(std::move(records)).ok());
  ASSERT_TRUE(b.controller().HasActiveMigration());
  ASSERT_FALSE(b.controller().IsComplete());
  MigrationController& controller = b.controller();

  std::atomic<bool> done{false};
  std::atomic<int> errors{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      uint64_t rng = 0xdeadbeefULL + static_cast<uint64_t>(r);
      while (!done.load(std::memory_order_acquire)) {
        rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
        const auto key = static_cast<int64_t>(rng % kRows);
        Status s = controller.PrepareRead("dst", Eq(Col("id"), LitInt(key)));
        if (!s.ok()) {
          errors.fetch_add(1);
          ADD_FAILURE() << "PrepareRead: " << s.ToString();
        }
        (void)controller.Progress();
        (void)controller.migrators();
        (void)controller.StatusReport();
      }
    });
  }

  Clock::SleepMillis(2);
  EXPECT_TRUE(controller.TakeOwnership().ok());
  WaitComplete(&controller);
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(errors.load(), 0);
  Table* t = b.catalog().FindTable("dst");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->NumLiveRows(), static_cast<uint64_t>(kRows));
  EXPECT_TRUE(controller.background_error().ok());
}

/// Concurrent Submits: exactly one wins per round; the rest observe
/// kBusy, never a torn state.
TEST(ControllerRaceTest, ConcurrentSubmitsSingleWinner) {
  Catalog catalog;
  TransactionManager txns;
  MigrationController controller(&catalog, &txns);

  constexpr int kRounds = 6;
  for (int i = 0; i < kRounds; ++i) {
    LoadSource(&catalog, i);
    std::atomic<int> winners{0};
    std::atomic<int> busy{0};
    std::vector<std::thread> submitters;
    for (int s = 0; s < 3; ++s) {
      submitters.emplace_back([&, i] {
        Status st = controller.Submit(CopyPlan(i), FastLazyOpts());
        if (st.ok()) {
          winners.fetch_add(1);
        } else if (st.code() == StatusCode::kBusy ||
                   st.code() == StatusCode::kAlreadyExists) {
          // kAlreadyExists: a loser that started after the winner
          // completed the whole (tiny) migration and already dropped
          // state visibility; its CreateOutputTables then collides.
          busy.fetch_add(1);
        } else {
          ADD_FAILURE() << "unexpected submit status: " << st.ToString();
        }
      });
    }
    for (auto& t : submitters) t.join();
    EXPECT_EQ(winners.load(), 1) << "round " << i;
    EXPECT_EQ(busy.load(), 2) << "round " << i;
    WaitComplete(&controller);
  }
}

/// IsComplete() must not report a migration complete while one of its
/// retired inputs still exists: a checkpoint taken on "complete" would
/// capture the input as RETIRED. Each plan also retires kPads idle
/// tables, so completion drops many tables one by one and the poller
/// below has a wide window to observe any gap between "complete" and the
/// last drop.
TEST(ControllerRaceTest, CompleteOnlyAfterRetiredInputsDropped) {
  Catalog catalog;
  TransactionManager txns;
  MigrationController controller(&catalog, &txns);

  constexpr int kRounds = 8;
  constexpr int kPads = 64;
  int early = 0;
  for (int i = 0; i < kRounds; ++i) {
    LoadSource(&catalog, i);
    MigrationPlan plan = CopyPlan(i);
    for (int p = 0; p < kPads; ++p) {
      const std::string pad = "pad_" + std::to_string(i) + "_" +
                              std::to_string(p);
      ASSERT_TRUE(catalog
                      .CreateTable(SchemaBuilder(pad)
                                       .AddColumn("id", ValueType::kInt64)
                                       .Build())
                      .ok());
      plan.retire_tables.push_back(pad);
    }
    const std::vector<std::string> retired = plan.retire_tables;
    ASSERT_TRUE(controller.Submit(std::move(plan), FastLazyOpts()).ok());
    Stopwatch sw;
    while (!controller.IsComplete() && sw.ElapsedMillis() < 60000) {
      std::this_thread::yield();
    }
    ASSERT_TRUE(controller.IsComplete());
    for (const std::string& t : retired) {
      if (catalog.GetState(t) != TableState::kDropped) {
        ++early;
        break;
      }
    }
  }
  EXPECT_EQ(early, 0) << "rounds that reported complete before every "
                         "retired input was dropped";
}

}  // namespace
}  // namespace bullfrog
