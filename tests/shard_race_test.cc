// Concurrency tests for the cross-shard migration coordinator, aimed at
// TSan: concurrent Submit racers (exactly one wins admission), concurrent
// routed queries during the drain, and Progress/IsComplete pollers racing
// the state transitions.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "shard/router.h"
#include "shard/sharded_database.h"

namespace bullfrog::shard {
namespace {

MigrationController::SubmitOptions FastLazy() {
  MigrationController::SubmitOptions opts;
  opts.strategy = MigrationStrategy::kLazy;
  opts.lazy.background_start_delay_ms = 0;
  return opts;
}

bool WaitComplete(MigrationCoordinator& coord, int timeout_s) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(timeout_s);
  while (!coord.IsComplete()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

TEST(ShardRaceTest, ConcurrentSubmitAdmitsExactlyOne) {
  ShardedDatabase db(4);
  Session setup(&db);
  ASSERT_TRUE(
      setup.Execute("CREATE TABLE kv (id INT PRIMARY KEY, val INT)").ok());
  for (int i = 0; i < 128; ++i) {
    ASSERT_TRUE(setup
                    .Execute("INSERT INTO kv VALUES (" + std::to_string(i) +
                             ", " + std::to_string(i) + ")")
                    .ok());
  }

  // 8 racers submit the same script; fan-outs are serialized by the
  // coordinator's submit mutex, so exactly one wins and the rest see
  // kBusy (a fan-out in flight, or a duplicate on every shard). The
  // background delay keeps the winner's migration draining past the race
  // window (an instant drain would legitimately admit a later racer).
  MigrationController::SubmitOptions slow = FastLazy();
  slow.lazy.background_start_delay_ms = 500;
  constexpr int kRacers = 8;
  std::atomic<int> ok_count{0};
  std::atomic<int> busy_count{0};
  std::atomic<int> ready{0};
  std::vector<std::thread> racers;
  racers.reserve(kRacers);
  for (int t = 0; t < kRacers; ++t) {
    racers.emplace_back([&db, &ok_count, &busy_count, &slow, &ready] {
      Session s(&db);
      // Submit together: on a loaded host a racer still starting up
      // could otherwise arrive after the winner's whole drain.
      ready.fetch_add(1);
      while (ready.load() < kRacers) std::this_thread::yield();
      const Status st = s.SubmitMigrationScript(
          "CREATE TABLE kv2 PRIMARY KEY (id) AS "
          "SELECT id, val, val + 1 AS inc FROM kv; DROP TABLE kv;",
          slow);
      if (st.ok()) {
        ok_count.fetch_add(1);
      } else if (st.code() == StatusCode::kBusy) {
        busy_count.fetch_add(1);
      } else {
        ADD_FAILURE() << "unexpected submit status: " << st.ToString();
      }
    });
  }
  for (auto& t : racers) t.join();
  EXPECT_EQ(ok_count.load(), 1);
  EXPECT_EQ(busy_count.load(), kRacers - 1);

  ASSERT_TRUE(WaitComplete(db.coordinator(), 60));
  Session check(&db);
  auto r = check.Execute("SELECT COUNT(*) AS n FROM kv2");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows[0][0].AsInt(), 128);
}

TEST(ShardRaceTest, QueriesAndPollersRaceTheDrain) {
  ShardedDatabase db(4);
  Session setup(&db);
  ASSERT_TRUE(
      setup.Execute("CREATE TABLE kv (id INT PRIMARY KEY, val INT)").ok());
  static constexpr int kRows = 256;
  for (int i = 0; i < kRows; ++i) {
    ASSERT_TRUE(setup
                    .Execute("INSERT INTO kv VALUES (" + std::to_string(i) +
                             ", " + std::to_string(i) + ")")
                    .ok());
  }

  std::atomic<bool> stop{false};

  // Pollers hammer the aggregate read paths while the state machine runs.
  std::vector<std::thread> pollers;
  for (int t = 0; t < 2; ++t) {
    pollers.emplace_back([&db, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        const double p = db.coordinator().Progress();
        EXPECT_GE(p, 0.0);
        EXPECT_LE(p, 1.0);
        (void)db.coordinator().IsComplete();
        (void)db.coordinator().TotalUnitsMigrated();
        (void)db.coordinator().StatusReport();
        (void)db.StatusReport();
      }
    });
  }

  // Query threads drive lazy migration from every shard via the router
  // (point reads) and the fan-out path (aggregates) while the background
  // migrators drain.
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&db, &stop, t] {
      Session s(&db);
      int i = t * 37;
      while (!stop.load(std::memory_order_relaxed)) {
        auto point = s.Execute("SELECT inc FROM kv2 WHERE id = " +
                               std::to_string(i % kRows));
        // NotFound while the table is still old-schema is impossible here
        // (the submit below happens first), but kBusy retries are fine.
        if (point.ok() && !point->rows.empty()) {
          EXPECT_EQ(point->rows[0][0].AsInt(), i % kRows + 1);
        }
        auto agg = s.Execute("SELECT COUNT(*) AS n FROM kv2");
        if (agg.ok()) {
          EXPECT_EQ(agg->rows[0][0].AsInt(), kRows);
        }
        ++i;
      }
    });
  }

  Session submitter(&db);
  ASSERT_TRUE(submitter
                  .SubmitMigrationScript(
                      "CREATE TABLE kv2 PRIMARY KEY (id) AS "
                      "SELECT id, val, val + 1 AS inc FROM kv; DROP TABLE kv;",
                      FastLazy())
                  .ok());

  EXPECT_TRUE(WaitComplete(db.coordinator(), 60));
  stop.store(true);
  for (auto& t : readers) t.join();
  for (auto& t : pollers) t.join();

  EXPECT_DOUBLE_EQ(db.coordinator().Progress(), 1.0);
  auto r = submitter.Execute("SELECT COUNT(*) AS n, SUM(inc) AS s FROM kv2");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows[0][0].AsInt(), kRows);
  EXPECT_DOUBLE_EQ(r->rows[0][1].AsDouble(),
                   static_cast<double>(kRows) * (kRows + 1) / 2);
}

TEST(ShardRaceTest, BackToBackMigrationsSerialize) {
  ShardedDatabase db(2);
  Session s(&db);
  ASSERT_TRUE(s.Execute("CREATE TABLE t0 (id INT PRIMARY KEY, v INT)").ok());
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(s.Execute("INSERT INTO t0 VALUES (" + std::to_string(i) +
                          ", " + std::to_string(i) + ")")
                    .ok());
  }
  // Chain three migrations back to back with no waiting: each overlapping
  // script either switches immediately (predecessor already drained) or
  // rides the migration train (kQueued) and auto-starts in order.
  for (int gen = 0; gen < 3; ++gen) {
    const std::string src = "t" + std::to_string(gen);
    const std::string dst = "t" + std::to_string(gen + 1);
    const Status st =
        s.SubmitMigrationScript("CREATE TABLE " + dst +
                                    " PRIMARY KEY (id) AS SELECT id, v "
                                    "FROM " + src + "; DROP TABLE " +
                                    src + ";",
                                FastLazy());
    ASSERT_TRUE(st.ok() || st.IsQueued()) << st.ToString();
  }
  ASSERT_TRUE(WaitComplete(db.coordinator(), 60));
  auto r = s.Execute("SELECT COUNT(*) AS n FROM t3");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows[0][0].AsInt(), 32);
}

}  // namespace
}  // namespace bullfrog::shard
