// Migration-train tests (tentpole): per-table migration state lets
// submits over disjoint tables run concurrently, overlapping lazy
// submits queue (kQueued) and auto-start when their predecessors
// complete, chained old->mid->new hops drain in order with read-through
// resolving through the chain, and a crash with queued scripts in the
// WAL replays the whole train in submit order and still converges.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bullfrog/database.h"
#include "common/clock.h"
#include "replication/applier.h"
#include "replication/wal_dir.h"
#include "sql/engine.h"
#include "sql/migration_compiler.h"
#include "sql/parser.h"

namespace bullfrog {
namespace {

namespace fs = std::filesystem;

MigrationController::SubmitOptions Lazy(bool background,
                                        int64_t delay_ms = 10) {
  MigrationController::SubmitOptions opts;
  opts.strategy = MigrationStrategy::kLazy;
  opts.enable_background = background;
  opts.lazy.background_start_delay_ms = delay_ms;
  opts.lazy.background_pause_us = 0;
  return opts;
}

void MustExec(sql::SqlEngine* engine, const std::string& stmt) {
  auto r = engine->Execute(stmt);
  ASSERT_TRUE(r.ok()) << stmt << ": " << r.status();
}

void SeedTable(sql::SqlEngine* engine, const std::string& name, int rows) {
  MustExec(engine,
           "CREATE TABLE " + name + " (id INT PRIMARY KEY, v INT)");
  for (int i = 0; i < rows; ++i) {
    MustExec(engine, "INSERT INTO " + name + " VALUES (" +
                         std::to_string(i) + ", " + std::to_string(i * 10) +
                         ")");
  }
}

std::string HopScript(const std::string& src, const std::string& dst) {
  return "CREATE TABLE " + dst + " PRIMARY KEY (id) AS SELECT id, v FROM " +
         src + "; DROP TABLE " + src + ";";
}

bool WaitComplete(MigrationController* c, int timeout_ms = 30000) {
  Stopwatch sw;
  while (!c->IsComplete() && sw.ElapsedMillis() < timeout_ms) {
    Clock::SleepMillis(5);
  }
  return c->IsComplete();
}

TEST(MigrationTrainTest, DisjointMigrationsRunConcurrently) {
  Database db;
  sql::SqlEngine engine(&db);
  SeedTable(&engine, "a", 40);
  SeedTable(&engine, "b", 40);

  // No background: both migrations stay in flight, proving they coexist
  // (the old controller's global state would bounce the second submit).
  ASSERT_TRUE(
      engine.SubmitMigrationScript(HopScript("a", "a2"), Lazy(false)).ok());
  const Status second =
      engine.SubmitMigrationScript(HopScript("b", "b2"), Lazy(false));
  ASSERT_TRUE(second.ok()) << second.ToString();

  EXPECT_EQ(db.controller().ActiveMigrations(), 2u);
  EXPECT_EQ(db.controller().QueuedMigrations(), 0u);
  EXPECT_TRUE(db.controller().HasActiveMigration());
  EXPECT_FALSE(db.controller().IsComplete());

  // Each migration's lazy path serves its own output table.
  auto ra = engine.Execute("SELECT v FROM a2 WHERE id = 3");
  ASSERT_TRUE(ra.ok()) << ra.status();
  ASSERT_EQ(ra->rows.size(), 1u);
  EXPECT_EQ(ra->rows[0][0].AsInt(), 30);
  auto rb = engine.Execute("SELECT v FROM b2 WHERE id = 7");
  ASSERT_TRUE(rb.ok()) << rb.status();
  ASSERT_EQ(rb->rows.size(), 1u);
  EXPECT_EQ(rb->rows[0][0].AsInt(), 70);

  // The train report names both entries.
  const std::string report = db.controller().StatusReport();
  EXPECT_NE(report.find("migration train"), std::string::npos) << report;
  EXPECT_NE(report.find("sql:a2"), std::string::npos) << report;
  EXPECT_NE(report.find("sql:b2"), std::string::npos) << report;
}

TEST(MigrationTrainTest, OverlappingSubmitQueuesAndAutoStarts) {
  Database db;
  sql::SqlEngine engine(&db);
  SeedTable(&engine, "t0", 64);

  // The first hop's row transform is held until the second submit has
  // queued, so the hop cannot finish (and unblock the second submit)
  // between the two calls.
  std::atomic<bool> release{false};
  struct ReleaseOnExit {
    std::atomic<bool>* release;
    ~ReleaseOnExit() { release->store(true); }
  } release_on_exit{&release};
  const std::string first = HopScript("t0", "t1");
  auto parsed = sql::ParseSqlScript(first);
  ASSERT_TRUE(parsed.ok());
  auto footprint = sql::MigrationScriptFootprint(*parsed);
  ASSERT_TRUE(footprint.ok());
  ASSERT_TRUE(db.controller()
                  .SubmitScript(
                      footprint->name, first, footprint->tables,
                      [&]() -> Result<MigrationPlan> {
                        BF_ASSIGN_OR_RETURN(auto stmts,
                                            sql::ParseSqlScript(first));
                        BF_ASSIGN_OR_RETURN(
                            MigrationPlan plan,
                            sql::CompileMigration(stmts, &db.catalog()));
                        plan.source_script = first;
                        for (MigrationStatement& stmt : plan.statements) {
                          stmt.row_transform =
                              [inner = stmt.row_transform,
                               &release](const Tuple& in) {
                                while (!release.load()) Clock::SleepMillis(1);
                                return inner(in);
                              };
                        }
                        return plan;
                      },
                      Lazy(true))
                  .ok());
  // t1 -> t2 overlaps the in-flight t0 -> t1 hop (and t1 does not even
  // exist yet): the submit parks on the train instead of failing.
  const Status queued =
      engine.SubmitMigrationScript(HopScript("t1", "t2"), Lazy(true));
  ASSERT_TRUE(queued.IsQueued()) << queued.ToString();
  EXPECT_NE(queued.message().find("position 1"), std::string::npos)
      << queued.ToString();
  EXPECT_EQ(db.controller().QueuedMigrations(), 1u);
  release.store(true);

  // No operator action: the queued hop starts when its predecessor
  // completes and the whole chain drains.
  ASSERT_TRUE(WaitComplete(&db.controller()));
  EXPECT_EQ(db.controller().QueuedMigrations(), 0u);
  auto r = engine.Execute("SELECT COUNT(*) AS n FROM t2");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->rows[0][0].AsInt(), 64);
  EXPECT_FALSE(engine.Execute("SELECT * FROM t0").ok());
  EXPECT_FALSE(engine.Execute("SELECT * FROM t1").ok());
}

TEST(MigrationTrainTest, EntryBetweenPopAndPublishIsNotComplete) {
  Database db;
  sql::SqlEngine engine(&db);
  SeedTable(&engine, "t0", 16);
  // The background worker starts after 300 ms, long after the next submit
  // has queued behind this hop.
  ASSERT_TRUE(engine
                  .SubmitMigrationScript(HopScript("t0", "t1"),
                                         Lazy(true, /*delay_ms=*/300))
                  .ok());

  // The queued hop's plan factory runs on the pump thread after the entry
  // has left the queue but before its state is published. Once the submit
  // has queued (armed), hold the factory there.
  std::atomic<bool> armed{false};
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  const std::string script = HopScript("t1", "t2");
  auto parsed = sql::ParseSqlScript(script);
  ASSERT_TRUE(parsed.ok());
  auto footprint = sql::MigrationScriptFootprint(*parsed);
  ASSERT_TRUE(footprint.ok());
  const Status queued = db.controller().SubmitScript(
      footprint->name, script, footprint->tables,
      [&]() -> Result<MigrationPlan> {
        if (armed) {
          entered = true;
          while (!release) Clock::SleepMillis(1);
        }
        BF_ASSIGN_OR_RETURN(auto stmts, sql::ParseSqlScript(script));
        BF_ASSIGN_OR_RETURN(MigrationPlan plan,
                            sql::CompileMigration(stmts, &db.catalog()));
        plan.source_script = script;
        return plan;
      },
      Lazy(true));
  ASSERT_TRUE(queued.IsQueued()) << queued.ToString();
  armed = true;

  Stopwatch sw;
  while (!entered && sw.ElapsedMillis() < 30000) Clock::SleepMillis(1);
  ASSERT_TRUE(entered);
  // Popped from the queue, not yet published: still in flight.
  EXPECT_FALSE(db.controller().IsComplete());
  EXPECT_LT(db.controller().Progress(), 1.0);

  release = true;
  ASSERT_TRUE(WaitComplete(&db.controller()));
  auto r = engine.Execute("SELECT COUNT(*) AS n FROM t2");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->rows[0][0].AsInt(), 16);
}

/// A first submit held in its plan factory is in flight to every status
/// reader: not complete, active, named in the report, and not embeddable
/// in a checkpoint.
TEST(MigrationTrainTest, StartingSubmitIsInFlightToStatus) {
  Database db;
  sql::SqlEngine engine(&db);
  SeedTable(&engine, "t0", 16);
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  const std::string script = HopScript("t0", "t1");
  auto parsed = sql::ParseSqlScript(script);
  ASSERT_TRUE(parsed.ok());
  auto footprint = sql::MigrationScriptFootprint(*parsed);
  ASSERT_TRUE(footprint.ok());
  Status submitted;
  std::thread submitter([&] {
    submitted = db.controller().SubmitScript(
        footprint->name, script, footprint->tables,
        [&]() -> Result<MigrationPlan> {
          entered = true;
          while (!release) Clock::SleepMillis(1);
          BF_ASSIGN_OR_RETURN(auto stmts, sql::ParseSqlScript(script));
          BF_ASSIGN_OR_RETURN(MigrationPlan plan,
                              sql::CompileMigration(stmts, &db.catalog()));
          plan.source_script = script;
          return plan;
        },
        Lazy(true));
  });
  Stopwatch sw;
  while (!entered && sw.ElapsedMillis() < 30000) Clock::SleepMillis(1);
  MigrationController& c = db.controller();
  EXPECT_FALSE(c.IsComplete());
  EXPECT_TRUE(c.HasActiveMigration());
  EXPECT_EQ(c.ActiveMigrations(), 1u);
  const std::string report = c.StatusReport();
  EXPECT_NE(report.find(footprint->name), std::string::npos) << report;
  std::vector<MigrationController::CheckpointMigration> train;
  EXPECT_TRUE(c.DescribeTrainForCheckpoint(&train).IsBusy());

  release = true;
  submitter.join();
  ASSERT_TRUE(submitted.ok()) << submitted.ToString();
  ASSERT_TRUE(WaitComplete(&c));
}

TEST(MigrationTrainTest, ChainedHopsReadThroughAndConvergeInOrder) {
  Database db;
  sql::SqlEngine engine(&db);
  SeedTable(&engine, "t0", 48);

  // A 3-hop chain submitted back to back. The 200ms background delay on
  // the first hop keeps it in flight long enough for the mid-train reads
  // below to exercise the lazy path while two entries sit queued.
  ASSERT_TRUE(engine
                  .SubmitMigrationScript(HopScript("t0", "t1"),
                                         Lazy(true, /*delay_ms=*/200))
                  .ok());
  ASSERT_TRUE(
      engine.SubmitMigrationScript(HopScript("t1", "t2"), Lazy(true))
          .IsQueued());
  ASSERT_TRUE(
      engine.SubmitMigrationScript(HopScript("t2", "t3"), Lazy(true))
          .IsQueued());
  EXPECT_EQ(db.controller().QueuedMigrations(), 2u);

  // Mid-train: the first hop's output reads through lazily; downstream
  // hops have not switched, so their outputs do not exist yet.
  auto r1 = engine.Execute("SELECT v FROM t1 WHERE id = 11");
  ASSERT_TRUE(r1.ok()) << r1.status();
  ASSERT_EQ(r1->rows.size(), 1u);
  EXPECT_EQ(r1->rows[0][0].AsInt(), 110);
  EXPECT_FALSE(engine.Execute("SELECT * FROM t3").ok());

  ASSERT_TRUE(WaitComplete(&db.controller()));
  auto r3 = engine.Execute("SELECT COUNT(*) AS n, SUM(v) AS s FROM t3");
  ASSERT_TRUE(r3.ok()) << r3.status();
  EXPECT_EQ(r3->rows[0][0].AsInt(), 48);
  EXPECT_DOUBLE_EQ(r3->rows[0][1].AsDouble(),
                   static_cast<double>(10 * (48 * 47) / 2));
  // Every intermediate hop retired its input.
  EXPECT_FALSE(engine.Execute("SELECT * FROM t0").ok());
  EXPECT_FALSE(engine.Execute("SELECT * FROM t1").ok());
  EXPECT_FALSE(engine.Execute("SELECT * FROM t2").ok());
}

// Satellite: kill -9 with a started hop plus two queued scripts in the
// WAL. Replay must restore the queue in submit order and the train must
// still converge after TakeOwnership hands it back to this node.
TEST(MigrationTrainTest, CrashWithQueuedScriptsReplaysTrainInOrder) {
  const std::string dir = ::testing::TempDir() + "bf_train_crash_" +
                          std::to_string(Clock::NowMicros());
  fs::remove_all(dir);

  {
    Database a;
    replication::WalDir wal;
    ASSERT_TRUE(wal.Open(dir).ok());
    ASSERT_TRUE(wal.StartLogging(&a).ok());
    sql::SqlEngine engine(&a);
    SeedTable(&engine, "t0", 32);
    // No background: the first hop is switched but never finishes, the
    // two chained hops stay queued — all three "migrate" records are
    // durable, none has completed.
    ASSERT_TRUE(
        engine.SubmitMigrationScript(HopScript("t0", "t1"), Lazy(false))
            .ok());
    ASSERT_TRUE(
        engine.SubmitMigrationScript(HopScript("t1", "t2"), Lazy(false))
            .IsQueued());
    ASSERT_TRUE(
        engine.SubmitMigrationScript(HopScript("t2", "t3"), Lazy(false))
            .IsQueued());
    // Destruction without completion == the process dying mid-train; the
    // WAL directory is all that survives.
  }

  Database b;
  replication::WalDir wal;
  ASSERT_TRUE(wal.Open(dir).ok());
  ASSERT_TRUE(wal.Recover(&b).ok());
  // Replay parked the train in replicated mode: the started hop is
  // active, the two queued scripts are back in submit order.
  ASSERT_TRUE(b.controller().HasActiveMigration());
  EXPECT_EQ(b.controller().ActiveMigrations(), 1u);
  EXPECT_EQ(b.controller().QueuedMigrations(), 2u);

  // This node is the primary again: keep the replayed trackers and resume
  // local (lazy + background) migration, exactly like bullfrog_serverd.
  ASSERT_TRUE(b.controller().TakeOwnership().ok());
  ASSERT_TRUE(wal.StartLogging(&b).ok());

  ASSERT_TRUE(WaitComplete(&b.controller()));
  sql::SqlEngine engine(&b);
  auto r = engine.Execute("SELECT COUNT(*) AS n FROM t3");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->rows[0][0].AsInt(), 32);
  EXPECT_FALSE(engine.Execute("SELECT * FROM t0").ok());

  // A second recovery from the post-convergence WAL replays the full
  // train including its migrate_start / migrate_complete markers.
  Database c;
  replication::WalDir wal2;
  ASSERT_TRUE(wal2.Open(dir).ok());
  ASSERT_TRUE(wal2.Recover(&c).ok());
  sql::SqlEngine engine_c(&c);
  auto rc = engine_c.Execute("SELECT COUNT(*) AS n FROM t3");
  ASSERT_TRUE(rc.ok()) << rc.status();
  EXPECT_EQ(rc->rows[0][0].AsInt(), 32);

  fs::remove_all(dir);
}

// TSan target: concurrent disjoint submits racing each other and racing
// lazy readers. Exercises the per-table gate lookups and the pump thread
// under contention; run under -DSANITIZE=thread in CI.
TEST(MigrationTrainTest, ConcurrentDisjointSubmitsAndReadsAreRaceFree) {
  constexpr int kTables = 4;
  constexpr int kRows = 32;
  Database db;
  sql::SqlEngine engine(&db);
  for (int t = 0; t < kTables; ++t) {
    SeedTable(&engine, "c" + std::to_string(t), kRows);
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  workers.reserve(kTables);
  for (int t = 0; t < kTables; ++t) {
    workers.emplace_back([&db, &failures, t] {
      sql::SqlEngine local(&db);
      const std::string src = "c" + std::to_string(t);
      const std::string dst = src + "x";
      const Status st =
          local.SubmitMigrationScript(HopScript(src, dst), Lazy(true));
      if (!st.ok() && !st.IsQueued()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kRows; ++i) {
        auto r = local.Execute("SELECT v FROM " + dst + " WHERE id = " +
                               std::to_string(i));
        if (!r.ok() || r->rows.size() != 1 ||
            r->rows[0][0].AsInt() != i * 10) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
  ASSERT_TRUE(WaitComplete(&db.controller()));
  for (int t = 0; t < kTables; ++t) {
    auto r = engine.Execute("SELECT COUNT(*) AS n FROM c" +
                            std::to_string(t) + "x");
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(r->rows[0][0].AsInt(), kRows);
  }
}


// The atomic schema switch: a submit whose output name is taken fails
// before the catalog changes, for every strategy. Nothing of it stays
// visible, the inputs keep serving every row, the report names the
// failure, and the same script succeeds once the name is free.
constexpr char kCollidingScript[] =
    "CREATE TABLE fresh PRIMARY KEY (id) AS SELECT id FROM users; "
    "CREATE TABLE taken PRIMARY KEY (id) AS SELECT id, v FROM users; "
    "DROP TABLE users;";

int64_t CountRows(sql::SqlEngine* engine, const std::string& table) {
  auto r = engine->Execute("SELECT COUNT(*) AS n FROM " + table);
  return r.ok() ? r->rows[0][0].AsInt() : -1;
}

/// No output of a failed switch exists, the input is active with all
/// `rows`, the train is empty and the report lists the failure.
void ExpectNoTrace(Database* db, sql::SqlEngine* engine, int rows,
                   const std::string& reason) {
  EXPECT_EQ(db->catalog().FindTable("fresh"), nullptr);
  EXPECT_TRUE(engine->Execute("SELECT * FROM fresh").status().IsNotFound());
  EXPECT_EQ(db->catalog().GetState("users"), TableState::kActive);
  EXPECT_EQ(CountRows(engine, "users"), rows);
  MigrationController& c = db->controller();
  EXPECT_FALSE(c.HasActiveMigration());
  EXPECT_TRUE(c.IsComplete());
  const std::string report = c.StatusReport();
  EXPECT_NE(report.find("migration: none"), std::string::npos) << report;
  EXPECT_NE(report.find("failed: sql:fresh"), std::string::npos) << report;
  EXPECT_NE(report.find(reason), std::string::npos) << report;
}

class AtomicSwitchTest : public ::testing::TestWithParam<MigrationStrategy> {
};

TEST_P(AtomicSwitchTest, CollidingOutputLeavesNoTrace) {
  Database db;
  sql::SqlEngine engine(&db);
  SeedTable(&engine, "users", 16);
  MustExec(&engine, "CREATE TABLE taken (id INT PRIMARY KEY)");
  MigrationController::SubmitOptions opts = Lazy(true, /*delay_ms=*/0);
  opts.strategy = GetParam();
  opts.multistep.pause_us = 0;

  const Status failed = engine.SubmitMigrationScript(kCollidingScript, opts);
  EXPECT_TRUE(failed.IsAlreadyExists()) << failed.ToString();
  ExpectNoTrace(&db, &engine, 16, "table 'taken' already exists");
  ASSERT_EQ(db.controller().RecentFailures().size(), 1u);

  ASSERT_TRUE(db.catalog().DropTable("taken").ok());
  const Status retried = engine.SubmitMigrationScript(kCollidingScript, opts);
  ASSERT_TRUE(retried.ok()) << retried.ToString();
  ASSERT_TRUE(WaitComplete(&db.controller()));
  EXPECT_EQ(CountRows(&engine, "fresh"), 16);
  EXPECT_EQ(CountRows(&engine, "taken"), 16);
  EXPECT_EQ(db.catalog().GetState("users"), TableState::kDropped);
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, AtomicSwitchTest,
    ::testing::Values(MigrationStrategy::kLazy, MigrationStrategy::kEager,
                      MigrationStrategy::kMultiStep),
    [](const ::testing::TestParamInfo<MigrationStrategy>& info) {
      switch (info.param) {
        case MigrationStrategy::kLazy:
          return std::string("Lazy");
        case MigrationStrategy::kEager:
          return std::string("Eager");
        case MigrationStrategy::kMultiStep:
          return std::string("MultiStep");
      }
      return std::string("Unknown");
    });

/// A "migrate" record that cannot be made durable fails the submit after
/// the catalog flip: the flip is undone, so the input is readable again
/// and the output name is free.
TEST(AtomicSwitchUndoTest, FailedMigrateAppendUndoesTheSwitch) {
  Database db;
  sql::SqlEngine engine(&db);
  SeedTable(&engine, "users", 16);
  db.txns().redo_log().SetSink([](const std::vector<LogRecord>& batch) {
    for (const LogRecord& r : batch) {
      if (r.op == LogOp::kDdl) return Status::Internal("ddl sink down");
    }
    return Status::OK();
  });
  const Status s = engine.SubmitMigrationScript(
      "CREATE TABLE fresh PRIMARY KEY (id) AS SELECT id, v FROM users; "
      "DROP TABLE users;",
      Lazy(true));
  EXPECT_FALSE(s.ok());
  ExpectNoTrace(&db, &engine, 16, "ddl sink down");
  db.txns().redo_log().SetSink(nullptr);
}

/// An eager copy that fails after its switch (the new primary key meets a
/// duplicate) undoes the switch; its "migrate_abort" record makes a node
/// replaying the same log undo its replayed switch too. The abort is
/// logged before the undo, so a client can take the freed name only after
/// the abort, and the replaying node keeps the client's table.
TEST(AtomicSwitchUndoTest, FailedEagerCopyUndoesTheSwitchEverywhere) {
  Database primary;
  sql::SqlEngine engine(&primary);
  MustExec(&engine, "CREATE TABLE users (id INT PRIMARY KEY, v INT)");
  for (int i = 0; i < 16; ++i) {
    MustExec(&engine, "INSERT INTO users VALUES (" + std::to_string(i) +
                          ", " + std::to_string(i % 4) + ")");
  }
  // The sink runs while the aborting thread waits for its append, so it
  // sees the catalog as it stands when the abort reaches the log.
  std::atomic<int> aborts{0};
  std::atomic<bool> switched_at_abort{false};
  RedoLog& log = primary.txns().redo_log();
  log.SetSink([&](const std::vector<LogRecord>& batch) {
    for (const LogRecord& r : batch) {
      if (r.op == LogOp::kDdl && r.table == "migrate_abort") {
        aborts.fetch_add(1);
        switched_at_abort.store(
            primary.catalog().FindTable("fresh") != nullptr &&
            primary.catalog().GetState("users") == TableState::kRetired);
      }
    }
    return Status::OK();
  });
  MigrationController::SubmitOptions opts = Lazy(false);
  opts.strategy = MigrationStrategy::kEager;
  const Status s = engine.SubmitMigrationScript(
      "CREATE TABLE fresh PRIMARY KEY (v) AS SELECT v, id FROM users; "
      "DROP TABLE users;",
      opts);
  log.SetSink(nullptr);
  ASSERT_FALSE(s.ok());
  ExpectNoTrace(&primary, &engine, 16, s.ToString());
  EXPECT_EQ(aborts.load(), 1);
  EXPECT_TRUE(switched_at_abort.load())
      << "the switch was undone before its abort record was logged";

  std::vector<LogRecord> records;
  log.ReadFrom(0, log.size(), &records);
  Database replica;
  replication::LogApplier applier(&replica, /*append_to_local_log=*/false);
  ASSERT_TRUE(applier.Apply(std::move(records)).ok());
  sql::SqlEngine replica_engine(&replica);
  ExpectNoTrace(&replica, &replica_engine, 16, s.ToString());

  // A client takes the freed name; the replaying node follows.
  const size_t before = log.size();
  MustExec(&engine, "CREATE TABLE fresh (id INT PRIMARY KEY, w INT)");
  MustExec(&engine, "INSERT INTO fresh VALUES (7, 7)");
  log.ReadFrom(before, log.size() - before, &records);
  ASSERT_TRUE(applier.Apply(std::move(records)).ok());
  for (sql::SqlEngine* node : {&engine, &replica_engine}) {
    auto fresh = node->Execute("SELECT id, w FROM fresh");
    ASSERT_TRUE(fresh.ok()) << fresh.status();
    ASSERT_EQ(fresh->rows.size(), 1u);
    EXPECT_EQ(fresh->rows[0][0].AsInt(), 7);
  }
}

}  // namespace
}  // namespace bullfrog
