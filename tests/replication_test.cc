// Replication subsystem tests: checkpoint round-trips, checkpoint-aware
// WAL-directory recovery (identical output with and without a checkpoint,
// plus segment GC), idempotent replicated tracker marks safe against a
// concurrently completing migration, and the end-to-end acceptance test:
// clients read from a live replica while the primary runs a wire-driven
// lazy migration to completion, then both sides converge byte-for-byte.

#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "migration/replication_log.h"
#include "replication/applier.h"
#include "replication/checkpoint.h"
#include "replication/replica.h"
#include "replication/wal_dir.h"
#include "server/client.h"
#include "server/server.h"
#include "sql/engine.h"
#include "sql/migration_compiler.h"
#include "sql/parser.h"

namespace bullfrog::replication {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "bf_repl_" + tag + "_" +
                          std::to_string(Clock::NowMicros());
  fs::remove_all(dir);
  return dir;
}

void MustExec(sql::SqlEngine* engine, const std::string& stmt) {
  auto r = engine->Execute(stmt);
  ASSERT_TRUE(r.ok()) << stmt << ": " << r.status();
}

/// The shared workload for the recovery tests: DDL + inserts + updates +
/// a delete, all through the SQL engine so everything flows into the
/// redo log. Deterministic, so two databases running it end up with
/// identical dumps.
void RunWorkload(sql::SqlEngine* engine, int phase) {
  if (phase == 1) {
    MustExec(engine,
             "CREATE TABLE kv (id INT PRIMARY KEY, score DOUBLE, name TEXT)");
    for (int i = 0; i < 50; ++i) {
      MustExec(engine, "INSERT INTO kv VALUES (" + std::to_string(i) + ", " +
                           std::to_string(i) + ".5, 'row" + std::to_string(i) +
                           "')");
    }
    MustExec(engine, "DELETE FROM kv WHERE id = 13");
    return;
  }
  for (int i = 50; i < 100; ++i) {
    MustExec(engine, "INSERT INTO kv VALUES (" + std::to_string(i) + ", 0.0, "
                     "NULL)");
  }
  MustExec(engine, "UPDATE kv SET score = score + 100 WHERE id < 10");
  MustExec(engine, "DELETE FROM kv WHERE id = 77");
}

TEST(CheckpointTest, RoundTripPreservesDumpRidsAndIndexes) {
  Database a;
  sql::SqlEngine engine(&a);
  RunWorkload(&engine, 1);
  ASSERT_TRUE(
      a.CreateIndex("kv", "kv_by_name", {"name"}, /*unique=*/false).ok());

  std::string blob;
  ASSERT_TRUE(CaptureCheckpoint(&a, &blob).ok());

  Database b;
  uint64_t wal_offset = 0;
  ASSERT_TRUE(LoadCheckpoint(&b, blob, &wal_offset).ok());
  EXPECT_EQ(wal_offset, a.txns().redo_log().size());
  EXPECT_EQ(DumpForDigest(&a), DumpForDigest(&b));

  // Physical layout survives: same rid horizon (the id=13 tombstone is a
  // gap, not a compaction), and the secondary index was rebuilt.
  Table* ta = a.catalog().FindTable("kv");
  Table* tb = b.catalog().FindTable("kv");
  ASSERT_NE(tb, nullptr);
  EXPECT_EQ(ta->NumAllocatedRows(), tb->NumAllocatedRows());
  EXPECT_EQ(ta->NumLiveRows(), tb->NumLiveRows());
  EXPECT_NE(tb->FindIndex("kv_by_name"), nullptr);

  // A truncated blob fails cleanly instead of half-loading.
  Database c;
  uint64_t ignored;
  EXPECT_EQ(
      LoadCheckpoint(&c, blob.substr(0, blob.size() / 2), &ignored).code(),
      StatusCode::kInvalidArgument);
}

// The loader reads version 3 only: a header naming any other version is
// refused before anything loads, while a truncated v3 blob is still a
// malformed-input error.
TEST(CheckpointTest, LoaderAcceptsOnlyVersion3) {
  Database a;
  sql::SqlEngine engine(&a);
  RunWorkload(&engine, 1);
  std::string blob;
  ASSERT_TRUE(CaptureCheckpoint(&a, &blob).ok());
  ASSERT_GE(blob.size(), 8u);
  ASSERT_EQ(blob[4], 3);  // "BFCK" | u32 version (little-endian).

  for (char version : {1, 2, 4}) {
    std::string other = blob;
    other[4] = version;
    Database b;
    uint64_t offset = 0;
    const Status s = LoadCheckpoint(&b, other, &offset);
    EXPECT_EQ(s.code(), StatusCode::kUnsupported)
        << "version " << int{version} << ": " << s;
    EXPECT_EQ(b.catalog().FindTable("kv"), nullptr);
  }
  for (size_t cut : {size_t{6}, size_t{12}, blob.size() - 1}) {
    Database b;
    uint64_t offset = 0;
    EXPECT_EQ(LoadCheckpoint(&b, blob.substr(0, cut), &offset).code(),
              StatusCode::kInvalidArgument)
        << "cut at " << cut;
  }
}

/// Submits kv -> kv2 as a multistep migration and holds its cutover: a
/// client write guard keeps the copier's write gate shared, so the copy
/// finishes but the cut cannot run until the guard is released. The
/// paced copier (4 rows per 30 ms, ~200 ms for the 49 rows) cannot reach
/// its cut before the guard is taken.
MigrationController::MultiStepGuard SubmitHeldMultiStep(Database* db) {
  sql::SqlEngine engine(db);
  MigrationController::SubmitOptions opts;
  opts.strategy = MigrationStrategy::kMultiStep;
  opts.multistep.batch = 4;
  opts.multistep.pause_us = 30000;
  Status s = engine.SubmitMigrationScript(
      "CREATE TABLE kv2 PRIMARY KEY (id) AS SELECT id, name FROM kv; "
      "DROP TABLE kv;",
      opts);
  EXPECT_TRUE(s.ok()) << s;
  auto guard = db->controller().MultiStepWriteGuard();
  EXPECT_TRUE(db->controller().MultiStepActive());
  return guard;
}

void WaitMigrationComplete(Database* db) {
  Stopwatch waited;
  while (!db->controller().IsComplete()) {
    ASSERT_LT(waited.ElapsedSeconds(), 30.0) << "migration never completed";
    Clock::SleepMillis(5);
  }
}

// A lazy migration does not defer a checkpoint (it is embedded), but a
// multistep one still does: its copier state cannot be rebuilt from a
// blob. Busy while it is held before its cut, OK once it completes.
TEST(CheckpointTest, BusyWhileMultiStepMigrationInFlight) {
  Database db;
  sql::SqlEngine engine(&db);
  RunWorkload(&engine, 1);

  auto guard = SubmitHeldMultiStep(&db);
  std::string blob;
  const Status s = CaptureCheckpoint(&db, &blob);
  EXPECT_EQ(s.code(), StatusCode::kBusy) << s;
  EXPECT_FALSE(db.controller().IsComplete());

  guard = MigrationController::MultiStepGuard();  // Release: the cut runs.
  WaitMigrationComplete(&db);
  ASSERT_TRUE(CaptureCheckpoint(&db, &blob).ok());
  Database b;
  uint64_t offset = 0;
  ASSERT_TRUE(LoadCheckpoint(&b, blob, &offset).ok());
  EXPECT_EQ(DumpForDigest(&db), DumpForDigest(&b));
}

// Satellite: checkpoint-aware startup. The same workload recovered (a)
// through a mid-workload checkpoint plus WAL suffix and (b) from the full
// log with no checkpoint must produce identical logical dumps; the
// checkpoint also garbage-collects the segments it supersedes.
TEST(WalDirTest, RecoveryIdenticalWithAndWithoutCheckpoint) {
  const std::string dir_ckpt = FreshDir("ckpt");
  const std::string dir_plain = FreshDir("plain");
  std::string live_dump;

  {
    Database a;
    WalDir wal;
    ASSERT_TRUE(wal.Open(dir_ckpt).ok());
    ASSERT_TRUE(wal.StartLogging(&a).ok());
    sql::SqlEngine engine(&a);
    RunWorkload(&engine, 1);
    ASSERT_TRUE(wal.Checkpoint(&a).ok());
    RunWorkload(&engine, 2);
    live_dump = DumpForDigest(&a);
  }
  {
    Database b;
    WalDir wal;
    ASSERT_TRUE(wal.Open(dir_plain).ok());
    ASSERT_TRUE(wal.StartLogging(&b).ok());
    sql::SqlEngine engine(&b);
    RunWorkload(&engine, 1);
    RunWorkload(&engine, 2);
    ASSERT_EQ(DumpForDigest(&b), live_dump);
  }

  // GC: the pre-checkpoint segment is gone, one checkpoint remains.
  int segments = 0, ckpts = 0;
  uint64_t ckpt_offset = 0;
  for (const auto& entry : fs::directory_iterator(dir_ckpt)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("wal-", 0) == 0) ++segments;
    if (name.rfind("ckpt-", 0) == 0) {
      ++ckpts;
      ckpt_offset = std::strtoull(name.c_str() + 5, nullptr, 10);
    }
  }
  EXPECT_EQ(ckpts, 1);
  EXPECT_EQ(segments, 1) << "superseded segment was not collected";
  EXPECT_GT(ckpt_offset, 0u);

  // Recover both directories into fresh databases: identical output.
  {
    Database r;
    WalDir wal;
    ASSERT_TRUE(wal.Open(dir_ckpt).ok());
    ASSERT_TRUE(wal.Recover(&r).ok());
    EXPECT_EQ(wal.base(), ckpt_offset);
    EXPECT_EQ(DumpForDigest(&r), live_dump);
  }
  {
    Database r;
    WalDir wal;
    ASSERT_TRUE(wal.Open(dir_plain).ok());
    ASSERT_TRUE(wal.Recover(&r).ok());
    EXPECT_EQ(wal.base(), 0u);
    EXPECT_EQ(DumpForDigest(&r), live_dump);
  }

  fs::remove_all(dir_ckpt);
  fs::remove_all(dir_plain);
}

// A restart right after a checkpoint (empty suffix) and repeated
// checkpoint/restart cycles keep working — the base offset accumulates.
TEST(WalDirTest, RestartAfterCheckpointAndCheckpointAgain) {
  const std::string dir = FreshDir("cycle");
  std::string dump1;
  {
    Database a;
    WalDir wal;
    ASSERT_TRUE(wal.Open(dir).ok());
    ASSERT_TRUE(wal.StartLogging(&a).ok());
    sql::SqlEngine engine(&a);
    RunWorkload(&engine, 1);
    ASSERT_TRUE(wal.Checkpoint(&a).ok());
    dump1 = DumpForDigest(&a);
  }
  {
    Database b;
    WalDir wal;
    ASSERT_TRUE(wal.Open(dir).ok());
    ASSERT_TRUE(wal.Recover(&b).ok());
    EXPECT_EQ(DumpForDigest(&b), dump1);
    ASSERT_TRUE(wal.StartLogging(&b).ok());
    sql::SqlEngine engine(&b);
    RunWorkload(&engine, 2);
    ASSERT_TRUE(wal.Checkpoint(&b).ok());
    dump1 = DumpForDigest(&b);
  }
  {
    Database c;
    WalDir wal;
    ASSERT_TRUE(wal.Open(dir).ok());
    ASSERT_TRUE(wal.Recover(&c).ok());
    EXPECT_EQ(DumpForDigest(&c), dump1);
  }
  fs::remove_all(dir);
}

void PlantFile(const std::string& dir, const std::string& name,
               const std::string& bytes) {
  std::FILE* f = std::fopen((fs::path(dir) / name).c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

// Satellite: recovery fallback. A corrupt newest checkpoint must not
// abort recovery — it falls back to the next-older checkpoint (here: the
// real one it supersedes) and replays the WAL suffix on top.
TEST(WalDirTest, CorruptNewestCheckpointFallsBackToOlder) {
  const std::string dir = FreshDir("corrupt_newest");
  std::string live_dump;
  uint64_t real_ckpt_offset = 0;
  {
    Database a;
    WalDir wal;
    ASSERT_TRUE(wal.Open(dir).ok());
    ASSERT_TRUE(wal.StartLogging(&a).ok());
    sql::SqlEngine engine(&a);
    RunWorkload(&engine, 1);
    ASSERT_TRUE(wal.Checkpoint(&a).ok());
    RunWorkload(&engine, 2);
    live_dump = DumpForDigest(&a);
  }
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("ckpt-", 0) == 0) {
      real_ckpt_offset = std::strtoull(name.c_str() + 5, nullptr, 10);
    }
  }
  ASSERT_GT(real_ckpt_offset, 0u);
  // A "newer" checkpoint that is pure garbage (as a torn write against a
  // non-durable filesystem would leave behind).
  PlantFile(dir, "ckpt-999999999.bf", "definitely not a checkpoint blob");

  Database r;
  WalDir wal;
  ASSERT_TRUE(wal.Open(dir).ok());
  ASSERT_TRUE(wal.Recover(&r).ok());
  EXPECT_EQ(wal.base(), real_ckpt_offset);
  EXPECT_EQ(DumpForDigest(&r), live_dump);
  fs::remove_all(dir);
}

// Satellite: when every checkpoint is unusable but the WAL still starts
// at offset 0, recovery degrades to a plain full-log replay. Overflowing
// segment names (strtoull would saturate) are rejected, not mis-sorted
// into the replay order.
TEST(WalDirTest, AllCheckpointsCorruptFallsBackToFullReplay) {
  const std::string dir = FreshDir("all_corrupt");
  std::string live_dump;
  {
    Database a;
    WalDir wal;
    ASSERT_TRUE(wal.Open(dir).ok());
    ASSERT_TRUE(wal.StartLogging(&a).ok());
    sql::SqlEngine engine(&a);
    RunWorkload(&engine, 1);
    RunWorkload(&engine, 2);
    live_dump = DumpForDigest(&a);
  }
  PlantFile(dir, "ckpt-7.bf", "garbage one");
  PlantFile(dir, "ckpt-42.bf", "garbage two");
  // Numeric part overflows uint64_t; must be ignored entirely.
  PlantFile(dir, "wal-99999999999999999999999.log", "not a wal segment");

  Database r;
  WalDir wal;
  ASSERT_TRUE(wal.Open(dir).ok());
  ASSERT_TRUE(wal.Recover(&r).ok());
  EXPECT_EQ(wal.base(), 0u);
  EXPECT_EQ(DumpForDigest(&r), live_dump);
  fs::remove_all(dir);
}

// Satellite: the unrecoverable case is an explicit error, not silent
// data loss. The checkpoint GC'd the early WAL segments; if that
// checkpoint then turns out corrupt, replaying the surviving suffix
// alone would drop the GC'd records — recovery must refuse.
TEST(WalDirTest, CorruptCheckpointWithGcdWalIsExplicitError) {
  const std::string dir = FreshDir("gcd_wal");
  {
    Database a;
    WalDir wal;
    ASSERT_TRUE(wal.Open(dir).ok());
    ASSERT_TRUE(wal.StartLogging(&a).ok());
    sql::SqlEngine engine(&a);
    RunWorkload(&engine, 1);
    ASSERT_TRUE(wal.Checkpoint(&a).ok());  // GCs the pre-checkpoint segment.
    RunWorkload(&engine, 2);
  }
  // Corrupt the (only) checkpoint in place.
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("ckpt-", 0) == 0) {
      PlantFile(dir, name, "now it is garbage");
    }
  }

  Database r;
  WalDir wal;
  ASSERT_TRUE(wal.Open(dir).ok());
  const Status s = wal.Recover(&r);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("unrecoverable"), std::string::npos) << s;
  fs::remove_all(dir);
}

// Satellite: replicated tracker re-marking is idempotent and safe against
// a concurrently completing migration (no crash or state corruption when
// marks arrive for a controller whose state is gone or complete).
TEST(ReplicatedMarkTest, IdempotentAndSafeAfterCompletion) {
  Database db;
  sql::SqlEngine engine(&db);
  MustExec(&engine, "CREATE TABLE src (id INT PRIMARY KEY, v INT)");
  for (int i = 0; i < 10; ++i) {
    MustExec(&engine, "INSERT INTO src VALUES (" + std::to_string(i) + ", " +
                          std::to_string(i * 7) + ")");
  }

  // No migration at all: marks are a clean no-op.
  ASSERT_TRUE(db.controller()
                  .ApplyReplicatedMark("bitmap:populate_dst",
                                       Tuple{Value::Int(0)})
                  .ok());

  // Replay a "migrate" DDL record end to end through the applier, with a
  // non-default granularity riding in the blob: 10 rows / granularity 5
  // = 2 units, so one mark is half the progress.
  const std::string script =
      "CREATE TABLE dst PRIMARY KEY (id) AS SELECT id, v FROM src; "
      "DROP TABLE src;";
  std::string blob;
  EncodeMigrateBlob(&blob, MigrationStrategy::kLazy, /*granularity=*/5,
                    script);
  LogRecord commit;
  commit.op = LogOp::kCommit;
  LogApplier applier(&db, /*append_to_local_log=*/false);
  ASSERT_TRUE(
      applier.Apply({MakeDdlRecord("migrate", blob), commit}).ok());

  ASSERT_TRUE(db.controller().HasActiveMigration());
  EXPECT_EQ(db.catalog().GetState("src"), TableState::kRetired);
  EXPECT_EQ(db.catalog().GetState("dst"), TableState::kActive);
  EXPECT_NEAR(db.controller().Progress(), 0.0, 1e-9);

  const std::string tracker = "bitmap:populate_dst";
  ASSERT_TRUE(
      db.controller().ApplyReplicatedMark(tracker, Tuple{Value::Int(0)}).ok());
  EXPECT_NEAR(db.controller().Progress(), 0.5, 1e-9);
  // Re-delivering the same mark must not double-count.
  ASSERT_TRUE(
      db.controller().ApplyReplicatedMark(tracker, Tuple{Value::Int(0)}).ok());
  EXPECT_NEAR(db.controller().Progress(), 0.5, 1e-9);
  // Out-of-range granules and unknown trackers are absorbed.
  ASSERT_TRUE(
      db.controller().ApplyReplicatedMark(tracker, Tuple{Value::Int(99)}).ok());
  ASSERT_TRUE(db.controller()
                  .ApplyReplicatedMark("bitmap:nonsense", Tuple{Value::Int(1)})
                  .ok());
  EXPECT_NEAR(db.controller().Progress(), 0.5, 1e-9);

  // Completion drops the retired input; marks arriving after it (the
  // replica-side race with migrate_complete) are no-ops, not crashes.
  ASSERT_TRUE(db.controller().CompleteReplicatedMigration().ok());
  EXPECT_EQ(db.catalog().GetState("src"), TableState::kDropped);
  ASSERT_TRUE(
      db.controller().ApplyReplicatedMark(tracker, Tuple{Value::Int(1)}).ok());
  ASSERT_TRUE(db.controller().CompleteReplicatedMigration().ok());

  // Concurrent completion vs. mark storm: no tracker re-mark after the
  // controller dropped the state.
  std::atomic<bool> stop{false};
  std::thread marker([&] {
    uint64_t i = 0;
    while (!stop.load(std::memory_order_acquire)) {
      (void)db.controller().ApplyReplicatedMark(
          tracker, Tuple{Value::Int(static_cast<int64_t>(i++ % 3))});
    }
  });
  for (int i = 0; i < 100; ++i) {
    (void)db.controller().CompleteReplicatedMigration();
  }
  stop.store(true, std::memory_order_release);
  marker.join();
}

// A replica started while the primary defers its checkpoint (a multistep
// migration held before its cut) keeps retrying with backoff and reports
// the wait in its status line, then bootstraps and converges once the
// migration completes.
TEST(ReplicaBootstrapTest, WaitsOutBusyPrimaryThenConverges) {
  Database primary_db;
  {
    sql::SqlEngine engine(&primary_db);
    RunWorkload(&engine, 1);
  }
  server::ServerConfig pconfig;
  pconfig.workers = 4;
  server::Server primary(&primary_db, pconfig);
  ASSERT_TRUE(primary.Start().ok());
  auto guard = SubmitHeldMultiStep(&primary_db);

  Database replica_db;
  ReplicaOptions ropts;
  ropts.primary = "127.0.0.1:" + std::to_string(primary.port());
  ropts.bootstrap_retries = 1000;  // Outlasts a slow (sanitizer) cut.
  ropts.bootstrap_retry_ms = 10;
  ropts.bootstrap_max_backoff_ms = 40;
  Replica replica(&replica_db, ropts);
  Status started = Status::Unavailable("not started");
  std::thread starter([&] { started = replica.Start(); });

  // The bootstrap loop publishes its wait while the primary says Busy.
  Stopwatch waited;
  std::string status;
  for (;;) {
    status = replica.StatusReport();
    if (status.find("phase=\"bootstrapping attempt=") != std::string::npos &&
        status.find("Busy") != std::string::npos) {
      break;
    }
    if (waited.ElapsedSeconds() > 20.0) break;
    Clock::SleepMillis(5);
  }
  EXPECT_NE(status.find("backoff_ms="), std::string::npos) << status;
  EXPECT_NE(status.find("Busy"), std::string::npos) << status;
  EXPECT_FALSE(primary_db.controller().IsComplete());

  guard = MigrationController::MultiStepGuard();  // Release: the cut runs.
  WaitMigrationComplete(&primary_db);
  starter.join();
  ASSERT_TRUE(started.ok()) << started;
  EXPECT_EQ(replica.StatusReport().find("phase="), std::string::npos)
      << replica.StatusReport();

  // Post-bootstrap writes stream over too.
  {
    sql::SqlEngine engine(&primary_db);
    MustExec(&engine, "INSERT INTO kv2 VALUES (1000, 'late')");
  }
  for (;;) {
    if (DumpForDigest(&primary_db) == DumpForDigest(&replica_db)) break;
    ASSERT_LT(waited.ElapsedSeconds(), 60.0)
        << "replica never converged; status: " << replica.StatusReport();
    Clock::SleepMillis(20);
  }
  EXPECT_NE(DumpForDigest(&replica_db).find("table kv2"), std::string::npos);

  replica.Stop();
  primary.Stop();
}

// Satellite: the end-to-end acceptance test. A replica bootstraps from a
// live primary, 4 clients read from it (new schema, mid-migration) while
// the primary runs a wire-submitted lazy migration to completion; the
// replica rejects writes; both sides converge to an identical dump.
TEST(ReplicaE2ETest, ReadersDuringPrimaryMigrationConverge) {
  constexpr int kReaders = 4;
  constexpr int kRows = 600;

  Database primary_db;
  server::ServerConfig pconfig;
  pconfig.workers = 8;
  pconfig.migrate_options.lazy.background_start_delay_ms = 200;
  pconfig.migrate_options.lazy.background_threads = 2;
  pconfig.migrate_options.lazy.background_batch = 16;
  server::Server primary(&primary_db, pconfig);
  ASSERT_TRUE(primary.Start().ok());
  const std::string paddr = "127.0.0.1:" + std::to_string(primary.port());

  server::Client admin;
  ASSERT_TRUE(admin.Connect(paddr).ok());
  ASSERT_TRUE(
      admin.Query("CREATE TABLE accts (id INT PRIMARY KEY, bal INT)").ok());
  for (int base = 0; base < kRows;) {
    std::string sql = "INSERT INTO accts VALUES ";
    for (int i = 0; i < 100 && base < kRows; ++i, ++base) {
      if (i > 0) sql += ", ";
      sql += "(" + std::to_string(base) + ", " + std::to_string(base % 97) +
             ")";
    }
    auto r = admin.Query(sql);
    ASSERT_TRUE(r.ok()) << r.status();
  }

  // Replica: bootstrap from the live primary, then serve read-only.
  Database replica_db;
  ReplicaOptions ropts;
  ropts.primary = paddr;
  Replica replica(&replica_db, ropts);
  ASSERT_TRUE(replica.Start().ok());

  server::ServerConfig rconfig;
  rconfig.workers = 8;
  rconfig.read_only = true;
  rconfig.read_through = [&replica](const std::string& sql,
                                    const std::string& table) {
    return replica.ForwardRead(sql, table);
  };
  rconfig.admin_ext = [&replica](const std::string& command,
                                 std::string* out) {
    if (command != "replication") return false;
    *out = replica.StatusReport();
    return true;
  };
  server::Server rserver(&replica_db, rconfig);
  ASSERT_TRUE(rserver.Start().ok());
  const std::string raddr = "127.0.0.1:" + std::to_string(rserver.port());

  // Bootstrap state is immediately queryable.
  server::Client rc;
  ASSERT_TRUE(rc.Connect(raddr).ok());
  auto count = rc.Query("SELECT COUNT(*) AS n FROM accts");
  ASSERT_TRUE(count.ok()) << count.status();
  EXPECT_EQ(count->rows[0][0].AsInt(), kRows);

  // Writes and migrations are rejected with a clear error.
  auto write = rc.Query("INSERT INTO accts VALUES (999999, 1)");
  ASSERT_FALSE(write.ok());
  EXPECT_NE(write.status().message().find("read-only replica"),
            std::string::npos)
      << write.status();
  EXPECT_FALSE(rc.Migrate("CREATE TABLE nope PRIMARY KEY (id) AS "
                          "SELECT id FROM accts;")
                   .ok());

  // Kick off the lazy migration on the primary over the wire.
  ASSERT_TRUE(admin
                  .Migrate("CREATE TABLE accts_v2 PRIMARY KEY (id) AS "
                           "SELECT id, bal, bal * 2 AS dbl FROM accts;\n"
                           "DROP TABLE accts;")
                  .ok());

  // Wait until the migrate record reaches the replica (probe a key that
  // matches nothing, so the probe itself migrates no rows).
  {
    Stopwatch waited;
    for (;;) {
      auto probe = rc.Query("SELECT id FROM accts_v2 WHERE id = -1");
      if (probe.ok()) break;
      ASSERT_LT(waited.ElapsedSeconds(), 20.0)
          << "migrate record never applied: " << probe.status();
      Clock::SleepMillis(20);
    }
  }

  // 4 readers hit the replica's new schema while the migration drains on
  // the primary. Mid-migration reads forward to the primary (migrating
  // exactly the rows they need) and then wait for the marks to apply
  // locally; a transiently missing row is retried, a wrong value is a
  // real failure.
  std::atomic<int> failures{0};
  std::atomic<uint64_t> ops{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int w = 0; w < kReaders; ++w) {
    readers.emplace_back([&, w] {
      server::Client c;
      if (!c.Connect(raddr).ok()) {
        failures.fetch_add(1);
        return;
      }
      uint64_t rng = 0x2545f4914f6cdd1dull * static_cast<uint64_t>(w + 1);
      while (!stop.load(std::memory_order_acquire)) {
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        const int id = static_cast<int>((rng >> 33) % kRows);
        auto r = c.Query("SELECT id, bal, dbl FROM accts_v2 WHERE id = " +
                         std::to_string(id));
        if (!r.ok()) {
          if (!r.status().IsRetryable()) failures.fetch_add(1);
          continue;
        }
        if (r->rows.empty()) continue;  // Not applied yet; retried later.
        if (r->rows.size() != 1 ||
            r->rows[0][2].AsInt() != r->rows[0][1].AsInt() * 2) {
          failures.fetch_add(1);
        }
        ops.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Drive the primary's migration to a declared completion.
  Stopwatch waited;
  for (;;) {
    auto p = admin.MigrationProgress();
    ASSERT_TRUE(p.ok()) << p.status();
    if (*p >= 1.0) break;
    ASSERT_LT(waited.ElapsedSeconds(), 60.0) << "primary never reached 1.0";
    Clock::SleepMillis(25);
  }
  for (;;) {
    auto report = admin.Admin("report");
    ASSERT_TRUE(report.ok()) << report.status();
    if (report->find("complete=1") != std::string::npos) break;
    ASSERT_LT(waited.ElapsedSeconds(), 60.0) << "never declared complete";
    Clock::SleepMillis(25);
  }

  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(ops.load(), 0u);

  // Convergence: the replica catches up to an identical logical state
  // (old table dropped, every row present with the same rid and values).
  for (;;) {
    if (DumpForDigest(&primary_db) == DumpForDigest(&replica_db)) break;
    ASSERT_LT(waited.ElapsedSeconds(), 90.0)
        << "replica never converged; status: " << replica.StatusReport();
    Clock::SleepMillis(50);
  }

  // Lag introspection reports a caught-up replica.
  auto status = rc.Admin("replication");
  ASSERT_TRUE(status.ok()) << status.status();
  EXPECT_NE(status->find("role=replica"), std::string::npos) << *status;
  EXPECT_NE(status->find("behind=0"), std::string::npos) << *status;

  auto final_count = rc.Query("SELECT COUNT(*) AS n FROM accts_v2");
  ASSERT_TRUE(final_count.ok());
  EXPECT_EQ(final_count->rows[0][0].AsInt(), kRows);

  rserver.Stop();
  replica.Stop();
  primary.Stop();
}

}  // namespace
}  // namespace bullfrog::replication
