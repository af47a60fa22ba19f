// MVCC subsystem tests: snapshot-read visibility (uncommitted writes
// stay invisible to other sessions, own writes show through the txn id
// in the view), abort unlinking pending versions, version-chain GC
// against the min-pinned-snapshot watermark, WAL replay rebuilding the
// same visible state, and the acceptance-critical quiesce-free
// checkpoint: a consistent snapshot captured — and restored, and
// converged — while a lazy migration is still in flight.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bullfrog/database.h"
#include "common/clock.h"
#include "replication/applier.h"
#include "replication/checkpoint.h"
#include "sql/engine.h"

namespace bullfrog {
namespace {

void MustExec(sql::SqlEngine* engine, const std::string& stmt) {
  auto r = engine->Execute(stmt);
  ASSERT_TRUE(r.ok()) << stmt << ": " << r.status();
}

class MvccTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.CreateTable(SchemaBuilder("users")
                                    .AddColumn("id", ValueType::kInt64, false)
                                    .AddColumn("name", ValueType::kString)
                                    .AddColumn("age", ValueType::kInt64)
                                    .SetPrimaryKey({"id"})
                                    .Build())
                    .ok());
    auto s = db_.BeginSession({"users"});
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(db_.Insert(&s, "users",
                             Tuple{Value::Int(i),
                                   Value::Str("u" + std::to_string(i)),
                                   Value::Int(20 + i)})
                      .ok());
    }
    ASSERT_TRUE(db_.Commit(&s).ok());
  }

  Database db_;
};

TEST_F(MvccTest, UncommittedWritesInvisibleToOtherSnapshots) {
  auto writer = db_.BeginSession({"users"});
  ASSERT_TRUE(db_.Insert(&writer, "users",
                         Tuple{Value::Int(100), Value::Str("pending"),
                               Value::Int(1)})
                  .ok());
  auto n = db_.Update(&writer, "users", Eq(Col("id"), LitInt(5)),
                      [](const Tuple& t) {
                        Tuple u = t;
                        u[2] = Value::Int(999);
                        return u;
                      });
  ASSERT_TRUE(n.ok());

  // A concurrent snapshot reader sees neither the pending insert nor the
  // pending update — and takes no row locks doing so (the writer still
  // holds exclusive locks on both rows).
  auto reader = db_.BeginSession({"users"});
  auto rows = db_.Select(&reader, "users", nullptr);
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(rows->size(), 20u);
  auto row5 = db_.Select(&reader, "users", Eq(Col("id"), LitInt(5)));
  ASSERT_TRUE(row5.ok());
  ASSERT_EQ(row5->size(), 1u);
  EXPECT_EQ(row5->front().second[2].AsInt(), 25);
  ASSERT_TRUE(db_.Commit(&reader).ok());

  // The writer sees its own uncommitted versions through the view's txn.
  auto own = db_.Select(&writer, "users", Eq(Col("id"), LitInt(5)));
  ASSERT_TRUE(own.ok());
  ASSERT_EQ(own->size(), 1u);
  EXPECT_EQ(own->front().second[2].AsInt(), 999);
  auto own_all = db_.Select(&writer, "users", nullptr);
  ASSERT_TRUE(own_all.ok());
  EXPECT_EQ(own_all->size(), 21u);
  ASSERT_TRUE(db_.Commit(&writer).ok());

  // After commit the versions are stamped and a fresh snapshot sees them.
  auto after = db_.BeginSession({"users"});
  auto all = db_.Select(&after, "users", nullptr);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 21u);
  ASSERT_TRUE(db_.Commit(&after).ok());
}

TEST_F(MvccTest, DeleteInvisibleUntilCommit) {
  auto writer = db_.BeginSession({"users"});
  auto n = db_.Delete(&writer, "users", Lt(Col("id"), LitInt(3)));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 3u);

  auto reader = db_.BeginSession({"users"});
  auto rows = db_.Select(&reader, "users", nullptr);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 20u);  // Tombstones not yet committed.
  ASSERT_TRUE(db_.Commit(&reader).ok());

  ASSERT_TRUE(db_.Commit(&writer).ok());
  auto after = db_.BeginSession({"users"});
  auto left = db_.Select(&after, "users", nullptr);
  ASSERT_TRUE(left.ok());
  EXPECT_EQ(left->size(), 17u);
  ASSERT_TRUE(db_.Commit(&after).ok());
}

TEST_F(MvccTest, AbortUnlinksPendingVersions) {
  auto s = db_.BeginSession({"users"});
  ASSERT_TRUE(db_.Insert(&s, "users",
                         Tuple{Value::Int(200), Value::Str("gone"),
                               Value::Int(1)})
                  .ok());
  ASSERT_TRUE(db_.Update(&s, "users", Eq(Col("id"), LitInt(7)),
                         [](const Tuple& t) {
                           Tuple u = t;
                           u[1] = Value::Str("mutated");
                           return u;
                         })
                  .ok());
  ASSERT_TRUE(db_.Delete(&s, "users", Eq(Col("id"), LitInt(8))).ok());
  ASSERT_TRUE(db_.Abort(&s).ok());

  // Everything rolled back: count, content, and the PK index (a lookup
  // by the aborted insert's key must miss, the survivor must hit).
  auto s2 = db_.BeginSession({"users"});
  auto all = db_.Select(&s2, "users", nullptr);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 20u);
  auto gone = db_.Select(&s2, "users", Eq(Col("id"), LitInt(200)));
  ASSERT_TRUE(gone.ok());
  EXPECT_TRUE(gone->empty());
  auto row7 = db_.Select(&s2, "users", Eq(Col("id"), LitInt(7)));
  ASSERT_TRUE(row7.ok());
  ASSERT_EQ(row7->size(), 1u);
  EXPECT_EQ(row7->front().second[1].AsString(), "u7");
  auto row8 = db_.Select(&s2, "users", Eq(Col("id"), LitInt(8)));
  ASSERT_TRUE(row8.ok());
  EXPECT_EQ(row8->size(), 1u);
  ASSERT_TRUE(db_.Commit(&s2).ok());

  // A duplicate-key insert (the classic abort-leak check) still works.
  auto s3 = db_.BeginSession({"users"});
  ASSERT_TRUE(db_.Insert(&s3, "users",
                         Tuple{Value::Int(200), Value::Str("back"),
                               Value::Int(2)})
                  .ok());
  ASSERT_TRUE(db_.Commit(&s3).ok());
}

TEST_F(MvccTest, GcPrunesShadowedVersions) {
  // Grow a chain on one row, with no snapshot pinned below the updates.
  for (int round = 0; round < 5; ++round) {
    auto s = db_.BeginSession({"users"});
    ASSERT_TRUE(db_.Update(&s, "users", Eq(Col("id"), LitInt(3)),
                           [round](const Tuple& t) {
                             Tuple u = t;
                             u[2] = Value::Int(1000 + round);
                             return u;
                           })
                    .ok());
    ASSERT_TRUE(db_.Commit(&s).ok());
  }
  // With nothing pinned the watermark is the visible clock: every
  // shadowed version is reclaimable. last_max_chain reports the length
  // observed *entering* a pass, so the first sweep prunes and the second
  // observes the pruned shape. (The write path may have pruned inline
  // already, so no freed count is asserted.)
  db_.version_gc().SweepOnce();
  db_.version_gc().SweepOnce();
  EXPECT_GE(db_.version_gc().passes(), 2u);
  EXPECT_EQ(db_.version_gc().last_max_chain(), 1u);

  auto s = db_.BeginSession({"users"});
  auto row = db_.Select(&s, "users", Eq(Col("id"), LitInt(3)));
  ASSERT_TRUE(row.ok());
  ASSERT_EQ(row->size(), 1u);
  EXPECT_EQ(row->front().second[2].AsInt(), 1004);
  ASSERT_TRUE(db_.Commit(&s).ok());
}

TEST_F(MvccTest, PinnedSnapshotSurvivesGc) {
  Table* t = db_.catalog().FindTable("users");
  ASSERT_NE(t, nullptr);
  RowId rid;
  {
    auto s = db_.BeginSession({"users"});
    auto row = db_.Select(&s, "users", Eq(Col("id"), LitInt(4)));
    ASSERT_TRUE(row.ok());
    ASSERT_EQ(row->size(), 1u);
    rid = row->front().first;
    ASSERT_TRUE(db_.Commit(&s).ok());
  }

  auto pin = std::make_unique<mvcc::SnapshotManager::PinGuard>(
      &db_.txns().snapshots());
  {
    auto s = db_.BeginSession({"users"});
    ASSERT_TRUE(db_.Update(&s, "users", Eq(Col("id"), LitInt(4)),
                           [](const Tuple& t) {
                             Tuple u = t;
                             u[2] = Value::Int(4444);
                             return u;
                           })
                    .ok());
    ASSERT_TRUE(db_.Commit(&s).ok());
  }

  // The sweep must not reclaim the old version: the pinned view still
  // resolves to the pre-update tuple while latest reads see the new one.
  db_.version_gc().SweepOnce();
  EXPECT_GE(db_.version_gc().last_max_chain(), 2u);
  Tuple old_row;
  ASSERT_TRUE(t->ReadAt(rid, mvcc::ReadView{pin->ts(), 0}, &old_row).ok());
  EXPECT_EQ(old_row[2].AsInt(), 24);

  // Unpin; the watermark advances and the next sweep reclaims the chain
  // (a second pass observes the single-version shape).
  pin.reset();
  const uint64_t freed_before = db_.version_gc().versions_freed();
  db_.version_gc().SweepOnce();
  EXPECT_GT(db_.version_gc().versions_freed(), freed_before);
  db_.version_gc().SweepOnce();
  EXPECT_EQ(db_.version_gc().last_max_chain(), 1u);
  Tuple now;
  ASSERT_TRUE(
      t->ReadAt(rid, mvcc::ReadView{db_.txns().snapshots().visible(), 0}, &now)
          .ok());
  EXPECT_EQ(now[2].AsInt(), 4444);
}

// Bumps the age of row `id` in one committed transaction.
void BumpAge(Database* db, int id, int64_t age) {
  auto s = db->BeginSession({"users"});
  ASSERT_TRUE(db->Update(&s, "users", Eq(Col("id"), LitInt(id)),
                         [age](const Tuple& t) {
                           Tuple u = t;
                           u[2] = Value::Int(age);
                           return u;
                         })
                  .ok());
  ASSERT_TRUE(db->Commit(&s).ok());
}

// The sweeper's cost follows writes, not heap size: a pass visits only
// the slots the write path left multi-version, and each only once.
TEST_F(MvccTest, ReadOnlyCommitLeavesTheCommitClockAlone) {
  mvcc::SnapshotManager& snaps = db_.txns().snapshots();
  const uint64_t before = snaps.visible();
  {
    auto s = db_.BeginSession({"users"});
    auto rows = db_.Select(&s, "users", Eq(Col("id"), LitInt(3)));
    ASSERT_TRUE(rows.ok());
    ASSERT_EQ(rows->size(), 1u);
    ASSERT_TRUE(db_.Commit(&s).ok());
  }
  // Nothing written, nothing published.
  EXPECT_EQ(snaps.visible(), before);
  {
    auto s = db_.BeginSession({"users"});
    ASSERT_TRUE(db_.Update(&s, "users", Eq(Col("id"), LitInt(3)),
                           [](const Tuple& t) {
                             Tuple u = t;
                             u[2] = Value::Int(33);
                             return u;
                           })
                    .ok());
    ASSERT_TRUE(db_.Commit(&s).ok());
  }
  EXPECT_EQ(snaps.visible(), before + 1);
}

TEST_F(MvccTest, EveryOpenPinHoldsTheWatermarkAcrossSlotChunks) {
  mvcc::SnapshotManager& snaps = db_.txns().snapshots();
  auto bump = [&] {
    auto s = db_.BeginSession({"users"});
    ASSERT_TRUE(db_.Update(&s, "users", Eq(Col("id"), LitInt(1)),
                           [](const Tuple& t) {
                             Tuple u = t;
                             u[2] = Value::Int(t[2].AsInt() + 1);
                             return u;
                           })
                    .ok());
    ASSERT_TRUE(db_.Commit(&s).ok());
  };
  // More transactions open at once on this thread than one slot chunk
  // holds, each pinned one commit after the previous.
  constexpr int kOpen = 100;
  std::vector<std::unique_ptr<Transaction>> open;
  for (int i = 0; i < kOpen; ++i) {
    open.push_back(db_.txns().Begin());
    bump();
  }
  for (int i = 1; i < kOpen; ++i) {
    ASSERT_EQ(open[i]->begin_ts(), open[i - 1]->begin_ts() + 1);
  }
  // A nested pin on the same thread takes a slot of its own.
  auto nested = std::make_unique<mvcc::SnapshotManager::PinGuard>(&snaps);
  EXPECT_EQ(nested->ts(), snaps.visible());
  // Releasing the oldest pin hands the watermark to the next oldest —
  // including the pins that live in the second chunk.
  for (int i = 0; i < kOpen; ++i) {
    EXPECT_EQ(snaps.AdvanceWatermark(), open[i]->begin_ts()) << "pin " << i;
    ASSERT_TRUE(db_.txns().Commit(open[i].get()).ok());
  }
  bump();
  EXPECT_EQ(snaps.AdvanceWatermark(), nested->ts());
  nested.reset();
  EXPECT_EQ(snaps.AdvanceWatermark(), snaps.visible());
}

// The watermark keeps up with the clock through unpins alone (no sweeper)
// even when no pin is at or below it — the state a scan that meets a
// concurrent pinner's marker leaves behind. Only the rate-limited rescan
// lets it catch up from there; without it the watermark stays put until
// the next GC sweep.
TEST_F(MvccTest, WatermarkFollowsUnpinsWithoutSweeper) {
  db_.version_gc().Stop();
  mvcc::SnapshotManager& snaps = db_.txns().snapshots();
  snaps.AdvanceWatermark();
  // `held` holds the watermark while one commit lands, then unpins from
  // inside the next pin's marker window: its rescan meets the marker and
  // leaves the watermark one commit behind, below every later pin.
  struct Stall {
    mvcc::SnapshotManager* snaps;
    mvcc::SnapshotManager::PinHandle held;
  } stall{&snaps, snaps.Pin()};
  BumpAge(&db_, 0, 1);
  snaps.SetPinHookForTesting(
      [](void* arg) {
        auto* st = static_cast<Stall*>(arg);
        st->snaps->Unpin(st->held);
      },
      &stall);
  const mvcc::SnapshotManager::PinHandle next = snaps.Pin();
  snaps.SetPinHookForTesting(nullptr, nullptr);
  snaps.Unpin(next);
  ASSERT_LT(snaps.watermark(), snaps.visible());
  ASSERT_LT(snaps.watermark(), next.ts);

  for (int i = 0; i < 1000; ++i) {
    {
      mvcc::SnapshotManager::PinGuard pin(&snaps);
      BumpAge(&db_, i % 20, i);
    }
    ASSERT_LE(snaps.visible() - snaps.watermark(),
              mvcc::SnapshotManager::kScanEvery + 1)
        << "after " << i + 1 << " commits";
  }
}

TEST_F(MvccTest, GcVisitsOnlyWrittenRows) {
  db_.version_gc().Stop();  // Passes below are the only ones.
  ASSERT_TRUE(db_.CreateTable(SchemaBuilder("big")
                                  .AddColumn("id", ValueType::kInt64, false)
                                  .AddColumn("v", ValueType::kInt64)
                                  .SetPrimaryKey({"id"})
                                  .Build())
                  .ok());
  {
    auto s = db_.BeginSession({"big"});
    for (int i = 0; i < 10000; ++i) {
      ASSERT_TRUE(
          db_.Insert(&s, "big", Tuple{Value::Int(i), Value::Int(0)}).ok());
    }
    ASSERT_TRUE(db_.Commit(&s).ok());
  }
  for (int id : {17, 4242, 9999}) {
    auto s = db_.BeginSession({"big"});
    ASSERT_TRUE(db_.Update(&s, "big", Eq(Col("id"), LitInt(id)),
                           [](const Tuple& t) {
                             Tuple u = t;
                             u[1] = Value::Int(1);
                             return u;
                           })
                    .ok());
    ASSERT_TRUE(db_.Commit(&s).ok());
  }

  mvcc::VersionGC& gc = db_.version_gc();
  const uint64_t before = gc.slots_visited();
  gc.SweepOnce();
  EXPECT_EQ(gc.slots_visited() - before, 3u);
  EXPECT_EQ(gc.last_max_chain(), 2u);
  gc.SweepOnce();
  EXPECT_EQ(gc.slots_visited() - before, 3u);
  EXPECT_EQ(gc.last_max_chain(), 1u);
}

// Rows whose shadowed versions a snapshot still needs stay queued across
// passes, and the pass after the unpin frees exactly every shadowed
// version: the dirty lists missed no multi-version row.
TEST_F(MvccTest, GcRequeuesPinnedChainsAndFreesAllAfterUnpin) {
  db_.version_gc().Stop();
  mvcc::VersionGC& gc = db_.version_gc();
  gc.SweepOnce();  // Drain whatever the fixture's load left queued.
  constexpr int kRows = 6;
  constexpr int kUpdates = 3;
  auto pin = std::make_unique<mvcc::SnapshotManager::PinGuard>(
      &db_.txns().snapshots());
  for (int id = 0; id < kRows; ++id) {
    for (int k = 0; k < kUpdates; ++k) BumpAge(&db_, id, 100 * id + k);
  }

  const uint64_t freed_pinned = gc.versions_freed();
  gc.SweepOnce();
  EXPECT_EQ(gc.versions_freed(), freed_pinned);  // All still needed.
  EXPECT_EQ(gc.last_max_chain(), static_cast<uint64_t>(kUpdates + 1));
  const uint64_t visited = gc.slots_visited();
  gc.SweepOnce();
  EXPECT_EQ(gc.slots_visited() - visited, static_cast<uint64_t>(kRows));

  pin.reset();
  const uint64_t freed_before = gc.versions_freed();
  gc.SweepOnce();
  EXPECT_EQ(gc.versions_freed() - freed_before,
            static_cast<uint64_t>(kRows * kUpdates));
  const uint64_t visited_after = gc.slots_visited();
  gc.SweepOnce();
  EXPECT_EQ(gc.slots_visited(), visited_after);  // Nothing left queued.
  EXPECT_EQ(gc.last_max_chain(), 1u);
}

// An aborted write leaves its slot queued with a single-version chain;
// the pass that finds it so must clear the flag, or a later committed
// write would not queue the slot again and its shadowed version would
// never be reclaimed.
TEST_F(MvccTest, GcRequeuesSlotAfterAbortedWrite) {
  db_.version_gc().Stop();
  mvcc::VersionGC& gc = db_.version_gc();
  gc.SweepOnce();
  {
    auto s = db_.BeginSession({"users"});
    ASSERT_TRUE(db_.Update(&s, "users", Eq(Col("id"), LitInt(9)),
                           [](const Tuple& t) {
                             Tuple u = t;
                             u[2] = Value::Int(-1);
                             return u;
                           })
                    .ok());
    ASSERT_TRUE(db_.Abort(&s).ok());
  }
  uint64_t visited = gc.slots_visited();
  gc.SweepOnce();
  EXPECT_EQ(gc.slots_visited() - visited, 1u);
  EXPECT_EQ(gc.last_max_chain(), 1u);

  auto pin = std::make_unique<mvcc::SnapshotManager::PinGuard>(
      &db_.txns().snapshots());
  BumpAge(&db_, 9, 909);
  visited = gc.slots_visited();
  gc.SweepOnce();
  EXPECT_EQ(gc.slots_visited() - visited, 1u);
  EXPECT_EQ(gc.last_max_chain(), 2u);

  // The pass after the unpin frees the shadowed version and the undone
  // one, retired at the abort until the watermark passed its stamp.
  pin.reset();
  const uint64_t freed_before = gc.versions_freed();
  gc.SweepOnce();
  EXPECT_EQ(gc.versions_freed() - freed_before, 2u);
  gc.SweepOnce();
  EXPECT_EQ(gc.last_max_chain(), 1u);
}

// WAL replay rebuilds version chains to the same visible state: a
// replica applying the primary's log converges byte-for-byte, and its
// own snapshot reads work over the rebuilt chains.
TEST(MvccRecoveryTest, ReplayRebuildsVisibleState) {
  Database a;
  sql::SqlEngine engine(&a);
  MustExec(&engine,
           "CREATE TABLE kv (id INT PRIMARY KEY, score DOUBLE, name TEXT)");
  for (int i = 0; i < 40; ++i) {
    MustExec(&engine, "INSERT INTO kv VALUES (" + std::to_string(i) + ", " +
                          std::to_string(i) + ".5, 'row" + std::to_string(i) +
                          "')");
  }
  MustExec(&engine, "UPDATE kv SET score = score + 100 WHERE id < 10");
  MustExec(&engine, "DELETE FROM kv WHERE id = 13");

  std::vector<LogRecord> records;
  a.txns().redo_log().ReadFrom(0, SIZE_MAX, &records);

  Database b;
  replication::LogApplier applier(&b, /*append_to_local_log=*/true);
  ASSERT_TRUE(applier.Apply(std::move(records)).ok());

  EXPECT_EQ(replication::DumpForDigest(&a), replication::DumpForDigest(&b));
  auto s = b.BeginSession({"kv"});
  auto rows = b.Select(&s, "kv", nullptr);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 39u);
  ASSERT_TRUE(b.Commit(&s).ok());
}

// The acceptance-critical path: with snapshot reads on, a checkpoint
// captured in the middle of a live lazy migration succeeds (no kBusy, no
// quiesce), embeds the migration, and a node restored from that blob plus
// the WAL suffix re-owns the migration and converges with the primary.
TEST(MvccCheckpointTest, QuiesceFreeCheckpointDuringMigration) {
  Database a;
  sql::SqlEngine engine(&a);
  MustExec(&engine,
           "CREATE TABLE kv (id INT PRIMARY KEY, score DOUBLE, name TEXT)");
  for (int i = 0; i < 50; ++i) {
    MustExec(&engine, "INSERT INTO kv VALUES (" + std::to_string(i) + ", " +
                          std::to_string(i) + ".5, 'row" + std::to_string(i) +
                          "')");
  }

  // Background workers delayed well past the capture below, so the
  // checkpoint provably lands mid-migration; completion still arrives
  // (lazy completion only flips through the background sweep).
  MigrationController::SubmitOptions opts;
  opts.lazy.background_start_delay_ms = 3000;
  ASSERT_TRUE(engine
                  .SubmitMigrationScript(
                      "CREATE TABLE kv2 PRIMARY KEY (id) AS "
                      "SELECT id, name FROM kv; DROP TABLE kv;",
                      opts)
                  .ok());

  // Pull a slice lazily so the checkpoint straddles real migration marks.
  {
    auto s = a.BeginSession({"kv2"});
    auto rows = a.Select(&s, "kv2", Lt(Col("id"), LitInt(10)));
    ASSERT_TRUE(rows.ok()) << rows.status();
    EXPECT_EQ(rows->size(), 10u);
    ASSERT_TRUE(a.Commit(&s).ok());
  }

  // Mid-migration capture succeeds — this exact call returns kBusy on
  // the legacy (snapshot-reads-off) path.
  std::string blob;
  ASSERT_TRUE(replication::CaptureCheckpoint(&a, &blob).ok());

  uint64_t wal_offset = 0;
  Database b;
  ASSERT_TRUE(replication::LoadCheckpoint(&b, blob, &wal_offset).ok());
  EXPECT_TRUE(b.controller().HasActiveMigration());
  EXPECT_FALSE(b.controller().IsComplete());

  // More post-checkpoint traffic on the primary: additional lazy pulls
  // and a write into the new schema.
  {
    auto s = a.BeginSession({"kv2"});
    auto rows = a.Select(
        &s, "kv2", And(Ge(Col("id"), LitInt(10)), Lt(Col("id"), LitInt(30))));
    ASSERT_TRUE(rows.ok()) << rows.status();
    EXPECT_EQ(rows->size(), 20u);
    ASSERT_TRUE(a.Commit(&s).ok());
  }
  MustExec(&engine, "INSERT INTO kv2 VALUES (500, 'fresh')");

  // Ship the WAL suffix past the checkpoint offset (its marks re-mark the
  // restored trackers), then let the restored node own its half-done
  // migration again (restart-as-primary path).
  std::vector<LogRecord> suffix;
  a.txns().redo_log().ReadFrom(wal_offset, SIZE_MAX, &suffix);
  replication::LogApplier applier(&b, /*append_to_local_log=*/true);
  ASSERT_TRUE(applier.Apply(std::move(suffix)).ok());
  ASSERT_TRUE(b.controller().TakeOwnership().ok());

  // Full scans pull every remaining granule on both sides. The pulls are
  // deterministic (same frozen source rids, same granule order), so the
  // independently-migrated rows land on identical rids.
  for (Database* db : {&a, &b}) {
    auto s = db->BeginSession({"kv2"});
    auto rows = db->Select(&s, "kv2", nullptr);
    ASSERT_TRUE(rows.ok()) << rows.status();
    EXPECT_EQ(rows->size(), 51u);
    ASSERT_TRUE(db->Commit(&s).ok());
  }
  // Completion flips once each side's background sweep wakes and finds
  // nothing left; it then drops the retired input on both.
  for (Database* db : {&a, &b}) {
    for (int i = 0; i < 30000 && !db->controller().IsComplete(); ++i) {
      Clock::SleepMillis(1);
    }
    EXPECT_TRUE(db->controller().IsComplete());
  }
  EXPECT_EQ(replication::DumpForDigest(&a), replication::DumpForDigest(&b));
}

// Without an active migration the snapshot capture is exercised by the
// plain round-trip: the blob restores tables, rids, and row content.
TEST(MvccCheckpointTest, SnapshotCaptureRoundTripsWithoutMigration) {
  Database a;
  sql::SqlEngine engine(&a);
  MustExec(&engine, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)");
  for (int i = 0; i < 25; ++i) {
    MustExec(&engine, "INSERT INTO t VALUES (" + std::to_string(i) + ", 'v" +
                          std::to_string(i) + "')");
  }
  MustExec(&engine, "DELETE FROM t WHERE id = 7");

  std::string blob;
  ASSERT_TRUE(replication::CaptureCheckpoint(&a, &blob).ok());
  Database b;
  uint64_t wal_offset = 0;
  ASSERT_TRUE(replication::LoadCheckpoint(&b, blob, &wal_offset).ok());
  EXPECT_EQ(wal_offset, a.txns().redo_log().size());
  EXPECT_EQ(replication::DumpForDigest(&a), replication::DumpForDigest(&b));
}

}  // namespace
}  // namespace bullfrog
