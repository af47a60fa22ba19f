// MVCC race tests, written for TSan: snapshot readers racing committing
// writers (statement-level sum invariant) on both commit paths — the
// committer sequencing its own commit, and the group-commit writer
// sequencing a batch — checkpoint captures racing those writers, racing
// the background version
// GC at a 1ms sweep interval (plus a delete/re-insert churn writer feeding
// its dirty lists), multi-statement transactions whose one begin pin must
// cover every statement while writers commit and sweeps run between
// them, latch-free chain walks racing aborts, deletes, a replica's log
// apply and the sweeper's reclamation on hot rows, racing a live lazy
// migration's pulls, and racing a multistep copier's dual writes.
// Readers never take row locks, so every reader-side Status must be OK —
// a reader wait-die abort is a test failure, which is exactly the
// property the Zipf bench measures.

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bullfrog/database.h"
#include "common/clock.h"
#include "replication/applier.h"
#include "replication/checkpoint.h"
#include "sql/engine.h"

namespace bullfrog {
namespace {

constexpr int kAccounts = 16;
constexpr int64_t kInitialBalance = 100;
constexpr int64_t kTotal = kAccounts * kInitialBalance;

void SeedAccounts(Database* db) {
  ASSERT_TRUE(db->CreateTable(SchemaBuilder("accounts")
                                  .AddColumn("id", ValueType::kInt64, false)
                                  .AddColumn("balance", ValueType::kInt64)
                                  .SetPrimaryKey({"id"})
                                  .Build())
                  .ok());
  auto s = db->BeginSession({"accounts"});
  for (int i = 0; i < kAccounts; ++i) {
    ASSERT_TRUE(db->Insert(&s, "accounts",
                           Tuple{Value::Int(i), Value::Int(kInitialBalance)})
                    .ok());
  }
  ASSERT_TRUE(db->Commit(&s).ok());
}

/// One transfer transaction: move `delta` from account `from` to
/// account `to` under exclusive row locks. Wait-die may kill it; returns whether it
/// committed so callers can retry like a real client.
bool TryTransfer(Database* db, int from, int to, int64_t delta) {
  auto s = db->BeginSession({"accounts"});
  auto debit = db->Update(&s, "accounts", Eq(Col("id"), LitInt(from)),
                          [&](const Tuple& t) {
                            Tuple u = t;
                            u[1] = Value::Int(t[1].AsInt() - delta);
                            return u;
                          });
  if (!debit.ok()) {
    db->Abort(&s);
    return false;
  }
  auto credit = db->Update(&s, "accounts", Eq(Col("id"), LitInt(to)),
                           [&](const Tuple& t) {
                             Tuple u = t;
                             u[1] = Value::Int(t[1].AsInt() + delta);
                             return u;
                           });
  if (!credit.ok()) {
    db->Abort(&s);
    return false;
  }
  return db->Commit(&s).ok();
}

/// Snapshot readers sum every balance `rounds` times, and then on until
/// `until` (when given) is set; each statement must observe a
/// transactionally consistent total.
void RunReaders(Database* db, int nthreads, int rounds,
                std::atomic<bool>* failed,
                const std::atomic<bool>* until = nullptr) {
  std::vector<std::thread> readers;
  for (int r = 0; r < nthreads; ++r) {
    readers.emplace_back([db, rounds, failed, until, r] {
      for (int i = 0; i < rounds || (until != nullptr && !until->load());
           ++i) {
        auto s = db->BeginSession({"accounts"});
        auto rows = db->Select(&s, "accounts", nullptr);
        if (!rows.ok()) {
          ADD_FAILURE() << "reader " << r << " select: " << rows.status();
          failed->store(true);
          db->Abort(&s);
          return;
        }
        int64_t sum = 0;
        for (const auto& [rid, row] : *rows) sum += row[1].AsInt();
        if (sum != kTotal || rows->size() != kAccounts) {
          ADD_FAILURE() << "reader " << r << " saw inconsistent snapshot: "
                        << rows->size() << " rows, sum " << sum;
          failed->store(true);
          db->Abort(&s);
          return;
        }
        if (!db->Commit(&s).ok()) {
          failed->store(true);
          return;
        }
      }
    });
  }
  for (auto& t : readers) t.join();
}

void RunWriters(Database* db, int nthreads, int transfers) {
  std::vector<std::thread> writers;
  for (int w = 0; w < nthreads; ++w) {
    writers.emplace_back([db, transfers, w] {
      uint64_t rng = 0x9e3779b97f4a7c15ULL * (w + 1);
      auto next = [&rng] {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
      };
      for (int i = 0; i < transfers; ++i) {
        const int from = static_cast<int>(next() % kAccounts);
        int to = static_cast<int>(next() % kAccounts);
        if (to == from) to = (to + 1) % kAccounts;
        const int64_t delta = static_cast<int64_t>(next() % 10) + 1;
        // Wait-die kills are expected under contention; retry a few
        // times, then move on — the invariant holds either way.
        for (int attempt = 0; attempt < 20; ++attempt) {
          if (TryTransfer(db, from, to, delta)) break;
        }
      }
    });
  }
  for (auto& t : writers) t.join();
}

int64_t SumBalances(Database* db) {
  auto s = db->BeginSession({"accounts"});
  auto rows = db->Select(&s, "accounts", nullptr);
  EXPECT_TRUE(rows.ok()) << rows.status();
  int64_t sum = 0;
  if (rows.ok()) {
    for (const auto& [rid, row] : *rows) sum += row[1].AsInt();
  }
  EXPECT_TRUE(db->Commit(&s).ok());
  return sum;
}

/// Runs each body twice: with no sink, where every committer runs the
/// redo log's ordering section itself, and with a sink attached, where
/// the group-commit writer runs it once per batch.
class MvccCommitPathRaceTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    if (GetParam()) {
      db_.txns().redo_log().SetSink(
          [](const std::vector<LogRecord>&) { return Status::OK(); });
    }
  }

  Database db_;
};

TEST_P(MvccCommitPathRaceTest, SnapshotReadersVsTransferWriters) {
  // Readers keep going for as long as the writers do, so snapshots are
  // pinned all through the sequencer's stamp-then-publish pass.
  SeedAccounts(&db_);
  std::atomic<bool> failed{false};
  std::atomic<bool> writers_done{false};
  std::thread writer_group([&] {
    RunWriters(&db_, 4, 1000);
    writers_done.store(true);
  });
  RunReaders(&db_, 3, 200, &failed, &writers_done);
  writer_group.join();
  EXPECT_FALSE(failed.load());

  // Quiescent total is exact.
  EXPECT_EQ(SumBalances(&db_), kTotal);
}

// Checkpoint captures race transfer writers. Each blob must be exactly
// the log prefix below its embedded offset — no commit below the offset
// missing from the snapshot, none past it in it — and restoring it, then
// applying the suffix, must reproduce the quiesced primary.
TEST_P(MvccCommitPathRaceTest, CheckpointCapturesVsTransferWriters) {
  SeedAccounts(&db_);
  std::atomic<bool> writers_done{false};
  std::thread writer_group([&] {
    RunWriters(&db_, 4, 120);
    writers_done.store(true);
  });
  std::vector<std::string> blobs;
  while (!writers_done.load() && blobs.size() < 200) {
    std::string blob;
    const Status st = replication::CaptureCheckpoint(&db_, &blob);
    ASSERT_TRUE(st.ok()) << st;
    blobs.push_back(std::move(blob));
  }
  writer_group.join();
  ASSERT_FALSE(blobs.empty());

  std::vector<LogRecord> log;
  db_.txns().redo_log().ReadFrom(0, SIZE_MAX, &log);
  const std::string primary = replication::DumpForDigest(&db_);
  EXPECT_EQ(SumBalances(&db_), kTotal);
  // `prefix` replays the log up to each blob's offset in turn (captures
  // come in offset order).
  Database prefix;
  replication::LogApplier prefix_applier(&prefix,
                                         /*append_to_local_log=*/false);
  uint64_t replayed = 0;
  for (size_t i = 0; i < blobs.size(); ++i) {
    SCOPED_TRACE("checkpoint " + std::to_string(i));
    Database restored;
    uint64_t offset = 0;
    ASSERT_TRUE(replication::LoadCheckpoint(&restored, blobs[i], &offset).ok());
    ASSERT_GE(offset, replayed);
    ASSERT_LE(offset, log.size());
    EXPECT_EQ(SumBalances(&restored), kTotal);

    ASSERT_TRUE(prefix_applier
                    .Apply(std::vector<LogRecord>(log.begin() + replayed,
                                                  log.begin() + offset))
                    .ok());
    replayed = offset;
    ASSERT_EQ(replication::DumpForDigest(&restored),
              replication::DumpForDigest(&prefix));

    replication::LogApplier applier(&restored, /*append_to_local_log=*/false);
    ASSERT_TRUE(
        applier.Apply(std::vector<LogRecord>(log.begin() + offset, log.end()))
            .ok());
    ASSERT_EQ(replication::DumpForDigest(&restored), primary);
    EXPECT_EQ(SumBalances(&restored), kTotal);
  }
}

INSTANTIATE_TEST_SUITE_P(Sink, MvccCommitPathRaceTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "GroupCommit" : "None";
                         });

TEST(MvccRaceTest, SnapshotReadersVsVersionGc) {
  // A 1ms sweeper races the readers' pinned views and the writers'
  // chain growth; the watermark handshake must keep every pinned
  // version alive. A churn writer deletes and re-inserts rows of a
  // second table so the dirty-list handoff between writers and the
  // sweeper is raced too.
  Database db;
  db.version_gc().Stop();
  db.version_gc().Start(1);
  SeedAccounts(&db);
  ASSERT_TRUE(db.CreateTable(SchemaBuilder("churn")
                                 .AddColumn("id", ValueType::kInt64, false)
                                 .AddColumn("gen", ValueType::kInt64)
                                 .SetPrimaryKey({"id"})
                                 .Build())
                  .ok());
  constexpr int kChurnRows = 8;
  {
    auto s = db.BeginSession({"churn"});
    for (int i = 0; i < kChurnRows; ++i) {
      ASSERT_TRUE(
          db.Insert(&s, "churn", Tuple{Value::Int(i), Value::Int(0)}).ok());
    }
    ASSERT_TRUE(db.Commit(&s).ok());
  }
  std::atomic<bool> stop{false};
  std::thread churner([&] {
    for (int64_t gen = 1; !stop.load(); ++gen) {
      const int id = static_cast<int>(gen % kChurnRows);
      auto s = db.BeginSession({"churn"});
      if (!db.Delete(&s, "churn", Eq(Col("id"), LitInt(id))).ok() ||
          !db.Insert(&s, "churn", Tuple{Value::Int(id), Value::Int(gen)})
               .ok()) {
        db.Abort(&s);
        continue;
      }
      db.Commit(&s);
    }
  });
  std::atomic<bool> failed{false};
  std::thread writer_group([&] { RunWriters(&db, 3, 150); });
  RunReaders(&db, 3, 200, &failed);
  writer_group.join();
  stop.store(true);
  churner.join();
  EXPECT_FALSE(failed.load());
  EXPECT_GE(db.version_gc().passes(), 1u);
  EXPECT_GT(db.version_gc().slots_visited(), 0u);

  // Quiesced, with nothing pinned, one pass empties every dirty list (the
  // next visits no slot) and the churned table still holds each id.
  db.version_gc().Stop();
  db.version_gc().SweepOnce();
  const uint64_t visited = db.version_gc().slots_visited();
  db.version_gc().SweepOnce();
  EXPECT_EQ(db.version_gc().slots_visited(), visited);
  EXPECT_EQ(db.version_gc().last_max_chain(), 1u);
  auto s = db.BeginSession({"churn"});
  auto rows = db.Select(&s, "churn", nullptr);
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(rows->size(), static_cast<size_t>(kChurnRows));
  ASSERT_TRUE(db.Commit(&s).ok());
}

// One pin per transaction: Select takes no statement pin and reads at the
// visible clock under the transaction's begin pin. A writer commits
// generation after generation (every row of `gens` set to the same g in
// one transaction) while a sweeper runs SweepOnce back to back and the
// reader sweeps between its statements too. Each statement must see one
// whole generation, no older than the last one committed before the
// statement started and never going backwards; and the begin-timestamp
// reads of the same transaction must still find the rows as of Begin
// after later generations shadowed them and a sweep ran — a version GC
// freed under the reader would show up as a missing or newer row (or,
// under ASan/TSan, as a freed version touched).
TEST(MvccRaceTest, OneBeginPinCoversEveryStatementAcrossGcSweeps) {
  constexpr int kRows = 8;
  constexpr int kTxns = 200;
  constexpr int kStatements = 8;
  Database db;
  db.version_gc().Stop();  // Sweeps run only where this test runs them.
  ASSERT_TRUE(db.CreateTable(SchemaBuilder("gens")
                                 .AddColumn("id", ValueType::kInt64, false)
                                 .AddColumn("gen", ValueType::kInt64)
                                 .SetPrimaryKey({"id"})
                                 .Build())
                  .ok());
  {
    auto s = db.BeginSession({"gens"});
    for (int i = 0; i < kRows; ++i) {
      ASSERT_TRUE(
          db.Insert(&s, "gens", Tuple{Value::Int(i), Value::Int(0)}).ok());
    }
    ASSERT_TRUE(db.Commit(&s).ok());
  }
  Table* table = db.catalog().FindTable("gens");

  std::atomic<int64_t> committed{0};
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    // The only writer, so no wait-die kill can hit it: any failure is
    // real, and it stops the run.
    for (int64_t g = 1; !stop.load(); ++g) {
      auto s = db.BeginSession({"gens"});
      auto n = db.Update(&s, "gens", nullptr, [g](const Tuple& row) {
        Tuple u = row;
        u[1] = Value::Int(g);
        return u;
      });
      const Status st = n.ok() ? db.Commit(&s) : n.status();
      if (!st.ok()) {
        ADD_FAILURE() << "writer: " << st;
        stop.store(true);
        return;
      }
      committed.store(g);
    }
  });
  std::thread sweeper([&] {
    while (!stop.load()) db.version_gc().SweepOnce();
  });
  struct JoinOnExit {
    std::atomic<bool>* stop;
    std::thread* threads[2];
    ~JoinOnExit() {
      stop->store(true);
      for (std::thread* t : threads) t->join();
    }
  } join_on_exit{&stop, {&writer, &sweeper}};

  auto one_generation = [&](const std::vector<std::pair<RowId, Tuple>>& rows,
                            int64_t* gen) {
    if (rows.size() != static_cast<size_t>(kRows)) return false;
    *gen = rows.front().second[1].AsInt();
    for (const auto& [rid, row] : rows) {
      if (row[1].AsInt() != *gen) return false;
    }
    return true;
  };
  for (int t = 0; t < kTxns && !stop.load(); ++t) {
    auto s = db.BeginSession({"gens"});
    ASSERT_TRUE(s.txn()->pinned());
    // Begin-timestamp reads (repeatable within the transaction).
    std::vector<int64_t> at_begin(kRows);
    for (int i = 0; i < kRows; ++i) {
      Tuple row;
      ASSERT_TRUE(db.txns().Read(s.txn(), table, static_cast<RowId>(i), &row)
                      .ok());
      at_begin[static_cast<size_t>(i)] = row[1].AsInt();
    }
    const int64_t begin_gen = at_begin.front();
    int64_t last = -1;
    for (int k = 0; k < kStatements; ++k) {
      db.version_gc().SweepOnce();
      const int64_t floor = committed.load();
      auto rows = db.Select(&s, "gens", nullptr);
      ASSERT_TRUE(rows.ok()) << rows.status();
      int64_t gen = -1;
      ASSERT_TRUE(one_generation(*rows, &gen))
          << "txn " << t << " statement " << k << " saw a torn snapshot";
      EXPECT_GE(gen, floor) << "statement read older than its timestamp";
      EXPECT_GE(gen, last) << "statement timestamps went backwards";
      last = gen;
    }
    // Later generations now shadow the Begin versions; sweep once more
    // after one lands, then re-read at the begin timestamp.
    while (committed.load() <= begin_gen + 1 && !stop.load()) {
      std::this_thread::yield();
    }
    db.version_gc().SweepOnce();
    for (int i = 0; i < kRows; ++i) {
      Tuple row;
      const Status st =
          db.txns().Read(s.txn(), table, static_cast<RowId>(i), &row);
      ASSERT_TRUE(st.ok()) << "begin-ts version of row " << i
                           << " was reclaimed: " << st;
      EXPECT_EQ(row[1].AsInt(), at_begin[static_cast<size_t>(i)]);
    }
    ASSERT_TRUE(db.Commit(&s).ok());
  }
  EXPECT_GT(db.version_gc().versions_freed(), 0u);
}

// Pin's marker: a reader that has read the clock but not yet stored its
// timestamp in its slot must already hold the watermark down. The hook
// parks the reader in exactly that window while another thread commits a
// newer version, advances the watermark and sweeps.
thread_local bool tl_park_in_pin = false;

TEST(MvccRaceTest, PinMarkerHoldsTheWatermarkBeforeTheTimestampLands) {
  Database db;
  SeedAccounts(&db);
  Table* table = db.catalog().FindTable("accounts");
  RowId rid = 0;
  {
    auto s = db.BeginSession({"accounts"});
    auto rows = db.Select(&s, "accounts", Eq(Col("id"), LitInt(0)));
    ASSERT_TRUE(rows.ok());
    ASSERT_EQ(rows->size(), 1u);
    rid = rows->front().first;
    ASSERT_TRUE(db.Commit(&s).ok());
  }
  struct Park {
    std::atomic<bool> entered{false};
    std::atomic<bool> release{false};
  } park;
  mvcc::SnapshotManager& snaps = db.txns().snapshots();
  snaps.SetPinHookForTesting(
      [](void* arg) {
        if (!tl_park_in_pin) return;
        auto* p = static_cast<Park*>(arg);
        p->entered.store(true);
        while (!p->release.load()) std::this_thread::yield();
      },
      &park);

  Status read_status;
  int64_t balance = -1;
  std::thread reader([&] {
    tl_park_in_pin = true;
    auto s = db.BeginSession({"accounts"});
    tl_park_in_pin = false;
    Tuple row;
    read_status = db.txns().Read(s.txn(), table, rid, &row);
    if (read_status.ok()) balance = row[1].AsInt();
    (void)db.Commit(&s);
  });
  Stopwatch sw;
  while (!park.entered.load() && sw.ElapsedMillis() < 30000) {
    std::this_thread::yield();
  }
  ASSERT_TRUE(park.entered.load());
  const uint64_t reader_clock = snaps.visible();
  {
    auto s = db.BeginSession({"accounts"});
    ASSERT_TRUE(db.Update(&s, "accounts", Eq(Col("id"), LitInt(0)),
                          [](const Tuple& t) {
                            Tuple u = t;
                            u[1] = Value::Int(t[1].AsInt() + 1);
                            return u;
                          })
                    .ok());
    ASSERT_TRUE(db.Commit(&s).ok());
  }
  EXPECT_LE(snaps.AdvanceWatermark(), reader_clock);
  db.version_gc().SweepOnce();
  park.release.store(true);
  reader.join();
  snaps.SetPinHookForTesting(nullptr, nullptr);
  ASSERT_TRUE(read_status.ok()) << "begin-ts version was reclaimed: "
                                << read_status;
  EXPECT_EQ(balance, kInitialBalance);
}

// Snapshot reads walk version chains without the slot latch, so the two
// versions a reader may be standing on when they are unlinked — a pending
// head undone by an abort, a committed tombstone the sweeper cuts out —
// must outlive every reader pinned before the unlink. Writers hammer 4
// hot rows with transfers and delete + re-insert moves (a move re-inserts
// the row into a fresh slot, so every slot a move leaves ends in a
// tombstone), rolling back about half of their transactions; a 1 ms
// sweeper reclaims behind them. Readers check every snapshot three ways
// (point reads by rid at the begin timestamp, ScanAt, Select): 4 rows,
// constant sum. Between checks they re-read the slots the last check
// found live, over and over in one snapshot, and the reads must not
// change. A version freed under a reader shows up as a torn snapshot or
// a changed re-read, or under ASan as a use after free.
TEST(MvccRaceTest, LatchFreeReadersVsAbortsDeletesAndGc) {
  constexpr int kRows = 4;
  constexpr int64_t kBalance = 100;
  constexpr int kWriters = 3;
  constexpr int kWriterTxns = 8000;  // Bounds the slots a scan walks.
  constexpr int kReaders = 6;  // With the writers, more threads than cores.
  constexpr int kCheckEvery = 8;  // Rounds per full snapshot check.
  constexpr int kRereads = 20;
  Database db;
  db.version_gc().Stop();
  db.version_gc().Start(1);
  ASSERT_TRUE(db.CreateTable(SchemaBuilder("hot")
                                 .AddColumn("id", ValueType::kInt64, false)
                                 .AddColumn("balance", ValueType::kInt64)
                                 .SetPrimaryKey({"id"})
                                 .Build())
                  .ok());
  {
    auto s = db.BeginSession({"hot"});
    for (int i = 0; i < kRows; ++i) {
      ASSERT_TRUE(
          db.Insert(&s, "hot", Tuple{Value::Int(i), Value::Int(kBalance)})
              .ok());
    }
    ASSERT_TRUE(db.Commit(&s).ok());
  }
  Table* table = db.catalog().FindTable("hot");

  // One writer transaction: a transfer between two rows or a move of one
  // row to a fresh slot. An attempt that meets a row another writer is
  // moving right now (the latest-version index probe finds no row, or
  // finds it deleted once its lock is granted) or that wait-die kills
  // rolls back and counts as done.
  auto write_once = [&db](uint64_t r) {
    auto s = db.BeginSession({"hot"});
    const int a = static_cast<int>(r % kRows);
    Status st;
    bool skip = false;
    if ((r >> 8) % 2 == 0) {
      const int b = (a + 1 + static_cast<int>((r >> 4) % (kRows - 1))) % kRows;
      const int64_t delta = static_cast<int64_t>((r >> 12) % 7) + 1;
      auto add = [&](int id, int64_t d) {
        auto n = db.Update(&s, "hot", Eq(Col("id"), LitInt(id)),
                           [d](const Tuple& t) {
                             Tuple u = t;
                             u[1] = Value::Int(t[1].AsInt() + d);
                             return u;
                           });
        if (n.ok() && *n != 1) skip = true;
        return n.status();
      };
      st = add(a, -delta);
      if (st.ok() && !skip) st = add(b, delta);
    } else {
      auto row = db.Select(&s, "hot", Eq(Col("id"), LitInt(a)),
                           /*for_update=*/true);
      st = row.status();
      if (st.ok() && row->size() != 1u) skip = true;
      if (st.ok() && !skip) {
        const Tuple moved = row->front().second;
        auto n = db.Delete(&s, "hot", Eq(Col("id"), LitInt(a)));
        st = n.status();
        if (st.ok() && *n != 1) skip = true;
        if (st.ok() && !skip) st = db.Insert(&s, "hot", moved);
      }
    }
    if (st.ok() && !skip && (r >> 16) % 2 == 0) return db.Commit(&s);
    db.Abort(&s);
    return st.ok() || st.IsRetryable() || st.IsNotFound() ? Status::OK() : st;
  };

  std::atomic<int> writers_left{kWriters};
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      uint64_t rng = 0x9e3779b97f4a7c15ULL * (w + 7);
      for (int i = 0; i < kWriterTxns && !failed.load(); ++i) {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        const Status st = write_once(rng);
        if (!st.ok()) {
          ADD_FAILURE() << "writer " << w << ": " << st;
          failed.store(true);
        }
      }
      writers_left.fetch_sub(1);
    });
  }
  auto check = [&failed](const char* how, int rows, int64_t sum) {
    if (rows != kRows || sum != kRows * kBalance) {
      ADD_FAILURE() << how << " saw a torn snapshot: " << rows
                    << " rows, sum " << sum;
      failed.store(true);
    }
  };
  // A full check of one snapshot: 4 rows, constant sum, three ways.
  // Returns the rids that held a row.
  auto check_snapshot = [&](Database::Session* s) {
    std::vector<RowId> live;
    int64_t sum = 0;
    for (RowId rid = 0; rid < table->NumAllocatedRows(); ++rid) {
      Tuple row;
      if (db.txns().Read(s->txn(), table, rid, &row).ok()) {
        live.push_back(rid);
        sum += row[1].AsInt();
      }
    }
    check("point reads", static_cast<int>(live.size()), sum);
    int rows = 0;
    sum = 0;
    table->ScanAt(mvcc::ReadView{s->txn()->begin_ts(), s->txn()->id()},
                  [&](RowId, const Tuple& row) {
                    ++rows;
                    sum += row[1].AsInt();
                    return true;
                  });
    check("ScanAt", rows, sum);
    auto selected = db.Select(s, "hot", nullptr);
    if (!selected.ok()) {
      ADD_FAILURE() << "select: " << selected.status();
      failed.store(true);
      return live;
    }
    rows = 0;
    sum = 0;
    for (const auto& [rid, row] : *selected) {
      ++rows;
      sum += row[1].AsInt();
    }
    check("Select", rows, sum);
    return live;
  };
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      // The slots that held a row at the last full check: the hot rows,
      // or, once moved, their tombstones.
      std::vector<RowId> hot;
      for (int round = 0; writers_left.load() > 0 && !failed.load();
           ++round) {
        auto s = db.BeginSession({"hot"});
        if (round % kCheckEvery == 0) {
          hot = check_snapshot(&s);
        } else {
          // Repeatable reads of the hot slots: most of these walks start
          // at a writer's pending head, the version an abort unlinks.
          std::vector<int64_t> first(hot.size(), -1);  // -1: no row.
          for (int k = 0; k < kRereads && !failed.load(); ++k) {
            for (size_t i = 0; i < hot.size(); ++i) {
              Tuple row;
              const Status st = db.txns().Read(s.txn(), table, hot[i], &row);
              const int64_t got = st.ok() ? row[1].AsInt() : -1;
              if (k == 0) first[i] = got;
              if ((!st.ok() && !st.IsNotFound()) || got != first[i]) {
                ADD_FAILURE() << "read " << k << " of rid " << hot[i]
                              << " changed: " << got << " vs " << first[i]
                              << " (" << st << ")";
                failed.store(true);
              }
            }
          }
        }
        (void)db.Commit(&s);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(failed.load());

  // Quiesced: still exactly one live row per id. (A move that stacked its
  // delete on a racing inserter's not-yet-locked pending row once left
  // the id live in two slots after the inserter's undo.)
  db.version_gc().Stop();
  EXPECT_GT(db.version_gc().versions_freed(), 0u);
  EXPECT_GT(db.version_gc().max_chain(), 1u);
  auto s = db.BeginSession({"hot"});
  auto rows = db.Select(&s, "hot", nullptr);
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(rows->size(), static_cast<size_t>(kRows));
  ASSERT_TRUE(db.Commit(&s).ok());
}

// A replica applies the primary's log as non-transactional installs,
// which are never published through its commit clock: a latch-free
// reader may have loaded a row's head just before an applied write
// shadowed it. What such an install shadows is therefore retired, not
// freed, and the applier moves the clock once per applied transaction so
// the watermark passes those stamps. Readers check every row they read
// is whole (b == -a, a stamp of the applied generation) while the applier
// updates, deletes and re-inserts the rows in place; a version freed
// under a reader shows up as a torn row, or under ASan as a use after
// free.
TEST(MvccRaceTest, LatchFreeReadersVsReplicaApply) {
  constexpr int kRows = 4;
  constexpr int kTxns = 50000;
  constexpr int kReaders = 4;
  Database db;
  db.version_gc().Stop();
  db.version_gc().Start(1);
  ASSERT_TRUE(db.CreateTable(SchemaBuilder("rep")
                                 .AddColumn("id", ValueType::kInt64, false)
                                 .AddColumn("a", ValueType::kInt64)
                                 .AddColumn("b", ValueType::kInt64)
                                 .SetPrimaryKey({"id"})
                                 .Build())
                  .ok());
  Table* table = db.catalog().FindTable("rep");
  auto row_at = [](int id, int64_t gen) {
    return Tuple{Value::Int(id), Value::Int(gen), Value::Int(-gen)};
  };
  replication::LogApplier applier(&db, /*append_to_local_log=*/false);
  auto apply = [&](uint64_t txn, LogOp op, int id, int64_t gen) {
    LogRecord r;
    r.txn_id = txn;
    r.op = op;
    r.table = "rep";
    r.rid = static_cast<RowId>(id);
    if (op != LogOp::kDelete) r.after = row_at(id, gen);
    LogRecord commit;
    commit.txn_id = txn;
    commit.op = LogOp::kCommit;
    return applier.Apply({r, commit});
  };
  for (int id = 0; id < kRows; ++id) {
    ASSERT_TRUE(apply(id + 1, LogOp::kInsert, id, 0).ok());
  }

  std::atomic<bool> done{false};
  std::atomic<bool> failed{false};
  std::thread writer([&] {
    for (int i = 0; i < kTxns && !failed.load(); ++i) {
      const int id = i % kRows;
      const uint64_t txn = static_cast<uint64_t>(kRows + 1 + i);
      // Every eighth transaction deletes the row; the next one on it
      // re-inserts it into the same slot, as a replayed insert does.
      const bool gone = (i / kRows) % 8 == 7;
      const bool back = (i / kRows) % 8 == 0 && i >= kRows;
      const LogOp op = gone   ? LogOp::kDelete
                       : back ? LogOp::kInsert
                              : LogOp::kUpdate;
      const Status st = apply(txn, op, id, i);
      if (!st.ok()) {
        ADD_FAILURE() << "apply " << i << ": " << st;
        failed.store(true);
      }
    }
    done.store(true);
  });
  auto whole = [&](const Tuple& row) {
    if (row.size() != 3 || row[2].AsInt() != -row[1].AsInt()) {
      ADD_FAILURE() << "torn row " << row.ToString();
      failed.store(true);
    }
  };
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      while (!done.load() && !failed.load()) {
        auto s = db.BeginSession({"rep"});
        for (int k = 0; k < 20; ++k) {
          for (RowId rid = 0; rid < static_cast<RowId>(kRows); ++rid) {
            Tuple row;
            if (db.txns().Read(s.txn(), table, rid, &row).ok()) whole(row);
          }
        }
        table->ScanAt(mvcc::ReadView{s.txn()->begin_ts(), s.txn()->id()},
                      [&](RowId, const Tuple& row) {
                        whole(row);
                        return true;
                      });
        auto rows = db.Select(&s, "rep", nullptr);
        if (rows.ok()) {
          for (const auto& [rid, row] : *rows) whole(row);
        }
        (void)db.Commit(&s);
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_FALSE(failed.load());

  // The applied transactions moved the clock, so with the readers gone
  // the sweeps free what the applier retired.
  db.version_gc().Stop();
  EXPECT_GE(db.txns().snapshots().visible(),
            static_cast<uint64_t>(kRows + kTxns));
  db.version_gc().SweepOnce();
  db.version_gc().SweepOnce();
  EXPECT_GT(db.version_gc().versions_freed(), 0u);
}

TEST(MvccRaceTest, SnapshotReadersVsLiveLazyMigration) {
  Database db;
  sql::SqlEngine engine(&db);
  {
    auto r = engine.Execute(
        "CREATE TABLE kv (id INT PRIMARY KEY, score DOUBLE, name TEXT)");
    ASSERT_TRUE(r.ok()) << r.status();
  }
  for (int i = 0; i < 200; ++i) {
    auto r = engine.Execute("INSERT INTO kv VALUES (" + std::to_string(i) +
                            ", " + std::to_string(i) + ".5, 'row" +
                            std::to_string(i) + "')");
    ASSERT_TRUE(r.ok()) << r.status();
  }

  MigrationController::SubmitOptions opts;
  opts.enable_background = true;
  ASSERT_TRUE(engine
                  .SubmitMigrationScript(
                      "CREATE TABLE kv2 PRIMARY KEY (id) AS "
                      "SELECT id, name FROM kv; DROP TABLE kv;",
                      opts)
                  .ok());

  // Readers scan the new schema while background workers and their own
  // lazy pulls migrate granules underneath them. Every scan triggers
  // PrepareRead first, so each must see all 200 rows.
  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&db, &failed, r] {
      for (int i = 0; i < 40 && !failed.load(); ++i) {
        auto s = db.BeginSession({"kv2"});
        auto rows = db.Select(&s, "kv2", nullptr);
        if (!rows.ok()) {
          ADD_FAILURE() << "reader " << r << ": " << rows.status();
          failed.store(true);
          db.Abort(&s);
          return;
        }
        if (rows->size() != 200u) {
          ADD_FAILURE() << "reader " << r << " saw " << rows->size()
                        << " rows mid-migration";
          failed.store(true);
        }
        db.Commit(&s);
      }
    });
  }
  for (auto& t : readers) t.join();
  EXPECT_FALSE(failed.load());

  for (int i = 0; i < 2000 && !db.controller().IsComplete(); ++i) {
    Clock::SleepMillis(1);
  }
  EXPECT_TRUE(db.controller().IsComplete());
}

TEST(MvccRaceTest, SnapshotReadersVsMultiStepCopier) {
  Database db;
  sql::SqlEngine engine(&db);
  {
    auto r = engine.Execute(
        "CREATE TABLE src (id INT PRIMARY KEY, grp INT, val INT)");
    ASSERT_TRUE(r.ok()) << r.status();
  }
  int64_t total = 0;
  for (int i = 0; i < 300; ++i) {
    auto r = engine.Execute("INSERT INTO src VALUES (" + std::to_string(i) +
                            ", " + std::to_string(i % 10) + ", " +
                            std::to_string(i) + ")");
    ASSERT_TRUE(r.ok()) << r.status();
    total += i;
  }

  MigrationController::SubmitOptions opts;
  opts.strategy = MigrationStrategy::kMultiStep;
  opts.multistep.batch = 16;
  opts.multistep.pause_us = 500;  // Pace the copier so reads land mid-copy.
  ASSERT_TRUE(engine
                  .SubmitMigrationScript(
                      "CREATE TABLE dst PRIMARY KEY (id) AS "
                      "SELECT id, val FROM src; DROP TABLE src;",
                      opts)
                  .ok());

  // The old schema stays active during the copy: snapshot readers keep
  // summing it and must see a stable total until the cutover drops it.
  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&db, &failed, total, r] {
      while (!db.controller().IsComplete() && !failed.load()) {
        auto s = db.BeginSession({"src"});
        auto rows = db.Select(&s, "src", nullptr);
        if (!rows.ok()) {
          // The cutover retires src mid-loop; that rejection is the
          // expected end of this reader's run, not a failure.
          db.Abort(&s);
          return;
        }
        int64_t sum = 0;
        for (const auto& [rid, row] : *rows) sum += row[2].AsInt();
        if (sum != total) {
          ADD_FAILURE() << "reader " << r << " saw torn sum " << sum;
          failed.store(true);
        }
        db.Commit(&s);
      }
    });
  }
  for (auto& t : readers) t.join();
  EXPECT_FALSE(failed.load());

  for (int i = 0; i < 5000 && !db.controller().IsComplete(); ++i) {
    Clock::SleepMillis(1);
  }
  ASSERT_TRUE(db.controller().IsComplete());
  auto s = db.BeginSession({"dst"});
  auto rows = db.Select(&s, "dst", nullptr);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 300u);
  ASSERT_TRUE(db.Commit(&s).ok());
}

}  // namespace
}  // namespace bullfrog
