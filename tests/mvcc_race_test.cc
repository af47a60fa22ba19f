// MVCC race tests, written for TSan: snapshot readers racing committing
// writers (statement-level sum invariant), racing the background version
// GC at a 1ms sweep interval (plus a delete/re-insert churn writer feeding
// its dirty lists), multi-statement transactions whose one begin pin must
// cover every statement while writers commit and sweeps run between
// them, racing a live lazy migration's pulls, and racing a multistep
// copier's dual writes. Readers never take row locks,
// so every reader-side Status must be OK — a reader wait-die abort is a
// test failure, which is exactly the property the Zipf bench measures.

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bullfrog/database.h"
#include "common/clock.h"
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

/// Snapshot readers sum every balance `rounds` times; each statement
/// must observe a transactionally consistent total.
void RunReaders(Database* db, int nthreads, int rounds,
                std::atomic<bool>* failed) {
  std::vector<std::thread> readers;
  for (int r = 0; r < nthreads; ++r) {
    readers.emplace_back([db, rounds, failed, r] {
      for (int i = 0; i < rounds; ++i) {
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

TEST(MvccRaceTest, SnapshotReadersVsTransferWriters) {
  Database db;
  SeedAccounts(&db);
  std::atomic<bool> failed{false};
  std::thread writer_group([&] { RunWriters(&db, 4, 150); });
  RunReaders(&db, 3, 200, &failed);
  writer_group.join();
  EXPECT_FALSE(failed.load());

  // Quiescent total is exact.
  auto s = db.BeginSession({"accounts"});
  auto rows = db.Select(&s, "accounts", nullptr);
  ASSERT_TRUE(rows.ok());
  int64_t sum = 0;
  for (const auto& [rid, row] : *rows) sum += row[1].AsInt();
  EXPECT_EQ(sum, kTotal);
  ASSERT_TRUE(db.Commit(&s).ok());
}

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
