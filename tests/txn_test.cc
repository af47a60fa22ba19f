#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

#include <gtest/gtest.h>

#include "catalog/schema.h"
#include "common/random.h"
#include "storage/table.h"
#include "txn/lock_manager.h"
#include "txn/recovery.h"
#include "txn/txn_manager.h"
#include "txn/wal.h"

namespace bullfrog {
namespace {

TableSchema TestSchema() {
  return SchemaBuilder("t")
      .AddColumn("id", ValueType::kInt64, /*nullable=*/false)
      .AddColumn("v", ValueType::kInt64)
      .SetPrimaryKey({"id"})
      .Build();
}

Tuple Row(int64_t id, int64_t v) { return Tuple{Value::Int(id), Value::Int(v)}; }

TEST(LockManagerTest, ExclusiveExcludesYounger) {
  LockManager lm;
  LockKey key{&lm, 1};
  ASSERT_TRUE(lm.Acquire(1, key).ok());
  // Wait-die: txn 2 is younger than holder 1 -> dies immediately, and the
  // key keeps its one holder.
  EXPECT_TRUE(lm.Acquire(2, key).IsTxnConflict());
  EXPECT_TRUE(lm.Holds(1, key));
  EXPECT_FALSE(lm.Holds(2, key));
  lm.ReleaseAll(1, {key});
  // Released: the younger txn now gets it.
  EXPECT_TRUE(lm.Acquire(2, key).ok());
  EXPECT_TRUE(lm.Holds(2, key));
  lm.ReleaseAll(2, {key});
}

TEST(LockManagerTest, OlderWaitsForRelease) {
  LockManager lm;
  LockKey key{&lm, 1};
  ASSERT_TRUE(lm.Acquire(5, key).ok());
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    // Txn 3 is older than holder 5 -> waits.
    EXPECT_TRUE(lm.Acquire(3, key, 5000).ok());
    acquired.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(acquired.load());
  lm.ReleaseAll(5, {key});
  waiter.join();
  EXPECT_TRUE(acquired.load());
  lm.ReleaseAll(3, {key});
}

TEST(LockManagerTest, Reentrant) {
  LockManager lm;
  LockKey key{&lm, 9};
  ASSERT_TRUE(lm.Acquire(1, key).ok());
  ASSERT_TRUE(lm.Acquire(1, key).ok());
  EXPECT_TRUE(lm.Holds(1, key));
  // The transaction lists the key once per grant; releasing both entries
  // is safe, and the second must not release a later holder's grant.
  lm.ReleaseAll(1, {key});
  EXPECT_FALSE(lm.Holds(1, key));
  ASSERT_TRUE(lm.Acquire(2, key).ok());
  lm.ReleaseAll(1, {key});
  EXPECT_TRUE(lm.Holds(2, key));
  lm.ReleaseAll(2, {key});
}

TEST(LockManagerTest, TimeoutExpires) {
  LockManager lm;
  LockKey key{&lm, 2};
  ASSERT_TRUE(lm.Acquire(10, key).ok());
  // Older txn 5 waits but times out.
  EXPECT_TRUE(lm.Acquire(5, key, 100).code() == StatusCode::kTimedOut);
  lm.ReleaseAll(10, {key});
}

TEST(LockManagerTest, NoLostWakeupsUnderContention) {
  LockManager lm;
  LockKey key{&lm, 3};
  std::atomic<int> in_critical{0};
  std::atomic<int> completions{0};
  std::vector<std::thread> threads;
  // Older transactions (small ids) wait; this must always drain.
  for (uint64_t id = 1; id <= 8; ++id) {
    threads.emplace_back([&, id] {
      Status s = lm.Acquire(id, key, 10000);
      if (!s.ok()) return;
      EXPECT_EQ(in_critical.fetch_add(1), 0);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      in_critical.fetch_sub(1);
      lm.ReleaseAll(id, {key});
      completions.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  // At least the oldest must get through; most should.
  EXPECT_GE(completions.load(), 1);
}

TEST(TxnManagerTest, CommitMakesChangesDurable) {
  TransactionManager tm;
  Table table(TestSchema());
  auto txn = tm.Begin();
  auto out = tm.Insert(txn.get(), &table, Row(1, 10));
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(tm.Commit(txn.get()).ok());
  Tuple row;
  ASSERT_TRUE(table.Read(out->rid, &row).ok());
  EXPECT_EQ(row[1].AsInt(), 10);
  EXPECT_EQ(tm.num_committed(), 1u);
  // The redo log holds the insert + commit records.
  EXPECT_EQ(tm.redo_log().size(), 2u);
}

TEST(TxnManagerTest, AbortUndoesInsert) {
  TransactionManager tm;
  Table table(TestSchema());
  auto txn = tm.Begin();
  auto out = tm.Insert(txn.get(), &table, Row(1, 10));
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(tm.Abort(txn.get()).ok());
  Tuple row;
  EXPECT_TRUE(table.Read(out->rid, &row).IsNotFound());
  EXPECT_EQ(table.NumLiveRows(), 0u);
  // Aborted work must not reach the redo log.
  EXPECT_EQ(tm.redo_log().size(), 0u);
  // The PK is free again.
  auto txn2 = tm.Begin();
  EXPECT_TRUE(tm.Insert(txn2.get(), &table, Row(1, 20)).ok());
  ASSERT_TRUE(tm.Commit(txn2.get()).ok());
}

TEST(TxnManagerTest, AbortUndoesUpdateAndDelete) {
  TransactionManager tm;
  Table table(TestSchema());
  auto setup = tm.Begin();
  auto a = tm.Insert(setup.get(), &table, Row(1, 10));
  auto b = tm.Insert(setup.get(), &table, Row(2, 20));
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(tm.Commit(setup.get()).ok());

  auto txn = tm.Begin();
  ASSERT_TRUE(tm.Update(txn.get(), &table, a->rid, Row(1, 11)).ok());
  ASSERT_TRUE(tm.Delete(txn.get(), &table, b->rid).ok());
  ASSERT_TRUE(tm.Abort(txn.get()).ok());

  Tuple row;
  ASSERT_TRUE(table.Read(a->rid, &row).ok());
  EXPECT_EQ(row[1].AsInt(), 10);
  ASSERT_TRUE(table.Read(b->rid, &row).ok());
  EXPECT_EQ(row[1].AsInt(), 20);
}

TEST(TxnManagerTest, AbortUndoesInReverseOrder) {
  TransactionManager tm;
  Table table(TestSchema());
  auto setup = tm.Begin();
  auto a = tm.Insert(setup.get(), &table, Row(1, 0));
  ASSERT_TRUE(tm.Commit(setup.get()).ok());

  auto txn = tm.Begin();
  ASSERT_TRUE(tm.Update(txn.get(), &table, a->rid, Row(1, 1)).ok());
  ASSERT_TRUE(tm.Update(txn.get(), &table, a->rid, Row(1, 2)).ok());
  ASSERT_TRUE(tm.Abort(txn.get()).ok());
  Tuple row;
  ASSERT_TRUE(table.Read(a->rid, &row).ok());
  EXPECT_EQ(row[1].AsInt(), 0);
}

TEST(TxnManagerTest, WriteConflictTriggersWaitDie) {
  TransactionManager tm;
  Table table(TestSchema());
  auto setup = tm.Begin();
  auto a = tm.Insert(setup.get(), &table, Row(1, 0));
  ASSERT_TRUE(tm.Commit(setup.get()).ok());

  auto older = tm.Begin();
  auto younger = tm.Begin();
  ASSERT_GT(younger->id(), older->id());
  ASSERT_TRUE(tm.Update(older.get(), &table, a->rid, Row(1, 1)).ok());
  // Younger writer dies immediately.
  Tuple row;
  EXPECT_TRUE(
      tm.Read(younger.get(), &table, a->rid, &row, true).IsTxnConflict());
  ASSERT_TRUE(tm.Abort(younger.get()).ok());
  ASSERT_TRUE(tm.Commit(older.get()).ok());
}

// ON CONFLICT DO NOTHING against an uncommitted row waits for its writer:
// after a commit the duplicate is reported and the row is visible to the
// waiter's snapshot reads; after a rollback the key is free and the
// waiter's own insert goes in.
TEST(TxnManagerTest, DoNothingDuplicateWaitsOutThePendingWriter) {
  for (bool writer_commits : {true, false}) {
    TransactionManager tm;
    Table table(TestSchema());
    auto waiter = tm.Begin();  // Older, so wait-die lets it wait.
    auto writer = tm.Begin();
    auto pending = tm.Insert(writer.get(), &table, Row(1, 10));
    ASSERT_TRUE(pending.ok());

    std::atomic<bool> returned{false};
    Result<InsertOutcome> dup = Status::Internal("not run");
    std::thread t([&] {
      dup = tm.Insert(waiter.get(), &table, Row(1, 20),
                      OnConflict::kDoNothing);
      returned.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(returned.load()) << "returned while the row was pending";
    ASSERT_TRUE((writer_commits ? tm.Commit(writer.get())
                                : tm.Abort(writer.get()))
                    .ok());
    t.join();
    ASSERT_TRUE(dup.ok()) << dup.status();
    EXPECT_EQ(dup->inserted, !writer_commits);
    Tuple row;
    if (writer_commits) {
      // The waiter began before the commit, so its begin-ts read misses
      // the row; the statement-level snapshot (visible clock) sees it.
      ASSERT_TRUE(table.ReadAt(dup->rid,
                               mvcc::ReadView{tm.snapshots().visible(),
                                              waiter->id()},
                               &row)
                      .ok());
      EXPECT_EQ(row[1].AsInt(), 10);
    } else {
      ASSERT_TRUE(tm.Read(waiter.get(), &table, dup->rid, &row).ok());
      EXPECT_EQ(row[1].AsInt(), 20);
    }
    ASSERT_TRUE(tm.Commit(waiter.get()).ok());
  }
}

TEST(TxnManagerTest, CommitAndAbortHooksFire) {
  TransactionManager tm;
  int committed = 0, aborted = 0;
  auto t1 = tm.Begin();
  t1->OnCommit([&] { ++committed; });
  t1->OnAbort([&] { ++aborted; });
  ASSERT_TRUE(tm.Commit(t1.get()).ok());
  EXPECT_EQ(committed, 1);
  EXPECT_EQ(aborted, 0);

  auto t2 = tm.Begin();
  t2->OnCommit([&] { ++committed; });
  t2->OnAbort([&] { ++aborted; });
  ASSERT_TRUE(tm.Abort(t2.get()).ok());
  EXPECT_EQ(committed, 1);
  EXPECT_EQ(aborted, 1);
}

TEST(TxnManagerTest, DoubleCommitRejected) {
  TransactionManager tm;
  auto txn = tm.Begin();
  ASSERT_TRUE(tm.Commit(txn.get()).ok());
  EXPECT_FALSE(tm.Commit(txn.get()).ok());
  EXPECT_FALSE(tm.Abort(txn.get()).ok());
}

TEST(TxnManagerTest, ConcurrentTransfersPreserveInvariant) {
  // Classic bank-transfer invariant under wait-die 2PL: total balance is
  // conserved across concurrent read-modify-write transactions.
  TransactionManager tm;
  Table table(TestSchema());
  constexpr int kAccounts = 10;
  constexpr int64_t kInitial = 1000;
  {
    auto setup = tm.Begin();
    for (int i = 0; i < kAccounts; ++i) {
      ASSERT_TRUE(tm.Insert(setup.get(), &table, Row(i, kInitial)).ok());
    }
    ASSERT_TRUE(tm.Commit(setup.get()).ok());
  }
  std::vector<std::thread> threads;
  for (int w = 0; w < 4; ++w) {
    threads.emplace_back([&, w] {
      Rng rng(static_cast<uint64_t>(w) + 99);
      for (int i = 0; i < 400; ++i) {
        const RowId from = rng.Uniform(kAccounts);
        const RowId to = (from + 1 + rng.Uniform(kAccounts - 1)) % kAccounts;
        auto txn = tm.Begin();
        Tuple a, b;
        Status s = tm.Read(txn.get(), &table, from, &a, true);
        if (s.ok()) s = tm.Read(txn.get(), &table, to, &b, true);
        if (s.ok()) {
          s = tm.Update(txn.get(), &table, from,
                        Row(a[0].AsInt(), a[1].AsInt() - 1));
        }
        if (s.ok()) {
          s = tm.Update(txn.get(), &table, to,
                        Row(b[0].AsInt(), b[1].AsInt() + 1));
        }
        if (s.ok()) {
          ASSERT_TRUE(tm.Commit(txn.get()).ok());
        } else {
          ASSERT_TRUE(s.IsRetryable()) << s.ToString();
          ASSERT_TRUE(tm.Abort(txn.get()).ok());
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  int64_t total = 0;
  table.Scan([&](RowId, const Tuple& row) {
    total += row[1].AsInt();
    return true;
  });
  EXPECT_EQ(total, kAccounts * kInitial);
}

TEST(RedoLogTest, AppendAndReplayOrder) {
  RedoLog log;
  LogRecord r1;
  r1.op = LogOp::kInsert;
  r1.table = "t";
  r1.rid = 1;
  log.AppendCommitted(7, {r1});
  std::vector<LogOp> ops;
  std::vector<uint64_t> txns;
  log.Replay([&](const LogRecord& r) {
    ops.push_back(r.op);
    txns.push_back(r.txn_id);
  });
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_EQ(ops[0], LogOp::kInsert);
  EXPECT_EQ(ops[1], LogOp::kCommit);
  EXPECT_EQ(txns[0], 7u);
  EXPECT_EQ(txns[1], 7u);
}

TEST(RedoLogTest, EmptyCommitSkipsSinkAndCommitRecord) {
  RedoLog log;
  std::atomic<int> sink_calls{0};
  log.SetSink([&](const std::vector<LogRecord>&) {
    sink_calls.fetch_add(1);
    return Status::OK();
  });
  // A read-only transaction has nothing to make durable: no commit
  // record, no sink call (and therefore no fsync for a SELECT).
  CommitTicket ticket;
  ASSERT_TRUE(log.AppendCommitted(9, {}, &ticket).ok());
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(sink_calls.load(), 0);
  EXPECT_EQ(ticket.lsn, 0u);
}

TEST(RedoLogTest, SinkFailurePropagatesAndNothingIsPublished) {
  RedoLog log;
  log.SetSink([](const std::vector<LogRecord>&) {
    return Status::Internal("disk full");
  });
  LogRecord r;
  r.op = LogOp::kInsert;
  r.table = "t";
  Status st = log.AppendCommitted(3, {r});
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("disk full"), std::string::npos);
  // Failed appends must never become visible to readers / replication.
  EXPECT_EQ(log.size(), 0u);
}

TEST(RedoLogTest, LsnOrderedAcksUnderConcurrentCommitters) {
  // 16 committers race through the group-commit writer; acks must be
  // released strictly in LSN order (ack_seq order == lsn order), every
  // record must be published, and no two commits may share an LSN.
  RedoLog log;
  std::atomic<int> sink_calls{0};
  log.SetSink([&](const std::vector<LogRecord>& batch) {
    sink_calls.fetch_add(1);
    EXPECT_FALSE(batch.empty());
    return Status::OK();
  });
  constexpr int kThreads = 16;
  constexpr int kCommitsPerThread = 25;
  std::vector<CommitTicket> tickets(kThreads * kCommitsPerThread);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kCommitsPerThread; ++i) {
        LogRecord r;
        r.op = LogOp::kInsert;
        r.table = "t";
        r.rid = static_cast<RowId>(t * kCommitsPerThread + i);
        ASSERT_TRUE(log.AppendCommitted(static_cast<uint64_t>(t + 1), {r},
                                        &tickets[t * kCommitsPerThread + i])
                        .ok());
      }
    });
  }
  for (auto& th : threads) th.join();

  // Every commit wrote its record + a commit record.
  EXPECT_EQ(log.size(), static_cast<size_t>(kThreads * kCommitsPerThread * 2));
  // Group commit must have batched at least some commits into shared
  // sink calls (with 16 threads racing one writer this is overwhelmingly
  // likely; equality would mean zero batching ever happened).
  EXPECT_LE(sink_calls.load(), kThreads * kCommitsPerThread);

  std::sort(tickets.begin(), tickets.end(),
            [](const CommitTicket& a, const CommitTicket& b) {
              return a.ack_seq < b.ack_seq;
            });
  for (size_t i = 0; i < tickets.size(); ++i) {
    EXPECT_GT(tickets[i].lsn, 0u);
    if (i > 0) {
      // Strict: distinct commits get distinct LSNs, released in order.
      EXPECT_GT(tickets[i].ack_seq, tickets[i - 1].ack_seq);
      EXPECT_GT(tickets[i].lsn, tickets[i - 1].lsn);
    }
  }
}

TEST(RedoLogTest, ReadersDoNotBlockWhileSinkIsSyncing) {
  // Regression for the PR-5 behavior where the sink ran under the log
  // mutex: a slow fsync stalled every ReadFrom/Replay/size caller
  // (replication tails, recovery). Here the sink parks mid-"fsync" and
  // readers must still complete — and must NOT see the in-flight records
  // (publish-after-durable).
  RedoLog log;
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool in_sink = false;
  bool release_sink = false;
  log.SetSink([&](const std::vector<LogRecord>&) {
    std::unique_lock lock(gate_mu);
    in_sink = true;
    gate_cv.notify_all();
    gate_cv.wait(lock, [&] { return release_sink; });
    return Status::OK();
  });

  std::thread committer([&] {
    LogRecord r;
    r.op = LogOp::kInsert;
    r.table = "t";
    ASSERT_TRUE(log.AppendCommitted(1, {r}).ok());
  });
  {
    std::unique_lock lock(gate_mu);
    gate_cv.wait(lock, [&] { return in_sink; });
  }
  // The sink is parked mid-sync. Readers must return promptly and see an
  // empty log (the batch is not durable yet, so it is not visible).
  std::vector<LogRecord> out;
  EXPECT_EQ(log.ReadFrom(0, 100, &out), 0u);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(log.size(), 0u);
  size_t replayed = 0;
  log.Replay([&](const LogRecord&) { ++replayed; });
  EXPECT_EQ(replayed, 0u);

  {
    std::lock_guard lock(gate_mu);
    release_sink = true;
  }
  gate_cv.notify_all();
  committer.join();
  EXPECT_EQ(log.size(), 2u);
}

TEST(RedoLogTest, WaitForSizeWakesOnAppend) {
  RedoLog log;
  std::thread waiter([&] {
    // Generous timeout; the appender below should wake us long before.
    EXPECT_GE(log.WaitForSize(0, 10000), 1u);
  });
  LogRecord r;
  r.op = LogOp::kInsert;
  r.table = "t";
  ASSERT_TRUE(log.AppendCommitted(1, {r}).ok());
  waiter.join();
  EXPECT_EQ(log.WaitForSize(0, 0), 2u);  // Non-blocking snapshot.
}

TEST(TxnManagerTest, FailedDurableAppendRollsBackInsteadOfAcking) {
  TransactionManager tm;
  tm.redo_log().SetSink([](const std::vector<LogRecord>&) {
    return Status::Internal("injected sink failure");
  });
  Table table(TestSchema());
  auto txn = tm.Begin();
  auto out = tm.Insert(txn.get(), &table, Row(1, 10));
  ASSERT_TRUE(out.ok());
  Status st = tm.Commit(txn.get());
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("injected sink failure"), std::string::npos);
  // The commit never hit disk, so it must have been rolled back exactly
  // like an abort: row gone, nothing in the log, counted as aborted.
  Tuple row;
  EXPECT_TRUE(table.Read(out->rid, &row).IsNotFound());
  EXPECT_EQ(table.NumLiveRows(), 0u);
  EXPECT_EQ(tm.redo_log().size(), 0u);
  EXPECT_EQ(tm.num_committed(), 0u);
  EXPECT_EQ(tm.num_aborted(), 1u);
  // Locks were released: a new transaction can reuse the PK.
  auto txn2 = tm.Begin();
  EXPECT_TRUE(tm.Insert(txn2.get(), &table, Row(1, 20)).ok());
  EXPECT_FALSE(tm.Commit(txn2.get()).ok());  // Sink still failing.
  EXPECT_EQ(tm.num_aborted(), 2u);
}

class FakeTarget : public TrackerRecoveryTarget {
 public:
  void MarkMigratedFromLog(const Tuple& unit_key) override {
    keys.push_back(unit_key);
  }
  std::vector<Tuple> keys;
};

TEST(RecoveryTest, OnlyCommittedMarksApplied) {
  RedoLog log;
  LogRecord mark;
  mark.op = LogOp::kMigrationMark;
  mark.table = "tracker_a";
  mark.after = Tuple{Value::Int(4)};
  log.AppendCommitted(1, {mark});

  FakeTarget target;
  RecoverTrackerState(log, {{"tracker_a", &target}});
  ASSERT_EQ(target.keys.size(), 1u);
  EXPECT_EQ(target.keys[0][0].AsInt(), 4);
}

TEST(RecoveryTest, UnknownTrackerIdsSkipped) {
  RedoLog log;
  LogRecord mark;
  mark.op = LogOp::kMigrationMark;
  mark.table = "gone";
  mark.after = Tuple{Value::Int(1)};
  log.AppendCommitted(1, {mark});
  FakeTarget target;
  RecoverTrackerState(log, {{"other", &target}});
  EXPECT_TRUE(target.keys.empty());
}

TEST(RecoveryTest, MigrationMarksRecordedOnlyOnCommit) {
  TransactionManager tm;
  // Aborted transaction: mark is buffered but never logged.
  auto t1 = tm.Begin();
  tm.LogMigrationMark(t1.get(), "tr", Tuple{Value::Int(1)});
  ASSERT_TRUE(tm.Abort(t1.get()).ok());
  auto t2 = tm.Begin();
  tm.LogMigrationMark(t2.get(), "tr", Tuple{Value::Int(2)});
  ASSERT_TRUE(tm.Commit(t2.get()).ok());
  FakeTarget target;
  RecoverTrackerState(tm.redo_log(), {{"tr", &target}});
  ASSERT_EQ(target.keys.size(), 1u);
  EXPECT_EQ(target.keys[0][0].AsInt(), 2);
}

}  // namespace
}  // namespace bullfrog
