// Shared-nothing sharding: router dispatch + merge, cross-shard
// coordinated migration, partition-preservation validation, and per-shard
// WAL durability (see src/shard/ and DESIGN.md "Shared-nothing sharding").

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "catalog/schema.h"
#include "shard/partition.h"
#include "shard/router.h"
#include "shard/sharded_database.h"
#include "sql/engine.h"

namespace bullfrog::shard {
namespace {

MigrationController::SubmitOptions FastLazy() {
  MigrationController::SubmitOptions opts;
  opts.strategy = MigrationStrategy::kLazy;
  opts.lazy.background_start_delay_ms = 0;
  return opts;
}

class ShardTest : public ::testing::Test {
 protected:
  static constexpr size_t kShards = 4;
  static constexpr int kRows = 64;

  void SetUp() override {
    db_ = std::make_unique<ShardedDatabase>(kShards);
    session_ = std::make_unique<Session>(db_.get());
    reference_ = std::make_unique<ShardedDatabase>(1);
    ref_session_ = std::make_unique<Session>(reference_.get());
    for (Session* s : {session_.get(), ref_session_.get()}) {
      ExecOn(s, "CREATE TABLE kv (id INT PRIMARY KEY, val INT, tag TEXT)");
      for (int i = 0; i < kRows; ++i) {
        ExecOn(s, "INSERT INTO kv VALUES (" + std::to_string(i) + ", " +
                      std::to_string(i * 10) + ", '" +
                      (i % 2 == 0 ? "even" : "odd") + "')");
      }
    }
  }

  sql::SqlEngine::QueryResult ExecOn(Session* s, const std::string& sql) {
    auto result = s->Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
    return result.ok() ? std::move(*result) : sql::SqlEngine::QueryResult{};
  }

  sql::SqlEngine::QueryResult Exec(const std::string& sql) {
    return ExecOn(session_.get(), sql);
  }

  std::unique_ptr<ShardedDatabase> db_;
  std::unique_ptr<Session> session_;
  std::unique_ptr<ShardedDatabase> reference_;
  std::unique_ptr<Session> ref_session_;
};

TEST_F(ShardTest, InsertSplitsRowsAcrossAllShards) {
  // FNV over 64 int keys should land rows on every one of 4 shards, and
  // the per-shard counts must sum to the inserted total.
  uint64_t total = 0;
  size_t populated = 0;
  for (size_t i = 0; i < kShards; ++i) {
    sql::SqlEngine engine(db_->shard(i));
    auto r = engine.Execute("SELECT COUNT(*) AS n FROM kv");
    ASSERT_TRUE(r.ok());
    const uint64_t n = static_cast<uint64_t>(r->rows[0][0].AsInt());
    total += n;
    if (n > 0) ++populated;
  }
  EXPECT_EQ(total, static_cast<uint64_t>(kRows));
  EXPECT_EQ(populated, kShards);
}

TEST_F(ShardTest, MultiRowInsertWithBadRowAppliesNothing) {
  // Satellite bugfix: a multi-row INSERT spanning shards used to split
  // into per-shard batches and execute them sequentially — a row the
  // engine rejects (arity, unknown column, type mismatch) mid-flight left
  // earlier shards' batches committed. All statically checkable errors
  // must now fail the whole statement before any shard executes.
  const auto count = [&] {
    return Exec("SELECT COUNT(*) AS n FROM kv").rows[0][0].AsInt();
  };
  const int64_t before = count();

  // Arity mismatch in the last row.
  auto r = session_->Execute(
      "INSERT INTO kv VALUES (1000, 1, 'a'), (1001, 2, 'b'), (1002, 3)");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(count(), before);

  // Type mismatch in the last row.
  r = session_->Execute(
      "INSERT INTO kv VALUES (1000, 1, 'a'), (1001, 2, 'b'), "
      "(1002, 'oops', 'c')");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(count(), before);

  // Unknown column in the declared list.
  r = session_->Execute(
      "INSERT INTO kv (id, nope) VALUES (1000, 1), (1001, 2)");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(count(), before);

  // Control: the same batch with every row valid lands atomically.
  r = session_->Execute(
      "INSERT INTO kv VALUES (1000, 1, 'a'), (1001, 2, 'b'), (1002, 3, 'c')");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(count(), before + 3);

  // Runtime conflicts can still strike mid-flight (duplicate key on a
  // later shard after an earlier shard committed); the error must name
  // the partial write instead of pretending atomicity.
  r = session_->Execute(
      "INSERT INTO kv VALUES (2000, 1, 'x'), (2001, 2, 'y'), (1000, 3, 'z')");
  EXPECT_FALSE(r.ok());
  const int64_t after = count();
  if (after != before + 3) {
    // Some rows landed before the duplicate was hit — the message says so.
    EXPECT_NE(r.status().message().find("partially applied"),
              std::string::npos)
        << r.status().ToString();
  }
}

TEST_F(ShardTest, PointReadRoutesToOwningShard) {
  Router router(db_.get());
  for (int i = 0; i < kRows; ++i) {
    auto r = Exec("SELECT val FROM kv WHERE id = " + std::to_string(i));
    ASSERT_EQ(r.rows.size(), 1u) << "id=" << i;
    EXPECT_EQ(r.rows[0][0].AsInt(), i * 10);
    // The owning shard must actually hold the row.
    const size_t home = router.ShardOfKey(Value::Int(i));
    sql::SqlEngine engine(db_->shard(home));
    auto local = engine.Execute("SELECT val FROM kv WHERE id = " +
                                std::to_string(i));
    ASSERT_TRUE(local.ok());
    EXPECT_EQ(local->rows.size(), 1u) << "id=" << i << " shard=" << home;
  }
}

TEST_F(ShardTest, CrossShardAggregatesMatchSingleShardReference) {
  const std::string queries[] = {
      "SELECT COUNT(*) AS n FROM kv",
      "SELECT SUM(val) AS s FROM kv",
      "SELECT AVG(val) AS a FROM kv",
      "SELECT MIN(val) AS lo, MAX(val) AS hi FROM kv",
      "SELECT COUNT(*) AS n, SUM(val) AS s, AVG(val) AS a FROM kv "
      "WHERE tag = 'even'",
      "SELECT AVG(val) AS a FROM kv WHERE val < 0",  // Empty: AVG is NULL.
  };
  for (const std::string& q : queries) {
    auto sharded = Exec(q);
    auto single = ExecOn(ref_session_.get(), q);
    ASSERT_EQ(sharded.rows.size(), 1u) << q;
    ASSERT_EQ(single.rows.size(), 1u) << q;
    ASSERT_EQ(sharded.rows[0].size(), single.rows[0].size()) << q;
    for (size_t c = 0; c < single.rows[0].size(); ++c) {
      const Value& got = sharded.rows[0][c];
      const Value& want = single.rows[0][c];
      ASSERT_EQ(got.type(), want.type()) << q << " col " << c;
      if (want.type() == ValueType::kDouble) {
        EXPECT_DOUBLE_EQ(got.AsDouble(), want.AsDouble()) << q << " col " << c;
      } else if (want.type() != ValueType::kNull) {
        EXPECT_EQ(got, want) << q << " col " << c;
      }
    }
  }
}

TEST_F(ShardTest, FanOutScanReturnsEveryRow) {
  auto r = Exec("SELECT id, val FROM kv WHERE tag = 'odd'");
  EXPECT_EQ(r.rows.size(), static_cast<size_t>(kRows / 2));
  auto single = ExecOn(ref_session_.get(),
                       "SELECT id, val FROM kv WHERE tag = 'odd'");
  EXPECT_EQ(r.rows.size(), single.rows.size());
}

TEST_F(ShardTest, UpdateOfPartitionColumnRejected) {
  auto r = session_->Execute("UPDATE kv SET id = 999 WHERE id = 1");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnsupported)
      << r.status().ToString();
}

TEST_F(ShardTest, ExplicitTransactionRejectedAcrossShards) {
  auto r = session_->Execute("BEGIN");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnsupported)
      << r.status().ToString();
  // The 1-shard deployment passes BEGIN/COMMIT straight through.
  EXPECT_TRUE(ref_session_->Execute("BEGIN").ok());
  EXPECT_TRUE(ref_session_->Execute("COMMIT").ok());
}

TEST_F(ShardTest, CoordinatedMigrationDrainsEveryShard) {
  MigrationCoordinator& coord = db_->coordinator();
  EXPECT_FALSE(coord.HasActiveMigration());
  EXPECT_DOUBLE_EQ(coord.Progress(), 1.0);

  ASSERT_TRUE(session_
                  ->SubmitMigrationScript(
                      "CREATE TABLE kv2 PRIMARY KEY (id) AS "
                      "SELECT id, val, val + val AS dbl FROM kv; "
                      "DROP TABLE kv;",
                      FastLazy())
                  .ok());
  // With zero background delay the shards may drain before we look, so
  // the only states observable here are draining and complete.
  const std::string after_submit = coord.StatusReport();
  EXPECT_TRUE(after_submit.find("state=draining") != std::string::npos ||
              after_submit.find("state=complete") != std::string::npos)
      << after_submit;

  // Lazy reads against the new schema work mid-migration on every path:
  // routed point read and cross-shard aggregate.
  auto r = Exec("SELECT dbl FROM kv2 WHERE id = 3");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 60);
  auto agg = Exec("SELECT COUNT(*) AS n, SUM(dbl) AS s FROM kv2");
  EXPECT_EQ(agg.rows[0][0].AsInt(), kRows);
  EXPECT_EQ(agg.rows[0][1].AsDouble(), 2.0 * 10 * (kRows - 1) * kRows / 2);

  // Completion is collective: the coordinator reports complete only after
  // every shard's background migrator drains its partition.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!coord.IsComplete() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(coord.IsComplete());
  EXPECT_FALSE(coord.HasActiveMigration());
  EXPECT_NE(coord.StatusReport().find("state=complete"), std::string::npos)
      << coord.StatusReport();
  EXPECT_DOUBLE_EQ(coord.Progress(), 1.0);

  // Per-shard accounting: every shard participated, units sum to the
  // aggregate, and every shard reports complete.
  const std::vector<MigrationCoordinator::ShardProgress> shards =
      coord.PerShard();
  ASSERT_EQ(shards.size(), kShards);
  uint64_t units = 0;
  for (const auto& sp : shards) {
    EXPECT_TRUE(sp.complete) << "shard " << sp.shard;
    EXPECT_DOUBLE_EQ(sp.progress, 1.0) << "shard " << sp.shard;
    EXPECT_GT(sp.rows_migrated, 0u) << "shard " << sp.shard;
    units += sp.units_migrated;
  }
  EXPECT_EQ(units, coord.TotalUnitsMigrated());
  EXPECT_GT(units, 0u);

  // Old table is gone everywhere; the new one holds every row.
  EXPECT_FALSE(session_->Execute("SELECT * FROM kv").ok());
  auto n = Exec("SELECT COUNT(*) AS n FROM kv2");
  EXPECT_EQ(n.rows[0][0].AsInt(), kRows);
}

// A shard that rejects a coordinated submit (an output name taken on that
// shard only) switches nothing; the coordinator report names its reason
// and shows the accepting shard's entry draining, with no sticky state.
TEST(ShardSwitchTest, RejectingShardLeavesNoTraceAndNamesTheReason) {
  ShardedDatabase db(2);
  Session session(&db);
  ASSERT_TRUE(session.Execute("CREATE TABLE users (id INT PRIMARY KEY, v INT)")
                  .ok());
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(session
                    .Execute("INSERT INTO users VALUES (" +
                             std::to_string(i) + ", " + std::to_string(i) +
                             ")")
                    .ok());
  }
  ASSERT_TRUE(db.shard(1)
                  ->CreateTable(SchemaBuilder("taken2")
                                    .AddColumn("id", ValueType::kInt64, false)
                                    .SetPrimaryKey({"id"})
                                    .Build())
                  .ok());
  MigrationController::SubmitOptions opts = FastLazy();
  opts.enable_background = false;  // Shard 0's entry stays draining.
  const Status s = session.SubmitMigrationScript(
      "CREATE TABLE fresh2 PRIMARY KEY (id) AS SELECT id FROM users; "
      "CREATE TABLE taken2 PRIMARY KEY (id) AS SELECT id, v FROM users; "
      "DROP TABLE users;",
      opts);
  // Shard 0 switched, so the submit is partly applied, not refused.
  EXPECT_EQ(s.code(), StatusCode::kInternal) << s.ToString();
  EXPECT_NE(s.message().find("partly applied: accepted by shards 0,"),
            std::string::npos)
      << s.ToString();
  EXPECT_NE(s.message().find("AlreadyExists: shard 1 rejected the migration"),
            std::string::npos)
      << s.ToString();

  const Catalog& rejected = db.shard(1)->catalog();
  EXPECT_EQ(rejected.FindTable("fresh2"), nullptr);
  EXPECT_EQ(rejected.GetState("users"), TableState::kActive);
  EXPECT_FALSE(db.shard(1)->controller().HasActiveMigration());
  EXPECT_EQ(db.shard(0)->catalog().GetState("fresh2"), TableState::kActive);

  MigrationCoordinator& coord = db.coordinator();
  EXPECT_TRUE(coord.HasActiveMigration());
  EXPECT_FALSE(coord.IsComplete());
  const std::string report = coord.StatusReport();
  EXPECT_NE(report.find("state=draining"), std::string::npos) << report;
  const size_t shard1 = report.find("shard 1:");
  ASSERT_NE(shard1, std::string::npos) << report;
  EXPECT_NE(report.find("last_failure=sql:fresh2: AlreadyExists", shard1),
            std::string::npos)
      << report;
  const size_t shard0 = report.find("shard 0:");
  EXPECT_EQ(report.substr(shard0, shard1 - shard0).find("last_failure"),
            std::string::npos)
      << "only shard 1 failed: " << report;
}

// A duplicate on one shard only: that shard refuses with kBusy while the
// other switches. The submit must not come back as a plain kBusy, which
// says nothing was applied; it names the shard that accepted.
TEST(ShardSwitchTest, DuplicateOnOneShardReportsAPartialSubmit) {
  ShardedDatabase db(2);
  Session session(&db);
  ASSERT_TRUE(session.Execute("CREATE TABLE users (id INT PRIMARY KEY, v INT)")
                  .ok());
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(session
                    .Execute("INSERT INTO users VALUES (" +
                             std::to_string(i) + ", " + std::to_string(i) +
                             ")")
                    .ok());
  }
  const std::string script =
      "CREATE TABLE users2 PRIMARY KEY (id) AS SELECT id, v FROM users; "
      "DROP TABLE users;";
  MigrationController::SubmitOptions opts = FastLazy();
  opts.enable_background = false;  // Both entries stay draining.
  ASSERT_TRUE(sql::SubmitMigrationScript(db.shard(1), script, opts).ok());

  const Status s = session.SubmitMigrationScript(script, opts);
  EXPECT_EQ(s.code(), StatusCode::kInternal) << s.ToString();
  EXPECT_NE(s.message().find("partly applied: accepted by shards 0,"),
            std::string::npos)
      << s.ToString();
  EXPECT_NE(s.message().find("Busy: shard 1 rejected the migration"),
            std::string::npos)
      << s.ToString();
  EXPECT_EQ(db.shard(0)->catalog().GetState("users2"), TableState::kActive);
  EXPECT_TRUE(db.shard(0)->controller().HasActiveMigration());
  EXPECT_NE(db.coordinator().StatusReport().find("state=draining"),
            std::string::npos);
}

TEST_F(ShardTest, NonPartitionPreservingMigrationRejected) {
  // GROUP BY tag re-homes rows (output PK 'tag' is not a pass-through of
  // input partition column 'id') — inadmissible without row exchange.
  const Status st = session_->SubmitMigrationScript(
      "CREATE TABLE by_tag PRIMARY KEY (tag) AS "
      "SELECT tag, COUNT(*) AS n FROM kv GROUP BY tag;",
      FastLazy());
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kUnsupported) << st.ToString();
  // Nothing was submitted anywhere; the coordinator is reusable.
  EXPECT_FALSE(db_->coordinator().HasActiveMigration());
  EXPECT_TRUE(db_->coordinator().IsComplete());
  EXPECT_NE(db_->coordinator().StatusReport().find("state=idle"),
            std::string::npos)
      << db_->coordinator().StatusReport();
  for (size_t i = 0; i < kShards; ++i) {
    EXPECT_FALSE(db_->shard(i)->controller().HasActiveMigration());
  }
  // A partition-preserving script still goes through afterwards.
  EXPECT_TRUE(session_
                  ->SubmitMigrationScript(
                      "CREATE TABLE kv3 PRIMARY KEY (id) AS "
                      "SELECT id, val FROM kv; DROP TABLE kv;",
                      FastLazy())
                  .ok());
}

TEST_F(ShardTest, MigrationDdlRejectedOnQueryPath) {
  auto r = session_->Execute(
      "CREATE TABLE kv2 PRIMARY KEY (id) AS SELECT id, val FROM kv");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
      << r.status().ToString();
}

TEST(ShardPartitionTest, HashIsStableAcrossProcessRestarts) {
  // FNV-1a with the canonical offset/prime: these are process-independent
  // constants, so a shard's WAL can be recovered by a fresh process.
  EXPECT_EQ(HashPartitionValue(Value::Int(0)) % 4,
            HashPartitionValue(Value::Int(0)) % 4);
  EXPECT_NE(HashPartitionValue(Value::Int(1)),
            HashPartitionValue(Value::Str("1")));
  // Int->Timestamp / Int->Double coercion hashes like the column type.
  EXPECT_EQ(HashPartitionValue(
                CoercePartitionValue(ValueType::kTimestamp, Value::Int(7))),
            HashPartitionValue(Value::Timestamp(7)));
  EXPECT_EQ(HashPartitionValue(
                CoercePartitionValue(ValueType::kDouble, Value::Int(7))),
            HashPartitionValue(Value::Double(7.0)));
}

class ShardDurabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("bf_shard_wal_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(ShardDurabilityTest, RecoversEveryShardSegmentIndependently) {
  constexpr int kRows = 48;
  {
    ShardedDatabase db(4);
    ASSERT_TRUE(db.OpenDurable(dir_.string()).ok());
    Session s(&db);
    ASSERT_TRUE(
        s.Execute("CREATE TABLE kv (id INT PRIMARY KEY, val INT)").ok());
    for (int i = 0; i < kRows; ++i) {
      ASSERT_TRUE(s.Execute("INSERT INTO kv VALUES (" + std::to_string(i) +
                            ", " + std::to_string(i) + ")")
                      .ok());
    }
  }
  // Every shard owns its own segment directory.
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(
        std::filesystem::is_directory(dir_ / ("shard-" + std::to_string(i))))
        << "shard-" << i;
  }
  // A fresh process recovers all shards and serves the full data set.
  {
    ShardedDatabase db(4);
    ASSERT_TRUE(db.OpenDurable(dir_.string()).ok());
    Session s(&db);
    auto r = s.Execute("SELECT COUNT(*) AS n, SUM(val) AS s FROM kv");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->rows[0][0].AsInt(), kRows);
    EXPECT_DOUBLE_EQ(r->rows[0][1].AsDouble(),
                     static_cast<double>((kRows - 1) * kRows / 2));
  }
  // Re-opening with a different shard count would silently re-home keys.
  {
    ShardedDatabase db(2);
    const Status st = db.OpenDurable(dir_.string());
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  }
}

TEST_F(ShardDurabilityTest, ConcurrentCommitsRecoverExactlyTheAckedSet) {
  // Each shard's RedoLog syncs its own segment from its own group-commit
  // writer. Four sessions commit disjoint keys at once, so every shard's
  // writer batches commits from several threads; a restart must recover
  // exactly the commits that were acked — no more, no fewer.
  constexpr size_t kShards = 4;
  constexpr int kThreads = 4;
  constexpr int kKeysPerThread = 32;
  // Per key: the value of its last acked commit, or -1 if none was acked.
  std::vector<int64_t> acked(kThreads * kKeysPerThread, -1);
  {
    ShardedDatabase db(kShards);
    ASSERT_TRUE(db.OpenDurable(dir_.string()).ok());
    Session setup(&db);
    ASSERT_TRUE(
        setup.Execute("CREATE TABLE kv (id INT PRIMARY KEY, val INT)").ok());
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        Session s(&db);
        for (int i = 0; i < kKeysPerThread; ++i) {
          const int id = t * kKeysPerThread + i;
          const std::string key = std::to_string(id);
          if (s.Execute("INSERT INTO kv VALUES (" + key + ", " + key + ")")
                  .ok()) {
            acked[id] = id;
          }
          const int64_t updated = int64_t{id} * 7 + 3;
          if (s.Execute("UPDATE kv SET val = " + std::to_string(updated) +
                        " WHERE id = " + key)
                  .ok() &&
              acked[id] >= 0) {
            acked[id] = updated;
          }
        }
      });
    }
    for (std::thread& th : threads) th.join();
  }
  // Every thread's keys span every shard, so each shard's writer served
  // commits from all four threads.
  for (int t = 0; t < kThreads; ++t) {
    std::vector<bool> hit(kShards, false);
    for (int i = 0; i < kKeysPerThread; ++i) {
      hit[ShardIndex(HashPartitionValue(Value::Int(t * kKeysPerThread + i)),
                     kShards)] = true;
    }
    for (size_t sh = 0; sh < kShards; ++sh) {
      EXPECT_TRUE(hit[sh]) << "thread " << t << " shard " << sh;
    }
  }
  int64_t want_rows = 0;
  int64_t want_sum = 0;
  for (int64_t v : acked) {
    if (v < 0) continue;
    ++want_rows;
    want_sum += v;
  }
  EXPECT_GT(want_rows, 0);

  ShardedDatabase db(kShards);
  ASSERT_TRUE(db.OpenDurable(dir_.string()).ok());
  Session s(&db);
  auto r = s.Execute("SELECT COUNT(*) AS n, SUM(val) AS s FROM kv");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows[0][0].AsInt(), want_rows);
  EXPECT_DOUBLE_EQ(r->rows[0][1].AsDouble(), static_cast<double>(want_sum));
}

TEST_F(ShardDurabilityTest, BulkInsertIsLoggedAndRecovered) {
  // Satellite: Database::BulkInsert now logs through the WAL as one
  // batched txn-0 append, so a bulk-loaded table survives a restart.
  {
    Database db;
    replication::WalDir wal;
    ASSERT_TRUE(wal.Open(dir_.string()).ok());
    ASSERT_TRUE(wal.Recover(&db).ok());
    ASSERT_TRUE(wal.StartLogging(&db).ok());
    TableSchema schema =
        SchemaBuilder("bulk")
            .AddColumn("id", ValueType::kInt64, /*nullable=*/false)
            .AddColumn("val", ValueType::kInt64)
            .SetPrimaryKey({"id"})
            .Build();
    ASSERT_TRUE(db.CreateTable(std::move(schema)).ok());
    std::vector<Tuple> rows;
    for (int i = 0; i < 100; ++i) {
      rows.push_back(Tuple{Value::Int(i), Value::Int(i * 2)});
    }
    ASSERT_TRUE(db.BulkInsert("bulk", rows).ok());
  }
  {
    Database db;
    replication::WalDir wal;
    ASSERT_TRUE(wal.Open(dir_.string()).ok());
    ASSERT_TRUE(wal.Recover(&db).ok());
    sql::SqlEngine engine(&db);
    auto r = engine.Execute("SELECT COUNT(*) AS n, SUM(val) AS s FROM bulk");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->rows[0][0].AsInt(), 100);
    EXPECT_DOUBLE_EQ(r->rows[0][1].AsDouble(), 9900.0);
  }
}

}  // namespace
}  // namespace bullfrog::shard
